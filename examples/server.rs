//! Serve a database over TCP.
//!
//! ```sh
//! cargo run --example server            # binds 127.0.0.1:4816
//! cargo run --example server 0.0.0.0:9999
//! ```
//!
//! Seeds the README's `emp` table, binds the wire protocol, and serves
//! until you press Enter — then performs a graceful drain-then-close
//! shutdown. Talk to it with `cargo run --example client` (or any
//! program speaking the frame format in `DESIGN.md` §8).

use ferry::Connection;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;
use ferry_server::{Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:4816".to_string());

    let db = Database::new();
    db.create_table(
        "emp",
        Schema::of(&[("dept", Ty::Str), ("name", Ty::Str), ("sal", Ty::Int)]),
        vec!["name"],
    )?;
    db.insert(
        "emp",
        vec![
            vec![Value::str("eng"), Value::str("ada"), Value::Int(90)],
            vec![Value::str("eng"), Value::str("bob"), Value::Int(70)],
            vec![Value::str("ops"), Value::str("cy"), Value::Int(50)],
        ],
    )?;
    let conn = Connection::new(db).with_optimizer(ferry_optimizer::rewriter());

    let cfg = ServerConfig::default();
    println!(
        "admission control: {} connections, {} statements at once, up to {} waiting for a slot",
        cfg.max_connections, cfg.workers, cfg.queue_depth
    );
    let handle = Server::bind(conn, addr.as_str(), cfg)?;
    println!("serving on {}", handle.addr());
    println!("try:  cargo run --example client -- {}", handle.addr());
    println!("press Enter to drain and shut down");

    let mut line = String::new();
    std::io::stdin().read_line(&mut line)?;

    println!("draining {} live session(s)…", handle.live_sessions());
    handle.shutdown();
    println!("bye");
    Ok(())
}
