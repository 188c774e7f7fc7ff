//! Talk to a running ferry server over the wire.
//!
//! ```sh
//! cargo run --example server            # in one terminal
//! cargo run --example client            # in another (default 127.0.0.1:4816)
//! cargo run --example client -- 127.0.0.1:9999
//! ```
//!
//! The tour: a one-shot query, a prepared statement re-executed with
//! different parameters (watch the plan cache), the server describing
//! its own sessions via `ferry.connections`, and the Prometheus
//! exposition fetched over the same socket.

use ferry_algebra::Value;
use ferry_server::Client;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:4816".to_string());
    let mut c = Client::connect(addr.as_str())?;
    println!("connected to {addr}");

    // one-shot query
    let rs = c.query(
        "SELECT e.dept AS d, COUNT (*) AS n, SUM (e.sal) AS total \
         FROM emp AS e GROUP BY e.dept ORDER BY d ASC;",
    )?;
    println!("\ndepartments:");
    for row in &rs.rows {
        println!("  {row:?}");
    }

    // prepared statement, compiled once at prepare; every execution
    // binds its parameter into that one cached plan, so the three runs
    // below are three hits on one plan-cache entry
    let (stmt, _) = c.prepare(
        "SELECT e.name AS who, e.sal AS sal FROM emp AS e \
         WHERE e.sal >= $1 ORDER BY sal DESC;",
    )?;
    for floor in [80, 60, 70] {
        let rs = c.execute(stmt, &[Value::Int(floor)])?;
        println!("sal >= {floor}: {} row(s)", rs.rows.len());
    }
    let rs = c.query(
        "SELECT p.hits AS hits, p.queries AS q FROM ferry.plan_cache AS p \
         ORDER BY hits DESC;",
    )?;
    println!("hottest plan-cache entry: {:?}", rs.rows.first());

    // the server, about itself, over its own wire
    let rs = c.query(
        "SELECT c.id AS id, c.peer AS peer, c.queries AS q \
         FROM ferry.connections AS c ORDER BY id ASC;",
    )?;
    println!("\nlive sessions (one of these is this client):");
    for row in &rs.rows {
        println!("  {row:?}");
    }

    // metrics exposition over the wire — grep the server.* families
    let text = c.metrics()?;
    println!("\nserver.* metrics:");
    for line in text.lines().filter(|l| l.contains("server_")) {
        println!("  {line}");
    }

    c.close()?;
    println!("\nclosed cleanly");
    Ok(())
}
