//! Durable databases: write-ahead logging, crash recovery, snapshots.
//!
//! Run twice and watch the second run recover the catalog from disk:
//!
//! ```sh
//! cargo run --example persistence
//! cargo run --example persistence
//! ```
//!
//! The directory is `ferry-persistence-demo` under the temp directory.
//! One written by an earlier build is refused (`Unsupported`): this build
//! reads only its own layout, so remove the directory first.

use ferry::prelude::*;
use ferry_algebra::{Schema, Ty, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("ferry-persistence-demo");

    // open (or recover) the database; every mutation below is logged and
    // fsynced before it is acknowledged — one frame in the commit log and
    // one fsync per commit
    let conn = Connection::open_durable(&dir, DurabilityConfig::with_fsync(FsyncPolicy::Always))?;

    match conn.database().recovery_report() {
        Some(report) if report.cut_gsn > 0 => {
            println!("recovered an existing database:\n{}", report.render())
        }
        _ => println!("fresh database at {}", dir.display()),
    }

    if conn.database().table("products").is_none() {
        // one transaction: table + seed rows commit (and recover) together
        conn.database().transact(|db| {
            db.create_table(
                "products",
                Schema::of(&[("name", Ty::Str), ("price", Ty::Int)]),
                vec!["name"],
            )?;
            db.insert(
                "products",
                vec![
                    vec![Value::str("anvil"), Value::Int(120)],
                    vec![Value::str("banana"), Value::Int(2)],
                    vec![Value::str("compass"), Value::Int(30)],
                ],
            )
        })?;
    } else {
        // each run appends one more row — surviving restarts is the point
        let n = conn.database().table("products").unwrap().rows.rows().len() as i64;
        conn.database().insert(
            "products",
            vec![vec![Value::str(format!("gadget_{n}")), Value::Int(n)]],
        )?;
    }

    // queries are oblivious to durability: same plans, same results
    let affordable: Vec<String> = conn.from_q(&ferry::comp!(
        (name.clone())
        for (name, price) in table::<(String, i64)>("products"),
        if price.lt(&toq(&100i64))
    ))?;
    println!("affordable products: {affordable:?}");

    // snapshot the catalog and compact the log; the next open restores
    // from the snapshot and replays only the log tail
    let covered_gsn = conn.checkpoint()?;
    println!("checkpointed (snapshot covers gsn {covered_gsn})");
    Ok(())
}
