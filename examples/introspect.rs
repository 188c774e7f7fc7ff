//! Querying Ferry about Ferry: the system tables under the `ferry.`
//! namespace expose telemetry, catalog, storage and slow-query state as
//! ordinary relations — so the observability query language is the same
//! `Q<T>` DSL every other query uses.
//!
//! ```sh
//! cargo run --example introspect
//! ```

use ferry::prelude::*;
use ferry::TraceStatus;
use ferry_bench::workload::paper_dataset;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let conn = Connection::new(paper_dataset()).with_optimizer(ferry_optimizer::rewriter());
    conn.set_telemetry_config(TelemetryConfig::Counters);
    // capture anything slower than 50µs into the slow-query log
    conn.set_slow_query_threshold(Some(Duration::from_micros(50)));

    // a workload to observe: one query, dispatched a few times
    let workload: Q<Vec<(String, i64)>> = ferry::comp!(
        (pair(the(cat), length(fac)))
        for (fac, cat) in table::<(String, String)>("facilities"),
        group by snd
    );
    for _ in 0..4 {
        conn.from_q(&workload)?;
    }

    // ferry.tables — the catalog describing itself (columns, like every
    // table the DSL sees, in alphabetical order)
    println!("== ferry.tables ==");
    let tables: Vec<(i64, String, i64, i64)> = conn.from_q(&table("ferry.tables"))?;
    for (bytes, name, rows, _wal) in &tables {
        println!("  {name:<12} {rows:>6} rows  {bytes:>8} bytes");
    }

    // ferry.metrics with a DSL filter — only the engine counters
    println!("\n== engine counters (filter over ferry.metrics) ==");
    let engine: Vec<(String, i64)> = conn.from_q(&ferry::comp!(
        (pair(name, value))
        for (kind, name, value) in table::<(String, String, i64)>("ferry.metrics"),
        if kind.eq(&toq(&"counter".to_string()))
    ))?;
    for (name, value) in engine.iter().filter(|(n, _)| n.starts_with("engine.")) {
        println!("  {name:<28} {value}");
    }

    // the headline join: which recent dispatches came from a cached
    // plan, and how hot is that plan? ferry.queries ⋈ ferry.plan_cache
    // on the shared i64 hash encoding
    println!("\n== recent dispatches joined to their plan-cache entry ==");
    let joined: Vec<(i64, i64, i64)> = conn.from_q(&ferry::comp!(
        (tuple3(query_id, elapsed_us, hits))
        for (elapsed_us, nodes, plan_hash, query_id, roots, trace_id)
            in table::<(i64, i64, i64, i64, i64, i64)>("ferry.queries"),
        for (exp_hash, hits, operators, queries, schema_version)
            in table::<(i64, i64, i64, i64, i64)>("ferry.plan_cache"),
        if plan_hash.eq(&exp_hash)
    ))?;
    for (qid, us, hits) in &joined {
        println!("  query {qid:>3}  {us:>6}µs  plan hits so far: {hits}");
    }

    // the slow-query log, rendered
    println!("\n== slow queries ==");
    let slow = conn.database().slow_queries();
    match slow.first() {
        None => println!("  (none crossed the 50µs threshold)"),
        Some(rec) => {
            println!("  {} captured; rendering the first:\n", slow.len());
            let report = conn
                .slow_query_report(rec.profile.query_id)
                .expect("record still retained");
            println!("{report}");
        }
    }

    // the typed trace disposition: why trace_json_for returned None
    let last = conn.last_query_id();
    match conn.trace_status_for(last) {
        TraceStatus::Captured(_) => println!("query {last}: trace captured"),
        TraceStatus::NotTraced => {
            println!("query {last}: ran untraced (telemetry below Full)")
        }
        TraceStatus::Evicted => println!("query {last}: trace aged out"),
        TraceStatus::UnknownQuery => println!("query {last}: unknown id"),
    }

    // the same registry, rendered for a Prometheus scrape
    println!("\n== /metrics (Prometheus text exposition, first lines) ==");
    let text = conn.telemetry().registry().render_prometheus();
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}
