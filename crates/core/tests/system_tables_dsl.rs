//! Querying Ferry about Ferry: the standard `Q<T>` DSL — filters,
//! group-bys, joins — running over the `ferry.*` system tables, plus the
//! slow-query report and the typed trace-status distinctions.

use ferry::prelude::*;
use ferry::TraceStatus;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;
use ferry_telemetry::Metric;
use std::time::Duration;

fn conn() -> Connection {
    let db = Database::new();
    db.create_table("nums", Schema::of(&[("n", Ty::Int)]), vec!["n"])
        .unwrap();
    db.insert(
        "nums",
        vec![
            vec![Value::Int(3)],
            vec![Value::Int(1)],
            vec![Value::Int(4)],
            vec![Value::Int(1)],
            vec![Value::Int(5)],
        ],
    )
    .unwrap();
    Connection::new(db)
}

// ferry.metrics columns alphabetically: (kind, name, value)
fn metrics() -> Q<Vec<(String, String, i64)>> {
    table::<(String, String, i64)>("ferry.metrics")
}

// ferry.queries columns alphabetically:
// (elapsed_us, nodes, plan_hash, query_id, roots, trace_id)
type QueryRow = (i64, i64, i64, i64, i64, i64);
fn queries() -> Q<Vec<QueryRow>> {
    table::<QueryRow>("ferry.queries")
}

// ferry.plan_cache columns alphabetically:
// (exp_hash, hits, operators, queries, schema_version)
type CacheRow = (i64, i64, i64, i64, i64);
fn plan_cache() -> Q<Vec<CacheRow>> {
    table::<CacheRow>("ferry.plan_cache")
}

#[test]
fn filter_over_ferry_metrics() {
    let c = conn();
    c.set_telemetry_config(TelemetryConfig::Counters);
    c.from_q(&table::<i64>("nums")).unwrap();

    // every counter name, through the DSL
    let q = ferry::comp!(
        (name)
        for (kind, name, value) in metrics(),
        if kind.eq(&toq(&"counter".to_string()))
    );
    let got: Vec<String> = c.from_q(&q).unwrap();
    let want: Vec<String> = c
        .telemetry()
        .registry()
        .metrics()
        .into_iter()
        .filter_map(|(n, m)| matches!(m, Metric::Counter(_)).then_some(n))
        .collect();
    assert_eq!(got, want, "counter names in registry (key) order");
    assert!(got
        .iter()
        .any(|n| n == ferry_telemetry::names::ENGINE_QUERIES));
}

#[test]
fn group_by_over_ferry_metrics() {
    let c = conn();
    c.set_telemetry_config(TelemetryConfig::Counters);
    c.from_q(&table::<i64>("nums")).unwrap();

    // how many metrics of each kind? group_with over the scan
    let q = map(
        |g: Q<Vec<(String, String, i64)>>| {
            pair(
                the(map(|m: Q<(String, String, i64)>| m.proj3_0(), g.clone())),
                length(g),
            )
        },
        group_with(|m: Q<(String, String, i64)>| m.proj3_0(), metrics()),
    );
    let got: Vec<(String, i64)> = c.from_q(&q).unwrap();
    let mut want: std::collections::BTreeMap<&str, i64> = Default::default();
    for (_, m) in c.telemetry().registry().metrics() {
        let kind = match m {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => continue,
        };
        *want.entry(kind).or_default() += 1;
    }
    let want: Vec<(String, i64)> = want.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, want);
}

#[test]
fn join_ferry_queries_against_ferry_plan_cache() {
    let c = conn();
    c.set_telemetry_config(TelemetryConfig::Counters);
    let hot = map(|x: Q<i64>| x + toq(&1i64), table::<i64>("nums"));
    for _ in 0..3 {
        c.from_q(&hot).unwrap(); // one miss, then two cache hits
    }

    // which recent dispatches came from a cached plan, and how hot is
    // that plan? — the equijoin the shared i64 hash encoding exists for
    let q = ferry::comp!(
        (pair(query_id, hits))
        for (elapsed_us, nodes, plan_hash, query_id, roots, trace_id) in queries(),
        for (exp_hash, hits, operators, queries, schema_version) in plan_cache(),
        if plan_hash.eq(&exp_hash)
    );
    let got: Vec<(i64, i64)> = c.from_q(&q).unwrap();
    // the three `hot` dispatches each match `hot`'s cache entry, which
    // had been hit twice by the time the introspection query ran
    let matched: Vec<&(i64, i64)> = got.iter().filter(|(_, h)| *h == 2).collect();
    assert_eq!(
        matched.len(),
        3,
        "three dispatches of the hot plan: {got:?}"
    );
    // dispatches of the introspection query itself joined its own entry
    // (hits 0) — plan_hash 0 rows (none here) would simply not match
    for (qid, _) in &got {
        assert!(*qid >= 1);
    }
}

#[test]
fn plan_cache_hits_are_counted_per_entry() {
    let c = conn();
    let q = table::<i64>("nums");
    c.prepare(&q).unwrap(); // miss
    c.prepare(&q).unwrap(); // hit
    c.prepare(&q).unwrap(); // hit
    let rows: Vec<(i64, i64, i64, i64, i64)> = c.from_q(&plan_cache()).unwrap();
    // two entries: `q` (2 hits) and the introspection scan (0 hits, it
    // was compiled to run this very query)
    assert_eq!(rows.len(), 2);
    let hits: Vec<i64> = rows.iter().map(|r| r.1).collect();
    assert!(hits.contains(&2) && hits.contains(&0), "hits {hits:?}");
    for (_, _, operators, queries, schema_version) in &rows {
        assert!(*operators >= 1);
        assert_eq!(*queries, 1);
        assert_eq!(*schema_version, c.snapshot().schema_version() as i64);
    }
}

#[test]
fn slow_query_report_renders_captured_dispatches() {
    let c = conn();
    c.set_slow_query_threshold(Some(Duration::from_nanos(1)));
    c.from_q(&table::<i64>("nums")).unwrap();
    c.set_slow_query_threshold(None);

    let slow = c.database().slow_queries();
    assert!(!slow.is_empty());
    let qid = slow[0].profile.query_id;
    let report = c.slow_query_report(qid).expect("captured record");
    assert!(report.contains(&format!("slow query {qid}")));
    assert!(report.contains("-- plan --"));
    assert!(report.contains("-- profile --"));
    assert!(report.contains("nums"), "plan names the scanned table");
    // the dispatch went through prepare: its hash joins ferry.plan_cache
    assert!(report.contains("plan hash"));
    assert!(c.slow_query_report(qid + 1000).is_none());

    // the DSL view agrees: (elapsed_us, plan, plan_hash, query_id,
    // threshold_us, trace)
    let rows: Vec<(i64, String, i64, i64, i64, String)> = c
        .from_q(&table::<(i64, String, i64, i64, i64, String)>(
            "ferry.slow_queries",
        ))
        .unwrap();
    assert_eq!(rows.len(), slow.len());
    assert_eq!(rows[0].3, qid as i64);
    assert_eq!(rows[0].5, "off", "ran untraced below Full");
}

#[test]
fn trace_status_distinguishes_the_none_cases() {
    let c = conn();

    // unknown id: nothing ever dispatched under it
    assert_eq!(c.trace_status_for(999), TraceStatus::UnknownQuery);
    assert!(c.trace_json_for(999).is_none());

    // dispatch without tracing: profiled (Counters) but never traced
    c.set_telemetry_config(TelemetryConfig::Counters);
    c.from_q(&table::<i64>("nums")).unwrap();
    let untraced = c.last_query_id();
    assert_eq!(c.trace_status_for(untraced), TraceStatus::NotTraced);
    assert!(c.trace_json_for(untraced).is_none());

    // dispatch under Full: trace captured, JSON available. Also capture
    // it in the slow-query ring, whose longer retention is what keeps
    // the Evicted/Unknown distinction decidable after the flood below.
    c.set_telemetry_config(TelemetryConfig::Full);
    c.set_slow_query_threshold(Some(Duration::from_nanos(1)));
    c.from_q(&table::<i64>("nums")).unwrap();
    let traced = c.last_query_id();
    c.set_slow_query_threshold(None);
    match c.trace_status_for(traced) {
        TraceStatus::Captured(json) => {
            assert_eq!(Some(json), c.trace_json_for(traced));
        }
        s => panic!("expected Captured, got {s:?}"),
    }

    // flood the bounded trace + profile rings: the trace is evicted, but
    // the slow-query record still proves the dispatch ran traced
    for _ in 0..32 {
        c.from_q(&table::<i64>("nums")).unwrap();
    }
    assert!(c.trace_json_for(traced).is_none());
    assert_eq!(c.trace_status_for(traced), TraceStatus::Evicted);

    // an id past every retention window reads as unknown again — the
    // honest answer, and the reason the enum exists
    assert_eq!(c.trace_status_for(untraced), TraceStatus::UnknownQuery);
}

#[test]
fn explain_analyze_composes_with_system_tables() {
    let c = conn();
    let q = ferry::comp!(
        (name)
        for (kind, name, value) in metrics(),
        if value.ge(&toq(&0i64))
    );
    let out = c.explain_analyze(&q).unwrap();
    assert!(out.contains("ferry.metrics"));
    assert!(out.contains("-- execution profile"));
    assert!(out.contains("-- timeline"));
}
