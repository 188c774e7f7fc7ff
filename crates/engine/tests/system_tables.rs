//! System tables: differential tests of every `ferry.*` scan against its
//! live source, base-table shadowing, extrinsic registration, the
//! slow-query log's threshold gate, and the profile ring under
//! concurrent dispatch.

use ferry_algebra::{ColName, Plan, Schema, Ty, Value};
use ferry_engine::{Database, PROFILE_RING_CAP, SLOW_RING_CAP, SYS_PREFIX};
use ferry_telemetry::Metric;
use std::sync::Arc;
use std::time::Duration;

fn cn(s: &str) -> ColName {
    Arc::from(s)
}

/// Scan table `name` (base or system) through the executor, exactly as a
/// compiled `table "name"` reference would, returning the raw rows.
fn scan(db: &Database, name: &str) -> Vec<Vec<Value>> {
    // base tables shadow system tables — same order the executor uses
    let (schema, keys) = db
        .table(name)
        .map(|t| (t.schema.clone(), t.keys.clone()))
        .or_else(|| db.system_table_info(name))
        .unwrap_or_else(|| panic!("no such table {name}"));
    let mut plan = Plan::new();
    let cols: Vec<(ColName, Ty)> = schema.cols().to_vec();
    let root = plan.table(name, cols, keys.iter().map(|k| cn(k)).collect());
    db.snapshot()
        .execute(&plan, root)
        .unwrap_or_else(|e| panic!("scan {name}: {e}"))
        .rows()
        .to_vec()
}

fn seeded() -> Database {
    let db = Database::new();
    db.create_table(
        "emp",
        Schema::of(&[("dept", Ty::Str), ("name", Ty::Str), ("sal", Ty::Int)]),
        vec!["name"],
    )
    .unwrap();
    db.insert(
        "emp",
        vec![
            vec![Value::str("eng"), Value::str("ada"), Value::Int(90)],
            vec![Value::str("ops"), Value::str("bob"), Value::Int(50)],
        ],
    )
    .unwrap();
    db
}

/// Run one trivial dispatch so the profile ring and counters are warm.
fn dispatch_once(db: &Database) {
    let mut plan = Plan::new();
    let root = plan.table(
        "emp",
        vec![
            (cn("dept"), Ty::Str),
            (cn("name"), Ty::Str),
            (cn("sal"), Ty::Int),
        ],
        vec![cn("name")],
    );
    db.snapshot().execute(&plan, root).unwrap();
}

#[test]
fn ferry_metrics_matches_the_registry() {
    let db = seeded();
    dispatch_once(&db);
    // one row per counter/gauge, (kind, name, value), name order. Read
    // the registry before the scan: the scan is itself a dispatch, and a
    // dispatch adds its counters only after its `TableRef` has
    // materialised, so the scan sees the values read here
    let expected: Vec<(String, String, i64)> = db
        .telemetry()
        .registry()
        .metrics()
        .into_iter()
        .filter_map(|(name, m)| match m {
            Metric::Counter(c) => Some(("counter".into(), name, c.get() as i64)),
            Metric::Gauge(g) => Some(("gauge".into(), name, g.get())),
            Metric::Histogram(_) => None,
        })
        .collect();
    let rows = scan(&db, "ferry.metrics");
    assert!(!expected.is_empty(), "engine metrics are registered");
    assert_eq!(rows.len(), expected.len());
    for (row, (kind, name, value)) in rows.iter().zip(&expected) {
        assert_eq!(row[0], Value::str(kind.as_str()));
        assert_eq!(row[1], Value::str(name.as_str()));
        assert_eq!(row[2], Value::Int(*value), "metric {name}");
    }
    // the dispatch above was counted
    let queries = expected
        .iter()
        .find(|(_, n, _)| n == ferry_telemetry::names::ENGINE_QUERIES)
        .map(|(_, _, v)| *v);
    assert!(queries.unwrap_or(0) >= 1);
}

#[test]
fn ferry_histograms_snapshots_are_consistent() {
    let db = seeded();
    dispatch_once(&db);
    let rows = scan(&db, "ferry.histograms");
    let histos: Vec<String> = db
        .telemetry()
        .registry()
        .metrics()
        .into_iter()
        .filter_map(|(name, m)| matches!(m, Metric::Histogram(_)).then_some(name))
        .collect();
    assert_eq!(rows.len(), histos.len());
    // (count, mean, name, p50, p95, p99, sum): non-negative, internally sane
    for row in &rows {
        let Value::Int(count) = row[0] else { panic!() };
        let Value::Int(sum) = row[6] else { panic!() };
        assert!(count >= 0 && sum >= 0);
        if count == 0 {
            assert_eq!(sum, 0);
        }
    }
}

#[test]
fn ferry_queries_matches_the_profile_ring() {
    let db = seeded();
    for _ in 0..3 {
        dispatch_once(&db);
    }
    // scanning ferry.queries is itself a dispatch: the ring the scan
    // snapshots is the state *before* the scan's own profile lands
    let rows = scan(&db, "ferry.queries");
    let profiles = db.profiles();
    // the scan added one dispatch after materialising the rows
    assert_eq!(rows.len() + 1, profiles.len());
    for (row, p) in rows.iter().zip(&profiles) {
        assert_eq!(row[0], Value::Int(p.elapsed.as_micros() as i64));
        assert_eq!(row[1], Value::Int(p.nodes.len() as i64));
        assert_eq!(row[2], Value::Int(p.plan_hash as i64));
        assert_eq!(row[3], Value::Int(p.query_id as i64));
        assert_eq!(row[4], Value::Int(p.roots as i64));
        assert_eq!(row[5], Value::Int(p.trace_id as i64));
    }
}

#[test]
fn ferry_tables_matches_the_catalog() {
    let db = seeded();
    let (schema, keys) = db.system_table_info("ferry.tables").unwrap();
    assert_eq!(
        schema,
        Schema::of(&[
            ("bytes", Ty::Int),
            ("name", Ty::Str),
            ("rows", Ty::Int),
            ("wal_bytes", Ty::Int),
        ])
    );
    assert_eq!(keys, vec!["name".to_string()]);
    let rows = scan(&db, "ferry.tables");
    assert_eq!(rows.len(), 1);
    let emp_bytes = db
        .table("emp")
        .unwrap()
        .rows
        .rows()
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Str(s) => 8 + s.len() as u64,
                    _ => 8,
                })
                .sum::<u64>()
        })
        .sum::<u64>();
    assert_eq!(rows[0][0], Value::Int(emp_bytes as i64));
    assert_eq!(rows[0][1], Value::str("emp"));
    assert_eq!(rows[0][2], Value::Int(2));
    assert_eq!(rows[0][3], Value::Int(0)); // in-memory: no WAL
    assert!(db.system_table_info("ferry.shards").is_none());

    // incrementally maintained: an insert moves rows and bytes
    db.insert(
        "emp",
        vec![vec![Value::str("hr"), Value::str("cy"), Value::Int(40)]],
    )
    .unwrap();
    let rows = scan(&db, "ferry.tables");
    assert_eq!(rows[0][2], Value::Int(3));
    let Value::Int(b) = rows[0][0] else { panic!() };
    assert!(b as u64 > emp_bytes, "bytes grew with the insert");
}

#[test]
fn ferry_storage_reports_engine_properties() {
    let db = seeded();
    let rows = scan(&db, "ferry.storage");
    let get = |key: &str| -> i64 {
        rows.iter()
            .find(|r| r[0] == Value::str(key))
            .map(|r| match r[1] {
                Value::Int(v) => v,
                _ => panic!(),
            })
            .unwrap_or_else(|| panic!("property {key}"))
    };
    assert_eq!(get("durable"), 0);
    assert_eq!(get("tables"), 1);
    assert_eq!(get("poisoned"), 0);
    assert_eq!(get("epoch"), db.epoch() as i64);
    assert!(
        !rows.iter().any(|r| r[0] == Value::str("shards")),
        "one store: no shard count"
    );
    // sorted by name (key order)
    let names: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

#[test]
fn base_tables_shadow_system_tables() {
    let db = seeded();
    // not recommended, but defined: a base table under ferry.* hides the
    // intrinsic view from the executor and the schema APIs
    db.create_table("ferry.storage", Schema::of(&[("x", Ty::Int)]), vec!["x"])
        .unwrap();
    db.insert("ferry.storage", vec![vec![Value::Int(7)]])
        .unwrap();
    let rows = scan(&db, "ferry.storage");
    assert_eq!(rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn extrinsic_registration_is_validated_and_scannable() {
    let db = seeded();
    // wrong namespace
    assert!(db
        .register_system_table(
            "mine",
            Schema::of(&[("a", Ty::Int)]),
            vec!["a".into()],
            Arc::new(Vec::new),
        )
        .is_err());
    // intrinsic names are reserved
    assert!(db
        .register_system_table(
            "ferry.metrics",
            Schema::of(&[("a", Ty::Int)]),
            vec!["a".into()],
            Arc::new(Vec::new),
        )
        .is_err());
    // key must be a schema column
    assert!(db
        .register_system_table(
            "ferry.custom",
            Schema::of(&[("a", Ty::Int)]),
            vec!["b".into()],
            Arc::new(Vec::new),
        )
        .is_err());
    // a well-formed registration scans like any other table
    db.register_system_table(
        "ferry.custom",
        Schema::of(&[("a", Ty::Int), ("b", Ty::Str)]),
        vec!["a".into()],
        Arc::new(|| {
            vec![
                vec![Value::Int(1), Value::str("one")],
                vec![Value::Int(2), Value::str("two")],
            ]
        }),
    )
    .unwrap();
    assert_eq!(
        scan(&db, "ferry.custom"),
        vec![
            vec![Value::Int(1), Value::str("one")],
            vec![Value::Int(2), Value::str("two")],
        ]
    );
    assert!(db.system_table_info("ferry.custom").is_some());
}

#[test]
fn slow_queries_capture_is_threshold_gated() {
    let db = seeded();
    // untraced (the default `Counters` level): capture still works — the
    // threshold is the opt-in, not the config

    // no threshold (the idle default): nothing is captured
    dispatch_once(&db);
    assert!(db.slow_queries().is_empty());

    // an unreachable threshold: still nothing
    db.set_slow_query_threshold(Some(Duration::from_secs(3600)));
    dispatch_once(&db);
    assert!(db.slow_queries().is_empty());

    // a 1ns threshold: every dispatch is "slow"
    db.set_slow_query_threshold(Some(Duration::from_nanos(1)));
    dispatch_once(&db);
    let slow = db.slow_queries();
    assert_eq!(slow.len(), 1);
    let r = &slow[0];
    assert!(r.profile.elapsed >= Duration::from_nanos(1));
    assert_eq!(r.threshold, Duration::from_nanos(1));
    assert_eq!(r.profile.roots, 1);
    assert!(r.plan.contains("emp"), "plan pretty-print captured");
    assert_eq!(r.profile.trace_id, 0, "ran untraced under Counters");
    assert!(db.slow_query(r.profile.query_id).is_some());

    // the scan surface agrees: (elapsed_us, plan, plan_hash, query_id,
    // threshold_us, trace). Disable capture first — the scan is itself a
    // dispatch and would land in the very ring it reads.
    db.set_slow_query_threshold(None);
    let rows = scan(&db, "ferry.slow_queries");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][3], Value::Int(r.profile.query_id as i64));
    assert_eq!(rows[0][5], Value::str("off"));

    // disabled: no further capture; the ring is bounded
    dispatch_once(&db);
    assert_eq!(db.slow_queries().len(), 1);
    db.set_slow_query_threshold(Some(Duration::from_nanos(1)));
    for _ in 0..SLOW_RING_CAP + 5 {
        dispatch_once(&db);
    }
    assert_eq!(db.slow_queries().len(), SLOW_RING_CAP);
    db.clear_slow_queries();
    assert!(db.slow_queries().is_empty());
}

#[test]
fn profile_ring_keeps_the_newest_dispatches() {
    let db = seeded();
    let first = db.last_query_id();
    for _ in 0..PROFILE_RING_CAP + 4 {
        dispatch_once(&db);
    }
    let profiles = db.profiles();
    assert_eq!(profiles.len(), PROFILE_RING_CAP);
    // serial dispatch: the retained window is exactly the newest CAP ids,
    // in order, none lost, none duplicated
    let ids: Vec<u64> = profiles.iter().map(|p| p.query_id).collect();
    let want: Vec<u64> = (first + 5..=first + (PROFILE_RING_CAP + 4) as u64).collect();
    assert_eq!(ids, want);
}

#[test]
fn profile_ring_is_consistent_under_concurrent_dispatch() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    let db = Arc::new(seeded());
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = db.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..PER_THREAD {
                    dispatch_once(&db);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (THREADS * PER_THREAD) as u64;
    let profiles = db.profiles();
    // the ring absorbed every dispatch and kept the newest CAP of them
    assert_eq!(profiles.len(), PROFILE_RING_CAP);
    let ids: Vec<u64> = profiles.iter().map(|p| p.query_id).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "no duplicated ids: {ids:?}");
    for id in &ids {
        assert!(*id >= 1 && *id <= total, "id {id} out of range");
    }
    // recency: after the last id was assigned at most THREADS-1 older
    // dispatches were still in flight, far fewer than the ring holds, so
    // the final dispatch cannot have been evicted. (Ring order is push-
    // completion order, which may locally invert assignment order under
    // concurrency — strict id monotonicity is deliberately NOT asserted.)
    assert_eq!(db.last_query_id(), total);
    assert!(
        db.profiles().iter().any(|p| p.query_id == total),
        "the final dispatch is in the ring"
    );
}

#[test]
fn system_namespace_is_marked() {
    assert!("ferry.metrics".starts_with(SYS_PREFIX));
    assert!(Database::new().system_table_info("ferry.metrics").is_some());
    assert!(Database::new().system_table_info("users").is_none());
}
