//! **Experiments T1/F4 (assertion part).** Query counts of Table 1 are
//! exact arithmetic, not statistics: the HaskellDB program (Fig. 4) issues
//! `#categories + 1` statements, the Ferry/DSH program always 2 — at any
//! database size — and the two agree on the answer.

use ferry::prelude::*;
use ferry_bench::table1::{dsh_query, normalise, run_dsh, run_haskelldb};
use ferry_bench::workload::{paper_dataset, scaled_dataset};

#[test]
fn table1_query_counts_exactly() {
    for cats in [1usize, 7, 40] {
        let conn =
            Connection::new(scaled_dataset(cats, 2)).with_optimizer(ferry_optimizer::rewriter());
        let (dsh, dsh_q) = run_dsh(&conn).expect("dsh");
        assert_eq!(dsh_q, 2, "DSH: two queries at {cats} categories");
        let (hdb, hdb_q) = run_haskelldb(conn.database()).expect("haskelldb");
        assert_eq!(
            hdb_q,
            cats as u64 + 1,
            "HaskellDB: N+1 at {cats} categories"
        );
        assert_eq!(normalise(dsh), normalise(hdb), "the programs agree");
    }
}

#[test]
fn bundle_size_is_data_independent() {
    // same program, three databases of very different size: identical
    // bundles (the avalanche-safety guarantee, §3.2)
    let sizes = [
        paper_dataset(),
        scaled_dataset(50, 2),
        scaled_dataset(500, 3),
    ];
    for db in sizes {
        let conn = Connection::new(db);
        let bundle = conn.compile(&dsh_query()).expect("compile");
        assert_eq!(bundle.queries.len(), 2);
    }
}

#[test]
fn the_paper_section2_value() {
    let conn = Connection::new(paper_dataset()).with_optimizer(ferry_optimizer::rewriter());
    let (result, _) = run_dsh(&conn).expect("dsh");
    // "Evaluating this program results in a nested list like:
    //  [("API", []), ("LIB", [...]), ("LIN", [...]), ("ORM", [...]), ("QLA", [...])]"
    let cats: Vec<&str> = result.iter().map(|(c, _)| c.as_str()).collect();
    assert_eq!(cats, vec!["API", "LIB", "LIN", "ORM", "QLA"]);
    let by_cat = |c: &str| -> &Vec<String> { &result.iter().find(|(cat, _)| cat == c).unwrap().1 };
    assert!(by_cat("API").is_empty());
    assert!(by_cat("LIB").contains(&"respects list order".to_string()));
    assert!(by_cat("LIN").contains(&"supports data nesting".to_string()));
    assert!(by_cat("ORM").contains(&"supports data nesting".to_string()));
    assert!(by_cat("QLA").contains(&"avoids query avalanches".to_string()));
}

#[test]
fn dsh_runtime_scales_gracefully() {
    // the runtime half of Table 1's shape, as a conservative smoke check:
    // a 10× bigger database must not cost DSH anywhere near the avalanche's
    // super-linear blowup (the precise curves live in the criterion bench)
    let small = Connection::new(scaled_dataset(30, 2)).with_optimizer(ferry_optimizer::rewriter());
    let big = Connection::new(scaled_dataset(300, 2)).with_optimizer(ferry_optimizer::rewriter());
    let t0 = std::time::Instant::now();
    run_dsh(&small).unwrap();
    let t_small = t0.elapsed();
    let t0 = std::time::Instant::now();
    run_dsh(&big).unwrap();
    let t_big = t0.elapsed();
    assert!(
        t_big < t_small * 100,
        "DSH must stay near-linear: {t_small:?} → {t_big:?}"
    );
}

#[test]
fn dispatch_cost_widens_the_gap() {
    // model the client/server round trip the paper's setup pays per query:
    // the avalanche is charged N+1 round trips, the bundle exactly 2
    use std::time::{Duration, Instant};
    let db = scaled_dataset(50, 2);
    db.set_dispatch_cost(Duration::from_millis(2));
    let conn = Connection::new(db).with_optimizer(ferry_optimizer::rewriter());

    let t0 = Instant::now();
    let (_, q_dsh) = run_dsh(&conn).unwrap();
    let t_dsh = t0.elapsed();
    let t0 = Instant::now();
    let (_, q_hdb) = run_haskelldb(conn.database()).unwrap();
    let t_hdb = t0.elapsed();

    assert_eq!(q_dsh, 2);
    assert_eq!(q_hdb, 51);
    // 51 round trips vs 2: the round-trip bill alone dominates
    assert!(
        t_hdb > t_dsh,
        "with per-query dispatch cost, the avalanche must lose: {t_hdb:?} vs {t_dsh:?}"
    );
}
