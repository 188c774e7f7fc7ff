//! **Experiments T1/F4 (assertion part).** Query counts of Table 1 are
//! exact arithmetic, not statistics: the HaskellDB program (Fig. 4) issues
//! `#categories + 1` statements, the Ferry/DSH program always 2 — at any
//! database size — and the two agree on the answer.

use ferry::prelude::*;
use ferry_bench::table1::{dsh_query, normalise, run_dsh, run_haskelldb};
use ferry_bench::workload::{paper_dataset, scaled_dataset};

#[test]
fn table1_query_counts_exactly() {
    for cats in [1usize, 7, 40, 50] {
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
    // the runtime half of Table 1's shape, as counts (times live in
    // `ferry-e2e`): a 10x bigger database runs the same 2 queries over the
    // same 84 plan nodes, and the rows those nodes produce stay under 37
    // per input row (35.6 at 30 categories, 36.8 at 300), where an
    // avalanche-style `categories x facilities` cross would not
    let work = |cats: usize| {
        let conn =
            Connection::new(scaled_dataset(cats, 2)).with_optimizer(ferry_optimizer::rewriter());
        let db = conn.database();
        let input: u64 = ["facilities", "features", "meanings"]
            .map(|t| db.table(t).unwrap().rows.len() as u64)
            .iter()
            .sum();
        let (_, queries) = run_dsh(&conn).unwrap();
        let s = db.stats();
        // (queries, nodes evaluated, rows produced, input rows)
        (queries, s.nodes_evaluated, s.rows_produced, input)
    };
    let (small, big) = (work(30), work(300));
    assert_eq!(small, (2, 84, 6_545, 184));
    assert_eq!(big, (2, 84, 66_593, 1_810));
    for (_, _, rows, input) in [small, big] {
        assert!(rows < 37 * input, "{rows} rows produced from {input}");
    }
}
