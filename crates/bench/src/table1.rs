//! The two measured implementations of the running example (§2 / §4.1).
//!
//! *What features are characteristic for the various query facility
//! categories?* — computed (a) the Ferry/DSH way, compiled into an
//! avalanche-safe **two-query bundle**, and (b) the HaskellDB way
//! (Fig. 4), which issues **one query per category** from a client-side
//! loop. Table 1 reports the query counts and runtimes of exactly these
//! two programs as the number of categories grows.

use ferry::prelude::*;
use ferry_baseline::{constant, do_query, Query as HQuery};
use ferry_engine::Database;
use ferry_sql::SqlError;

/// `descrFacility :: Q String -> Q [String]` — the descriptions of the
/// features of facility `f`.
///
/// §2 writes the guard as one trailing conjunction
/// (`feat ≡ feat' ∧ fac ≡ f`); we hoist each conjunct next to the
/// generator it constrains — a standard, semantics-preserving
/// comprehension normalisation. The placement matters for *performance
/// only*: our join-recovery pass dissolves a `loop × table` cross when
/// the guard sits adjacent to its generator, while the fully deferred
/// conjunction of §2 would need the complete Pathfinder join-graph
/// isolation machinery (see EXPERIMENTS.md, deviation D2).
pub fn descr_facility(f: Q<String>) -> Q<Vec<String>> {
    // [ mean | (fac, feat') <- features, fac == f,
    //          (feat, mean) <- meanings, feat == feat' ]
    ferry::comp!(
        (mean.clone())
        for (fac, feat2) in table::<(String, String)>("features"),
        if fac.eq(&f),
        for (feat, mean) in table::<(String, String)>("meanings"),
        if feat.eq(&feat2)
    )
}

/// The running example:
/// `[ (the cat, nub (concatMap descrFacility fac))
///  | (cat, fac) <- facilities, then group by cat ]`.
pub fn dsh_query() -> Q<Vec<(String, Vec<String>)>> {
    ferry::comp!(
        (pair(the(cat), nub(concat_map(descr_facility, fac))))
        for (cat, fac) in table::<(String, String)>("facilities"),
        group by fst
    )
}

/// Run the Ferry/DSH implementation; returns the nested result and the
/// number of queries dispatched (always 2 — avalanche safety).
pub fn run_dsh(conn: &Connection) -> Result<(Vec<(String, Vec<String>)>, u64), FerryError> {
    conn.database().reset_stats();
    let result = conn.from_q(&dsh_query())?;
    Ok((result, conn.database().stats().queries))
}

/// `getCats` of Fig. 4.
fn get_cats() -> HQuery {
    let mut q = HQuery::new();
    let facs = q.table("facilities");
    q.project("cat", facs.col("cat"));
    q.unique();
    q.order("cat", false);
    q
}

/// `getCatFeatures cat` of Fig. 4.
fn get_cat_features(cat: &str) -> HQuery {
    let mut q = HQuery::new();
    let facs = q.table("facilities");
    let feats = q.table("features");
    let means = q.table("meanings");
    q.restrict(
        feats
            .col("feature")
            .eq(means.col("feature"))
            .and(facs.col("cat").eq(constant(cat)))
            .and(facs.col("fac").eq(feats.col("fac"))),
    );
    q.project("meaning", means.col("meaning"));
    q.unique();
    q.order("meaning", false);
    q
}

/// Run the HaskellDB implementation (Fig. 4): one query for the category
/// list, then — `sequence $ map (λc → doQuery $ getCatFeatures c) cs` —
/// one query **per category**. Returns the result and the query count
/// (`#categories + 1`).
pub fn run_haskelldb(db: &Database) -> Result<(Vec<(String, Vec<String>)>, u64), SqlError> {
    db.reset_stats();
    let cats = do_query(db, &get_cats())?;
    let mut out = Vec::with_capacity(cats.len());
    for row in cats.rows().iter() {
        let cat = row[0].as_str().expect("cat is text").to_string();
        let means = do_query(db, &get_cat_features(&cat))?;
        let list: Vec<String> = means
            .rows()
            .iter()
            .map(|r| r[0].as_str().expect("meaning is text").to_string())
            .collect();
        out.push((cat, list));
    }
    Ok((out, db.stats().queries))
}

/// Normalise a nested result for cross-implementation comparison: the two
/// systems agree on *sets* of meanings per category (DSH preserves first-
/// occurrence order, the HaskellDB transliteration sorts).
pub fn normalise(mut r: Vec<(String, Vec<String>)>) -> Vec<(String, Vec<String>)> {
    for (_, ms) in r.iter_mut() {
        ms.sort();
    }
    r.sort();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{paper_dataset, scaled_dataset};

    #[test]
    fn dsh_reproduces_the_papers_result() {
        let conn = Connection::new(paper_dataset());
        let (result, queries) = run_dsh(&conn).unwrap();
        assert_eq!(
            queries, 2,
            "avalanche safety: [(String, [String])] ⇒ 2 queries"
        );
        // the paper's §2 result value
        let cats: Vec<&str> = result.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(cats, vec!["API", "LIB", "LIN", "ORM", "QLA"]);
        assert!(result[0].1.is_empty(), "API has no described features");
        assert!(result[1].1.contains(&"respects list order".to_string()));
        assert!(result[2].1.contains(&"supports data nesting".to_string()));
        assert!(result[4].1.contains(&"avoids query avalanches".to_string()));
    }

    #[test]
    fn both_implementations_agree() {
        let conn = Connection::new(paper_dataset());
        let (dsh, _) = run_dsh(&conn).unwrap();
        let (hdb, _) = run_haskelldb(conn.database()).unwrap();
        assert_eq!(normalise(dsh), normalise(hdb));
    }

    #[test]
    fn query_counts_follow_table_1() {
        for k in [5usize, 17] {
            let db = scaled_dataset(k, 2);
            let conn = Connection::new(db);
            let (_, dsh_queries) = run_dsh(&conn).unwrap();
            assert_eq!(dsh_queries, 2);
            let (_, hdb_queries) = run_haskelldb(conn.database()).unwrap();
            assert_eq!(hdb_queries, k as u64 + 1, "HaskellDB: #categories + 1");
        }
    }

    #[test]
    fn implementations_agree_on_scaled_data() {
        let conn = Connection::new(scaled_dataset(12, 3));
        let (dsh, _) = run_dsh(&conn).unwrap();
        let (hdb, _) = run_haskelldb(conn.database()).unwrap();
        assert_eq!(normalise(dsh), normalise(hdb));
    }

    #[test]
    fn dsh_agrees_with_the_interpreter() {
        let conn = Connection::new(paper_dataset());
        let via_db = conn.from_q(&dsh_query()).unwrap();
        let via_interp = conn.interpret(&dsh_query()).unwrap();
        assert_eq!(via_db, via_interp);
    }
}
