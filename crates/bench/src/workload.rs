//! The evaluation databases.

use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn s(x: &str) -> Value {
    Value::str(x)
}

/// The verbatim input tables of Figure 1: nine contemporary query
/// facilities, their categories, their features, and the feature meanings.
pub fn paper_dataset() -> Database {
    let mut db = Database::new();
    create_schema(&mut db);
    let facilities = [
        ("SQL", "QLA"),
        ("ODBC", "API"),
        ("LINQ", "LIN"),
        ("Links", "LIN"),
        ("Rails", "ORM"),
        ("DSH", "LIB"),
        ("ADO.NET", "ORM"),
        ("Kleisli", "QLA"),
        ("HaskellDB", "LIB"),
    ];
    db.insert(
        "facilities",
        facilities.iter().map(|(f, c)| vec![s(f), s(c)]).collect(),
    )
    .unwrap();
    let features = [
        ("SQL", "aval"),
        ("SQL", "type"),
        ("SQL", "SQL!"),
        ("LINQ", "nest"),
        ("LINQ", "comp"),
        ("LINQ", "type"),
        ("Links", "comp"),
        ("Links", "type"),
        ("Links", "SQL!"),
        ("Rails", "nest"),
        ("Rails", "maps"),
        ("DSH", "list"),
        ("DSH", "nest"),
        ("DSH", "comp"),
        ("DSH", "aval"),
        ("DSH", "type"),
        ("DSH", "SQL!"),
        ("ADO.NET", "maps"),
        ("ADO.NET", "comp"),
        ("ADO.NET", "type"),
        ("Kleisli", "list"),
        ("Kleisli", "nest"),
        ("Kleisli", "comp"),
        ("Kleisli", "type"),
        ("HaskellDB", "comp"),
        ("HaskellDB", "type"),
        ("HaskellDB", "SQL!"),
    ];
    db.insert(
        "features",
        features.iter().map(|(f, x)| vec![s(f), s(x)]).collect(),
    )
    .unwrap();
    let meanings = [
        ("list", "respects list order"),
        ("nest", "supports data nesting"),
        ("aval", "avoids query avalanches"),
        ("type", "is statically type-checked"),
        ("SQL!", "guarantees translation to SQL"),
        ("maps", "admits user-defined object mappings"),
        ("comp", "has compositional syntax and semantics"),
    ];
    db.insert(
        "meanings",
        meanings.iter().map(|(f, m)| vec![s(f), s(m)]).collect(),
    )
    .unwrap();
    db
}

fn create_schema(db: &mut Database) {
    db.create_table(
        "facilities",
        Schema::of(&[("fac", Ty::Str), ("cat", Ty::Str)]),
        vec!["fac"],
    )
    .unwrap();
    db.create_table(
        "features",
        Schema::of(&[("fac", Ty::Str), ("feature", Ty::Str)]),
        vec!["fac", "feature"],
    )
    .unwrap();
    db.create_table(
        "meanings",
        Schema::of(&[("feature", Ty::Str), ("meaning", Ty::Str)]),
        vec!["feature"],
    )
    .unwrap();
}

/// The Table 1 generator: the same three tables, with `facilities` scaled
/// to `categories` distinct categories (`facs_per_cat` facilities each).
/// Feature assignment is deterministic pseudo-random so runs are
/// reproducible.
pub fn scaled_dataset(categories: usize, facs_per_cat: usize) -> Database {
    let mut db = Database::new();
    create_schema(&mut db);
    let feature_names = ["list", "nest", "aval", "type", "SQL!", "maps", "comp"];
    let mut rng = StdRng::seed_from_u64(0xFE44_u64 + categories as u64);
    let mut fac_rows: Vec<Row> = Vec::with_capacity(categories * facs_per_cat);
    let mut feat_rows: Vec<Row> = Vec::new();
    for c in 0..categories {
        let cat = format!("cat{c:06}");
        for f in 0..facs_per_cat {
            let fac = format!("fac{c:06}_{f}");
            fac_rows.push(vec![s(&fac), s(&cat)]);
            // each facility gets 1–3 features
            let n = rng.gen_range(1..=3);
            let start = rng.gen_range(0..feature_names.len());
            for k in 0..n {
                let feat = feature_names[(start + k) % feature_names.len()];
                feat_rows.push(vec![s(&fac), s(feat)]);
            }
        }
    }
    db.insert("facilities", fac_rows).unwrap();
    db.insert("features", feat_rows).unwrap();
    let meanings = [
        ("list", "respects list order"),
        ("nest", "supports data nesting"),
        ("aval", "avoids query avalanches"),
        ("type", "is statically type-checked"),
        ("SQL!", "guarantees translation to SQL"),
        ("maps", "admits user-defined object mappings"),
        ("comp", "has compositional syntax and semantics"),
    ];
    db.insert(
        "meanings",
        meanings.iter().map(|(f, m)| vec![s(f), s(m)]).collect(),
    )
    .unwrap();
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_matches_figure_1() {
        let db = paper_dataset();
        assert_eq!(db.table("facilities").unwrap().rows.len(), 9);
        assert_eq!(db.table("features").unwrap().rows.len(), 27);
        assert_eq!(db.table("meanings").unwrap().rows.len(), 7);
    }

    #[test]
    fn scaled_dataset_has_requested_categories() {
        let db = scaled_dataset(50, 2);
        assert_eq!(db.table("facilities").unwrap().rows.len(), 100);
        let cats: std::collections::HashSet<String> = db
            .table("facilities")
            .unwrap()
            .rows
            .column("cat")
            .unwrap()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        assert_eq!(cats.len(), 50);
    }

    #[test]
    fn scaled_dataset_is_deterministic() {
        let a = scaled_dataset(10, 2);
        let b = scaled_dataset(10, 2);
        assert_eq!(
            a.table("features").unwrap().rows,
            b.table("features").unwrap().rows
        );
    }
}
