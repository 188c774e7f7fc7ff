//! End-to-end persistence: `Connection::open_durable` against a real
//! directory — mutate, query, checkpoint, reopen, query again. The
//! recovered database must serve the same plans and the same results,
//! and the plan cache must start cold under the recovered schema
//! version.

use ferry::prelude::*;
use ferry_algebra::{Schema, Ty, Value};

type Product = (String, i64);

fn affordable(limit: i64) -> Q<Vec<String>> {
    ferry::comp!(
        (name.clone())
        for (name, price) in table::<Product>("products"),
        if price.lt(&toq(&limit))
    )
}

fn seed(conn: &Connection) {
    // two autocommitted transactions: two commits, GSN 1 and 2
    let db = conn.database();
    db.create_table(
        "products",
        Schema::of(&[("name", Ty::Str), ("price", Ty::Int)]),
        vec!["name"],
    )
    .unwrap();
    db.insert(
        "products",
        vec![
            vec![Value::str("anvil"), Value::Int(120)],
            vec![Value::str("banana"), Value::Int(2)],
            vec![Value::str("compass"), Value::Int(30)],
        ],
    )
    .unwrap();
}

#[test]
fn open_durable_roundtrip_with_checkpoint() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("core_persistence_rt");
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::with_fsync(FsyncPolicy::Always);

    {
        let conn = Connection::open_durable(&dir, config).unwrap();
        seed(&conn);
        assert_eq!(
            conn.from_q(&affordable(100)).unwrap(),
            vec!["banana".to_string(), "compass".to_string()]
        );
        let gsn = conn.checkpoint().unwrap();
        assert_eq!(gsn, 2, "create + insert were logged");
        conn.database()
            .insert(
                "products",
                vec![vec![Value::str("dynamite"), Value::Int(45)]],
            )
            .unwrap();
        // no clean shutdown beyond this point: recovery must cope
    }

    let conn = Connection::open_durable(&dir, config)
        .unwrap()
        .with_optimizer(ferry_optimizer::rewriter());
    let report_rendered = {
        let db = conn.database();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.watermark_gsn, 2);
        assert_eq!(report.commits_applied, 1, "only the post-checkpoint tail");
        report.render()
    };
    assert!(report_rendered.contains("recovery"));

    // recovered catalog serves the same query, now with the log tail
    assert_eq!(
        conn.from_q(&affordable(100)).unwrap(),
        vec![
            "banana".to_string(),
            "compass".to_string(),
            "dynamite".to_string()
        ]
    );
    // recovery bumped the schema version: the prepare was a miss, and
    // the database agrees with the reference interpreter
    assert!(conn.database().schema_version() > 0);
    assert_eq!(
        conn.from_q(&affordable(100)).unwrap(),
        conn.interpret(&affordable(100)).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
