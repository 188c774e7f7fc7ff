//! Reader/writer stress: a durable database under sustained concurrent
//! load, checked for snapshot isolation, group-commit durability and
//! crash recovery. Heavier than the default suite — gated behind
//! `--features stress` and run as its own CI step. (Crash matrices over
//! every log of the store live in `crates/storage/tests/faults.rs`.)
#![cfg(feature = "stress")]

use ferry::prelude::*;
use ferry_algebra::{Schema, Ty, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

type Item = (i64, i64, String); // items(oid, price, product)

const WRITERS: i64 = 4;
const READERS: usize = 6;
const ROUNDS: i64 = 60;

fn ledger_query() -> Q<i64> {
    sum(map(
        |it: Q<Item>| it.proj3_1(),
        filter(
            |it: Q<Item>| it.proj3_0().ge(&toq(&0i64)),
            table::<Item>("items"),
        ),
    ))
}

#[test]
fn durable_mixed_workload_stays_balanced_and_recovers() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stress_mixed");
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig {
        checkpoint_every: Some(64), // force checkpoints to race commits
        ..DurabilityConfig::with_fsync(FsyncPolicy::Always)
    };
    {
        let conn = Connection::open_durable(&dir, config)
            .unwrap()
            .with_optimizer(ferry_optimizer::rewriter());
        conn.database()
            .create_table(
                "items",
                Schema::of(&[("oid", Ty::Int), ("price", Ty::Int), ("product", Ty::Str)]),
                vec!["oid", "product"],
            )
            .unwrap();

        let done = Arc::new(AtomicUsize::new(0));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let conn = conn.clone();
                let done = done.clone();
                thread::spawn(move || {
                    let i = Value::Int;
                    let s = Value::str;
                    for r in 0..ROUNDS {
                        let oid = w * 10_000 + r;
                        conn.database()
                            .transact(|tx| {
                                tx.insert(
                                    "items",
                                    vec![
                                        vec![i(oid), i(1 + r), s("debit")],
                                        vec![i(oid), i(-(1 + r)), s("credit")],
                                    ],
                                )
                            })
                            .unwrap();
                    }
                    done.fetch_add(1, Ordering::Release);
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let conn = conn.clone();
                let done = done.clone();
                thread::spawn(move || {
                    let mut iters = 0u32;
                    while done.load(Ordering::Acquire) < WRITERS as usize || iters < 8 {
                        assert_eq!(conn.from_q(&ledger_query()).unwrap(), 0, "torn read");
                        iters += 1;
                    }
                    iters
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        for h in readers {
            assert!(h.join().unwrap() >= 8);
        }
        assert_eq!(
            conn.database().table("items").unwrap().rows.len(),
            (WRITERS * ROUNDS * 2) as usize
        );
        // no clean shutdown: recovery below must replay the WAL tail
    }

    let conn = Connection::open_durable(&dir, config).unwrap();
    assert_eq!(
        conn.database().table("items").unwrap().rows.len(),
        (WRITERS * ROUNDS * 2) as usize,
        "an acked commit was lost across recovery"
    );
    assert_eq!(conn.from_q(&ledger_query()).unwrap(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
