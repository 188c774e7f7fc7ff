//! Snapshot isolation, deterministically: pinned snapshots give
//! repeatable reads across commits, a bundle sees exactly one catalog
//! version even when a commit lands mid-bundle, and transactions read
//! their own writes while nothing escapes before commit.

use ferry_algebra::{ColName, Plan, Schema, Ty, Value};
use ferry_engine::Database;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

fn cn(s: &str) -> ColName {
    Arc::from(s)
}

fn db_with_accounts() -> Database {
    let db = Database::new();
    db.create_table(
        "accounts",
        Schema::of(&[("id", Ty::Int), ("balance", Ty::Int)]),
        vec!["id"],
    )
    .unwrap();
    db.insert(
        "accounts",
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(2), Value::Int(-100)],
        ],
    )
    .unwrap();
    db
}

fn scan_accounts(plan: &mut Plan) -> ferry_algebra::NodeId {
    plan.table(
        "accounts".to_string(),
        vec![(cn("id"), Ty::Int), (cn("balance"), Ty::Int)],
        vec![cn("id")],
    )
}

#[test]
fn pinned_snapshot_gives_repeatable_reads_across_commits() {
    let db = db_with_accounts();
    let snap = db.snapshot();
    let pinned_epoch = snap.epoch();
    let mut plan = Plan::new();
    let root = scan_accounts(&mut plan);
    let before = snap.execute(&plan, root).unwrap().rows().into_owned();

    // five commits land while the snapshot stays pinned
    for i in 0..5 {
        db.insert("accounts", vec![vec![Value::Int(10 + i), Value::Int(i)]])
            .unwrap();
    }
    assert_eq!(db.epoch(), pinned_epoch + 5);

    // repeatable read: the pinned snapshot returns the same rows, at the
    // same epoch, as many times as it is asked
    for _ in 0..3 {
        assert_eq!(snap.execute(&plan, root).unwrap().rows(), before);
        assert_eq!(snap.epoch(), pinned_epoch);
    }
    // a fresh pin sees all five commits
    let fresh = db.snapshot();
    assert_eq!(fresh.execute(&plan, root).unwrap().rows().len(), 7);
}

/// A multi-query bundle must see ONE catalog version even when a commit
/// is installed between member evaluations. The writer thread commits
/// while the bundle runs (synchronised via channels from inside the
/// reader), and every member must agree on the pre-commit state.
#[test]
fn bundle_sees_one_epoch_across_a_mid_bundle_commit() {
    let db = Arc::new(db_with_accounts());
    // a 3-member bundle over the same table: sum-like duplication of the
    // scan so each member reads `accounts` independently
    let mut plan = Plan::new();
    let r1 = scan_accounts(&mut plan);
    let r2 = plan.project(r1, vec![(cn("balance"), cn("balance"))]);
    let r3 = plan.project(r1, vec![(cn("id"), cn("id"))]);

    // pin a snapshot FIRST, evaluate one member, then force a commit to
    // land before the remaining members run — the mid-bundle commit
    let snap = db.snapshot();
    let first = snap.execute(&plan, r1).unwrap();
    let (commit_done_tx, commit_done_rx) = mpsc::channel::<()>();
    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            db.insert("accounts", vec![vec![Value::Int(99), Value::Int(0)]])
                .unwrap();
            commit_done_tx.send(()).unwrap();
        })
    };
    commit_done_rx.recv().unwrap(); // the writer has committed NOW
    let rest = snap.execute_bundle(&plan, &[r1, r2, r3]).unwrap();
    writer.join().unwrap();

    // all members agree with the first read: 2 rows, no writer row
    assert_eq!(first.len(), 2);
    for rel in &rest {
        assert_eq!(rel.len(), 2, "bundle member saw a different epoch");
    }
    // and the commit is visible to a fresh snapshot
    assert_eq!(
        db.snapshot().execute(&plan, r1).unwrap().len(),
        3,
        "the racing commit must exist"
    );
}

#[test]
fn transactions_read_their_own_writes_but_leak_nothing_before_commit() {
    let db = db_with_accounts();
    let db_ref = &db;
    let observed_mid_tx = db
        .transact(|tx| {
            tx.insert("accounts", vec![vec![Value::Int(3), Value::Int(50)]])?;
            // RYOW: the transaction sees its own insert…
            assert_eq!(tx.table("accounts").unwrap().rows.len(), 3);
            // …while concurrent readers still see the published version
            Ok(db_ref.table("accounts").unwrap().rows.len())
        })
        .unwrap();
    assert_eq!(observed_mid_tx, 2, "uncommitted write leaked to readers");
    assert_eq!(db.table("accounts").unwrap().rows.len(), 3);
}

/// Writers serialise behind the commit lock but never block readers:
/// snapshots taken while a slow transaction builds keep serving.
#[test]
fn readers_are_never_blocked_by_an_open_transaction() {
    let db = Arc::new(db_with_accounts());
    let (in_tx_send, in_tx_recv) = mpsc::channel::<()>();
    let (done_send, done_recv) = mpsc::channel::<()>();
    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            db.transact(|tx| {
                tx.insert("accounts", vec![vec![Value::Int(7), Value::Int(7)]])?;
                in_tx_send.send(()).unwrap();
                // hold the transaction open until the reader proves it
                // could read (a lock-holding design would deadlock here)
                done_recv.recv().unwrap();
                Ok(())
            })
            .unwrap();
        })
    };
    in_tx_recv.recv().unwrap();
    // transaction is open RIGHT NOW — reads must not block
    assert_eq!(db.table("accounts").unwrap().rows.len(), 2);
    assert_eq!(db.snapshot().epoch(), 2);
    done_send.send(()).unwrap();
    writer.join().unwrap();
    assert_eq!(db.table("accounts").unwrap().rows.len(), 3);
}
