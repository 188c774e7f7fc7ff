//! Durability-layer micro-benchmarks: commit-log append throughput under
//! each fsync policy, and recovery by log replay vs. snapshot restore
//! (each commit one frame in the commit log). Not a paper artefact:
//! timings of the storage substrate, gated nowhere (the work ledger pins
//! a commit's fsyncs and WAL bytes and a reopen's conversions).
//!
//! All benches run over the in-memory `FaultFs` so they measure the
//! codec + framing + policy bookkeeping, not the host's disk; real-disk
//! latency is whatever `fsync(2)` costs and is not a property of this
//! code.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_storage::{DurabilityConfig, FaultFs, FsyncPolicy, Storage, Vfs, WalRecord, COMMIT_LOG};
use ferry_telemetry::Registry;
use std::sync::Arc;

/// Number of insert commits appended / replayed per iteration.
const RECORDS: usize = 1_000;
/// Rows per insert commit.
const ROWS: usize = 8;

fn schema() -> Schema {
    Schema::of(&[("id", Ty::Int), ("name", Ty::Str), ("qty", Ty::Int)])
}

fn rows(tag: usize) -> Vec<Row> {
    (0..ROWS)
        .map(|j| {
            vec![
                Value::Int((tag * ROWS + j) as i64),
                Value::str(format!("name_{tag}_{j}")),
                Value::Int((j * 3) as i64),
            ]
        })
        .collect()
}

fn open(vfs: &Arc<FaultFs>, fsync: FsyncPolicy) -> Storage {
    Storage::open(
        vfs.clone() as Arc<dyn Vfs>,
        DurabilityConfig::with_fsync(fsync),
        &Registry::default(),
    )
    .expect("open")
    .storage
}

/// Commit `rows(tag)`, durable per `fsync` on return (under `Always` the
/// commit is acked by the group sync that covers it).
fn commit(storage: &Storage, fsync: FsyncPolicy, tag: usize) {
    let rec = WalRecord::Rows {
        table: "bench".into(),
        rows: rows(tag),
    };
    storage.log_commit(&[rec]).expect("append");
    if fsync == FsyncPolicy::Always {
        storage.group_sync().expect("sync");
    }
}

/// A log holding the whole workload: `create_table` + RECORDS inserts.
fn prebuilt_log() -> Arc<FaultFs> {
    let vfs = Arc::new(FaultFs::new());
    let storage = open(&vfs, FsyncPolicy::Os);
    let create = WalRecord::CreateTable {
        name: "bench".into(),
        schema: schema(),
        keys: vec!["id".into()],
    };
    storage.log_commit(&[create]).unwrap();
    for i in 0..RECORDS {
        commit(&storage, FsyncPolicy::Os, i);
    }
    storage.sync().unwrap();
    vfs
}

fn recover(vfs: &Arc<FaultFs>) -> ferry_storage::Recovered {
    Storage::open(
        vfs.clone() as Arc<dyn Vfs>,
        DurabilityConfig::default(),
        &Registry::default(),
    )
    .expect("recover")
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");

    // append throughput per fsync policy (FaultFs: the sync itself is a
    // counter bump, so the policies differ only in bookkeeping)
    for (label, policy) in [
        ("wal_append_always", FsyncPolicy::Always),
        ("wal_append_everyn8", FsyncPolicy::EveryN(8)),
        ("wal_append_os", FsyncPolicy::Os),
    ] {
        group.bench_with_input(BenchmarkId::new(label, RECORDS), &RECORDS, |bch, _| {
            bch.iter(|| {
                let vfs = Arc::new(FaultFs::new());
                let storage = open(&vfs, policy);
                for i in 0..RECORDS {
                    commit(&storage, policy, i);
                }
                storage.sync().expect("sync");
                vfs.written_len(COMMIT_LOG)
            })
        });
    }

    // crash recovery: decode + CRC-check + apply the full log
    {
        let vfs = prebuilt_log();
        group.bench_with_input(
            BenchmarkId::new("recover_replay", RECORDS),
            &RECORDS,
            |bch, _| {
                bch.iter(|| {
                    let r = recover(&vfs);
                    assert_eq!(r.report.commits_applied, RECORDS + 1);
                    r.tables.len()
                })
            },
        );
    }

    // the same state recovered from a snapshot instead of replay
    {
        let vfs = prebuilt_log();
        let recovered = recover(&vfs);
        recovered
            .storage
            .checkpoint(&recovered.tables)
            .expect("checkpoint");
        group.bench_with_input(
            BenchmarkId::new("recover_snapshot", RECORDS),
            &RECORDS,
            |bch, _| {
                bch.iter(|| {
                    let r = recover(&vfs);
                    assert_eq!(r.report.commits_applied, 0);
                    r.tables.len()
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
