//! Concurrent committers on one [`Storage`]: each commit frame's LSN —
//! the commit's GSN — is assigned under the log lock, so any interleaving
//! of appends writes a log that reopens with every commit.

use ferry_storage::{DurabilityConfig, FaultFs, Storage, Vfs};
use ferry_telemetry::Registry;
use std::sync::Arc;

const THREADS: usize = 8;
const COMMITS: usize = 2_000;

fn open(vfs: &Arc<FaultFs>) -> ferry_storage::Recovered {
    Storage::open(
        vfs.clone() as Arc<dyn Vfs>,
        DurabilityConfig::default(),
        &Registry::default(),
    )
    .unwrap()
}

#[test]
fn concurrent_commits_reopen_with_every_commit() {
    let vfs = Arc::new(FaultFs::new());
    let storage = open(&vfs).storage;
    let gsns: Vec<Vec<u64>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    (0..COMMITS)
                        .map(|_| storage.log_commit(&[]).unwrap())
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let total = (THREADS * COMMITS) as u64;
    let mut all: Vec<u64> = gsns.concat();
    all.sort_unstable();
    assert_eq!(all, (1..=total).collect::<Vec<_>>(), "each GSN once");
    storage.group_sync().unwrap();
    drop(storage);
    vfs.crash();
    let r = open(&vfs);
    assert_eq!(r.report.wal_frames as u64, total);
    assert_eq!(r.report.commits_applied as u64, total);
    assert_eq!(r.report.cut_gsn, total);
}
