//! Query accounting.
//!
//! Table 1 of the paper reports the *number of SQL queries emitted* next to
//! wall-clock time: the avalanche effect is first and foremost a query-count
//! effect. The engine therefore counts every dispatched query (and some
//! volume metrics) so experiments can assert counts exactly rather than
//! inferring them from timings.
//!
//! The aggregate counters live in the database's `ferry-telemetry`
//! [`Registry`](ferry_telemetry::Registry) (named `engine.*` /
//! `runtime.*`); [`QueryStats`] is the *view* `Database::stats()`
//! assembles from it. Beyond the counters, the engine records a
//! **per-node profile** of each dispatch — one [`NodeProfile`] per
//! evaluated plan node with its wall-clock time, output rows, kernel
//! batches and work ledger (sorts, hash builds, row conversions) —
//! retained for the last [`PROFILE_RING_CAP`] dispatches in a
//! [`ProfileRing`] keyed by query id. `Connection::explain_analyze`
//! renders the latest entry.

use std::collections::VecDeque;
use std::time::Duration;

/// Wall-time and work record for one evaluated plan node of one dispatch
/// (see [`QueryProfile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// Arena index of the node in its plan.
    pub node: u32,
    /// Operator mnemonic (`Node::label`).
    pub label: &'static str,
    /// Rows the node produced.
    pub rows: u64,
    /// Wall-clock evaluation time for this node.
    pub elapsed: Duration,
    /// Kernel batches this node's kernel or typed sink executed: one per
    /// [`BATCH_ROWS`](crate::vec_eval::BATCH_ROWS) input rows (`0` on the
    /// scalar path, for a node that runs neither, and for an empty input).
    pub batches: u32,
    /// The work ledger: exact counts of what the node did, the same on
    /// every run of the same plan over the same data. Sorts executed
    /// (`RowNum`, `RowRank`, `DenseRank`, `Serialize`) …
    pub sorts: u32,
    /// … and the rows they ordered.
    pub rows_sorted: u64,
    /// Hash tables built over typed key codes (a join's or difference's
    /// build side, a distinct's or group-by's groups) …
    pub hash_builds: u32,
    /// … and the rows inserted into them.
    pub rows_hashed: u64,
    /// Rows converted between row and column form while the node ran
    /// (`ferry_algebra::rows_converted`): a system-table scan, a theta
    /// join's scratch rows, and every row of the scalar oracle.
    pub rows_converted: u64,
}

/// The per-node profile of **one** dispatch (`execute` / `execute_bundle`
/// call), keyed by the database-assigned query id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Database-monotone dispatch id (1-based; id order is dispatch order).
    pub query_id: u64,
    /// Telemetry trace id active during the dispatch (0 when untraced).
    pub trace_id: u64,
    /// Stable hash of the source expression the runtime compiled this
    /// dispatch from (0 below the runtime). Joins `ferry.queries`
    /// against `ferry.plan_cache`.
    pub plan_hash: u64,
    /// Bundle members executed in this dispatch (1 for plain `execute`).
    pub roots: u32,
    /// Wall-clock time of the whole dispatch.
    pub elapsed: Duration,
    /// One entry per evaluated plan node, in evaluation (arena index)
    /// order.
    pub nodes: Vec<NodeProfile>,
}

/// How many recent dispatch profiles a [`ProfileRing`] retains.
pub const PROFILE_RING_CAP: usize = 16;

/// Bounded ring of the most recent [`QueryProfile`]s, oldest first.
/// Replaces the old single-slot `QueryStats::profile`: a workload can
/// look back across its last [`PROFILE_RING_CAP`] dispatches instead of
/// only the final one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRing {
    cap: usize,
    ring: VecDeque<QueryProfile>,
}

impl Default for ProfileRing {
    fn default() -> ProfileRing {
        ProfileRing::new(PROFILE_RING_CAP)
    }
}

impl ProfileRing {
    pub fn new(cap: usize) -> ProfileRing {
        ProfileRing {
            cap: cap.max(1),
            ring: VecDeque::new(),
        }
    }

    /// Append a dispatch profile, evicting the oldest when full.
    pub fn push(&mut self, profile: QueryProfile) {
        if self.ring.len() >= self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(profile);
    }

    /// The most recent dispatch's profile.
    pub fn latest(&self) -> Option<&QueryProfile> {
        self.ring.back()
    }

    /// The retained profile of query `query_id`, if not yet evicted.
    pub fn get(&self, query_id: u64) -> Option<&QueryProfile> {
        self.ring.iter().rev().find(|p| p.query_id == query_id)
    }

    /// Retained profiles, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &QueryProfile> {
        self.ring.iter()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// Counters accumulated by a [`crate::Database`] across `execute` calls —
/// a point-in-time view assembled by `Database::stats()` from the
/// telemetry registry plus the profile ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of queries dispatched (one per `execute` call).
    pub queries: u64,
    /// Total rows returned to the client across all queries.
    pub rows_out: u64,
    /// Total operator (node) evaluations.
    pub nodes_evaluated: u64,
    /// Total rows produced by intermediate operators (a rough work metric).
    pub rows_produced: u64,
    /// Prepared-plan cache hits recorded by the runtime (`Connection`):
    /// a `prepare`/`from_q` served an existing `CompiledBundle` without
    /// recompiling.
    pub cache_hits: u64,
    /// … and misses: compilations that went through the full
    /// loop-lifting + optimisation pipeline.
    pub cache_misses: u64,
    /// Node evaluations on the production path: equal to
    /// `nodes_evaluated` under `VecMode::On` and 0 under `Off`.
    pub vec_nodes: u64,
    /// Total kernel batches executed by kernels and typed sinks (the sum
    /// of the profiles' `batches`).
    pub kernel_batches: u64,
    /// The work ledger, summed over the profiles (see [`NodeProfile`]):
    /// sorts executed, rows sorted, hash tables built, rows hashed, and
    /// rows converted between row and column form inside the engine.
    pub sorts: u64,
    pub rows_sorted: u64,
    pub hash_builds: u64,
    pub rows_hashed: u64,
    pub rows_converted: u64,
    /// Per-node profiles of the most recent dispatches (ring of
    /// [`PROFILE_RING_CAP`], oldest first).
    pub profiles: ProfileRing,
}

impl QueryStats {
    pub fn reset(&mut self) {
        *self = QueryStats::default();
    }

    /// The most recent dispatch's per-node profile (what the old
    /// single-slot `profile` field held).
    pub fn latest_profile(&self) -> Option<&QueryProfile> {
        self.profiles.latest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u32) -> NodeProfile {
        NodeProfile {
            node: n,
            label: "lit",
            rows: 1,
            elapsed: Duration::from_micros(3),
            batches: 0,
            sorts: 1,
            rows_sorted: 1,
            hash_builds: 0,
            rows_hashed: 0,
            rows_converted: 1,
        }
    }

    fn profile(query_id: u64) -> QueryProfile {
        QueryProfile {
            query_id,
            trace_id: 0,
            plan_hash: 0,
            roots: 1,
            elapsed: Duration::from_micros(9),
            nodes: vec![node(0)],
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = QueryStats {
            queries: 3,
            rows_out: 10,
            nodes_evaluated: 5,
            rows_produced: 100,
            cache_hits: 2,
            cache_misses: 1,
            vec_nodes: 3,
            kernel_batches: 9,
            sorts: 2,
            rows_sorted: 20,
            hash_builds: 1,
            rows_hashed: 10,
            rows_converted: 4,
            ..QueryStats::default()
        };
        s.profiles.push(profile(1));
        s.reset();
        assert_eq!(s, QueryStats::default());
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut ring = ProfileRing::default();
        for q in 1..=20 {
            ring.push(profile(q));
        }
        assert_eq!(ring.len(), PROFILE_RING_CAP);
        let ids: Vec<u64> = ring.iter().map(|p| p.query_id).collect();
        assert_eq!(ids, (5..=20).collect::<Vec<u64>>());
        assert_eq!(ring.latest().unwrap().query_id, 20);
        assert_eq!(ring.get(7).unwrap().query_id, 7);
        assert!(ring.get(4).is_none(), "evicted profile is gone");
    }
}
