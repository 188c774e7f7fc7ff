//! Physical operators: bulk-at-a-time evaluation of a plan DAG.
//!
//! Two execution strategies keep the bulk operators — the hot path of
//! every loop-lifted bundle — fast:
//!
//! 1. **Shared columns.** A relation is one `Arc`-shared typed column
//!    per schema column plus a selection vector ([`Rel`]). `TableRef` and
//!    `Lit` hand out the catalog's / plan's own columns; `Select`,
//!    `Distinct`, semi/anti joins and `Serialize` emit *selection
//!    vectors*; `Project` and `Serialize` pick column `Arc`s; `Compute`
//!    and `Attach` add one column beside their input's. Joins,
//!    windows, group-by and `UnionAll` gather their output column by
//!    column through index vectors. No operator builds an output row
//!    outside the scalar oracle; a theta join evaluates its predicate
//!    over one scratch row per pair, in both modes.
//! 2. **One pass per bundle.** The arena is topologically ordered, so
//!    [`run_many`] evaluates every needed node once, in index order, on
//!    the calling thread: sub-plans shared between bundle members run
//!    once, and each operator is one set-at-a-time pass over its inputs.
//!
//! A dispatch runs on the thread that calls it; concurrency lives between
//! queries (MVCC readers, the server's sessions), not inside one.
//! Sorts break ties on row position, so every result is deterministic.
//!
//! Production runs **one** implementation per operator, at every input
//! size, and every plan node is **one evaluation** with its own profile
//! entry. `Select` and `Compute` run one kernel ([`crate::vec_eval`])
//! over their input's visible rows in 1024-row batches; `Project` and
//! `Attach` pick and add columns; the sinks (joins, windows, group-by,
//! distinct, difference, serialize) run the typed branch of their
//! [`eval_node`] arm. The scalar arms (row-at-a-time over
//! [`crate::eval`]) are the differential oracle: they run only under
//! `VecMode::Off`, and each arm picks by that mode alone. Both modes
//! resolve names through one [`bind`]; a kernel walks the same bound
//! tree a batch at a time and refuses no well-typed expression (a
//! sub-expression sees only the rows that reach it, see
//! [`crate::vec_eval`]), and the code kernels below take every column.
//!
//! Every key-consuming sink — equi-, semi- and anti-join, difference,
//! distinct, group-by — reaches typed keys through one kernel at any key
//! arity: [`chunk_codes`] turns each key column into `u64` codes (column
//! by column; for two inputs, [`key_codes`] translates probe strings into
//! the build side's dictionary),
//! [`KeyIndex`] and [`Keys::groups`] hash them into flat chains, and a
//! composite key's candidates are verified column by column. A `unit`
//! key column is one constant code. A one-column build key whose codes
//! run `base, base + 1, …` needs no hash: [`KeyIndex`] finds a probe's
//! match at its offset from `base`.
//!
//! Every node keeps a **work ledger** ([`NodeMetrics`], then its
//! [`NodeProfile`]): the sorts it ran ([`sort_indices`]) and the hash
//! tables it built ([`KeyIndex::new`], [`Keys::groups`]), with their
//! rows, and the rows converted between row and column form while it
//! ran ([`ferry_algebra::rows_converted`]). A sort skipped because its
//! input is in order already ([`sort_by_codes`]) and a positional index
//! count as neither a sort nor a hash build. The counts are exact: the
//! same plan over the same data counts the same on every run.

use crate::catalog::Snapshot;
use crate::error::EngineError;
use crate::eval::{bind, eval};
use crate::stats::{NodeProfile, QueryStats};
use crate::vec_eval::{self, VecMode, BATCH_ROWS};
use ferry_algebra::plan::Aggregate;
use ferry_algebra::{
    AggFun, ColName, ColVec, Dir, Node, NodeId, Plan, Rel, Row, Schema, SortSpec, Ty, Value,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Evaluate the DAG under `root` and return its relation. `prof`
/// receives one [`NodeProfile`] per evaluated node.
pub fn run(
    snap: &Snapshot<'_>,
    plan: &Plan,
    root: NodeId,
    schemas: &[Schema],
    stats: &mut QueryStats,
    prof: &mut Vec<NodeProfile>,
) -> Result<Rel, EngineError> {
    Ok(run_many(snap, plan, &[root], schemas, stats, prof)?
        .pop()
        .expect("one root in, one relation out"))
}

/// Evaluate the DAG under several roots **in one pass**: nodes shared
/// between roots (common sub-plans of a query bundle) are evaluated once,
/// in arena index order — children are always lower-indexed, so that
/// order is topological. Returns one relation per root, in root order.
pub fn run_many(
    snap: &Snapshot<'_>,
    plan: &Plan,
    roots: &[NodeId],
    schemas: &[Schema],
    stats: &mut QueryStats,
    prof: &mut Vec<NodeProfile>,
) -> Result<Vec<Rel>, EngineError> {
    let mode = snap.vec_mode();
    // mark every node reachable from any root
    let mut needed = vec![false; plan.len()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut needed[id.index()], true) {
            continue;
        }
        stack.extend(plan.node(id).children());
    }
    let mut results: Vec<Option<Rel>> = vec![None; plan.len()];
    for idx in 0..plan.len() {
        if !needed[idx] {
            continue;
        }
        let id = NodeId(idx as u32);
        let mut m = NodeMetrics::default();
        let start_ns = ferry_telemetry::now_ns();
        let start = Instant::now();
        let converted = ferry_algebra::rows_converted();
        let rel = eval_node(snap, plan, id, schemas, &results, mode, &mut m)?;
        let elapsed = start.elapsed();
        let rows_converted = ferry_algebra::rows_converted() - converted;
        // under `On` every node counts, a view-only one (a scan, a
        // projection) that runs no row code of either kind included
        if mode == VecMode::On {
            stats.vec_nodes += 1;
        }
        stats.nodes_evaluated += 1;
        stats.rows_produced += rel.len() as u64;
        stats.kernel_batches += m.batches as u64;
        stats.sorts += m.sorts as u64;
        stats.rows_sorted += m.rows_sorted;
        stats.hash_builds += m.hash_builds as u64;
        stats.rows_hashed += m.rows_hashed;
        stats.rows_converted += rows_converted;
        let label = plan.node(id).label();
        if ferry_telemetry::tracing_active() {
            // post-hoc span: the node was timed above; record it
            // under the dispatch span so every plan node shows up in the
            // query trace
            ferry_telemetry::record_span(
                label,
                "exec.node",
                start_ns,
                elapsed.as_nanos() as u64,
                vec![
                    ("node", id.0.into()),
                    ("rows", (rel.len() as u64).into()),
                    ("batches", m.batches.into()),
                ],
            );
        }
        prof.push(NodeProfile {
            node: id.0,
            label,
            rows: rel.len() as u64,
            elapsed,
            batches: m.batches,
            sorts: m.sorts,
            rows_sorted: m.rows_sorted,
            hash_builds: m.hash_builds,
            rows_hashed: m.rows_hashed,
            rows_converted,
        });
        results[idx] = Some(rel);
    }
    Ok(roots
        .iter()
        .map(|r| results[r.index()].clone().expect("roots are evaluated"))
        .collect())
}

/// Per-node work, folded into [`QueryStats`] and the node's profile.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMetrics {
    /// Kernel batches executed by the node's kernel or typed sink (`0`
    /// for a node that runs neither, an empty input, or the scalar
    /// oracle).
    batches: u32,
    /// Sorts executed ([`sort_indices`]; none for input in order) and
    /// the rows they ordered.
    sorts: u32,
    rows_sorted: u64,
    /// Hash tables built ([`KeyIndex::new`], [`Keys::groups`]; none for a
    /// positional index) and the rows inserted into them.
    hash_builds: u32,
    rows_hashed: u64,
}

impl NodeMetrics {
    /// Record that a typed sink ran over `rows` input rows.
    fn typed_sink(&mut self, rows: usize) {
        self.batches += rows.div_ceil(BATCH_ROWS) as u32;
    }

    fn sorted(&mut self, rows: usize) {
        self.sorts += 1;
        self.rows_sorted += rows as u64;
    }

    fn hashed(&mut self, rows: usize) {
        self.hash_builds += 1;
        self.rows_hashed += rows as u64;
    }
}

/// `rel`'s columns at its visible rows: its own when it is dense.
fn dense_cols(rel: &Rel) -> Vec<Arc<ColVec>> {
    match rel.sel() {
        None => (0..rel.width()).map(|c| rel.col(c).clone()).collect(),
        Some(_) => rel.gather((0..rel.len() as u32).collect()),
    }
}

fn child(results: &[Option<Rel>], id: NodeId) -> &Rel {
    results[id.index()]
        .as_ref()
        .expect("child evaluated before parent")
}

fn no_such_col(schema: &Schema, col: &str) -> EngineError {
    EngineError::NoSuchColumn {
        col: col.to_string(),
        schema: schema.to_string(),
    }
}

/// Resolve an order specification to visible column indices; a missing
/// column is a malformed plan, reported — not panicked — as
/// [`EngineError::NoSuchColumn`].
fn resolve_sort(schema: &Schema, order: &[SortSpec]) -> Result<Vec<(usize, Dir)>, EngineError> {
    order
        .iter()
        .map(|(c, d)| {
            schema
                .index_of(c)
                .map(|i| (i, *d))
                .ok_or_else(|| no_such_col(schema, c))
        })
        .collect()
}

/// Resolve column names to visible indices (see [`resolve_sort`]).
fn resolve_cols(schema: &Schema, cols: &[ColName]) -> Result<Vec<usize>, EngineError> {
    cols.iter()
        .map(|c| schema.index_of(c).ok_or_else(|| no_such_col(schema, c)))
        .collect()
}

/// Compare two visible rows on the given `(column, direction)` spec.
fn cmp_vis(rel: &Rel, a: u32, b: u32, spec: &[(usize, Dir)]) -> Ordering {
    for &(c, d) in spec {
        let o = rel.cell(a as usize, c).cmp(&rel.cell(b as usize, c));
        let o = match d {
            Dir::Asc => o,
            Dir::Desc => o.reverse(),
        };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// The cells of visible row `i` at columns `idxs` (the oracle's keys).
fn key_of(rel: &Rel, i: usize, idxs: &[usize]) -> Vec<Value> {
    idxs.iter().map(|&c| rel.cell(i, c)).collect()
}

/// The column row of every visible row of `rel`.
fn raw_rows(rel: &Rel) -> Vec<u32> {
    (0..rel.len()).map(|i| rel.raw_row(i) as u32).collect()
}

/// A join's output: `l`'s columns at its visible rows `li`, then `r`'s at
/// `ri`, gathered column by column.
fn join_output(l: &Rel, r: &Rel, li: Vec<u32>, ri: Vec<u32>, schema: Schema) -> Rel {
    let n = li.len();
    let mut cols = l.gather(li);
    cols.extend(r.gather(ri));
    Rel::from_cols(schema, n, cols)
}

/// Every pair of a visible row of `l` and one of `r`, in `l`-major order.
fn cross_join(l: &Rel, r: &Rel, schema: Schema) -> Rel {
    let (nl, nr) = (l.len() as u32, r.len() as u32);
    let li = (0..nl).flat_map(|i| std::iter::repeat_n(i, nr as usize));
    let ri = (0..nl).flat_map(|_| 0..nr);
    join_output(l, r, li.collect(), ri.collect(), schema)
}

/// One `u64` equality code per **visible** row of `rel` for `chunk`, one
/// of its columns: two cells of the column are `Value`-equal iff their
/// codes are. String codes are dictionary codes, comparable only within
/// one dictionary — [`key_codes`] translates them across dictionaries.
fn chunk_codes(rel: &Rel, chunk: &ColVec) -> Vec<u64> {
    let n = rel.len();
    let mut out = Vec::with_capacity(n);
    match chunk {
        ColVec::Int(v) => out.extend((0..n).map(|i| v[rel.raw_row(i)] as u64)),
        ColVec::Nat(v) => out.extend((0..n).map(|i| v[rel.raw_row(i)])),
        // total_cmp equality coincides with bit equality
        ColVec::Dbl(v) => out.extend((0..n).map(|i| v[rel.raw_row(i)].to_bits())),
        ColVec::Bool(v) => out.extend((0..n).map(|i| v[rel.raw_row(i)] as u64)),
        ColVec::Str { codes, .. } => out.extend((0..n).map(|i| codes[rel.raw_row(i)] as u64)),
        // a `unit` column: every cell equal, one code
        ColVec::Other(_) => out.resize(n, 0),
    }
    out
}

/// A string column's codes.
type StrCol<'a> = (&'a Rel, &'a [u32], &'a [Arc<str>]);

/// Codes of a probe-side string column in the **build** column's code
/// space: each distinct probe string is looked up among the build side's
/// strings once. A string the build side lacks gets `MISSING + its probe
/// code` — above every `u32` dictionary code, so it never matches a build
/// row, yet distinct per string, so probe rows still compare among
/// themselves. The lookup holds the build rows' strings, or the whole
/// dictionary when that is smaller.
fn translated_codes(
    (probe, codes, dict): StrCol<'_>,
    (build, bcodes, bdict): StrCol<'_>,
) -> Vec<u64> {
    const MISSING: u64 = 1 << 32;
    const UNSEEN: u64 = u64::MAX;
    let by_str: HashMap<&str, u32> = if build.len() < bdict.len() {
        (0..build.len())
            .map(|j| bcodes[build.raw_row(j)])
            .map(|c| (bdict[c as usize].as_ref(), c))
            .collect()
    } else {
        (bdict.iter().enumerate())
            .map(|(c, s)| (s.as_ref(), c as u32))
            .collect()
    };
    let mut trans = vec![UNSEEN; dict.len()];
    (0..probe.len())
        .map(|i| {
            let c = codes[probe.raw_row(i)] as usize;
            if trans[c] == UNSEEN {
                trans[c] = by_str
                    .get(dict[c].as_ref())
                    .map_or(MISSING + c as u64, |&b| b as u64);
            }
            trans[c]
        })
        .collect()
}

/// Typed equality keys of one operator input: for each key column, one
/// `u64` code per visible row (column-major). Two rows' keys are
/// `Value`-equal iff every column's codes are equal.
struct Keys {
    rows: usize,
    cols: Vec<Vec<u64>>,
    /// Per-row hash of a composite key. `None` for a single column, whose
    /// code is its own hash: equal hashes then mean equal keys, and
    /// lookups skip verification.
    hashes: Option<Vec<u64>>,
}

impl Keys {
    /// One input's keys on columns `cols` (distinct, group-by), in its
    /// own code space.
    fn of(rel: &Rel, cols: &[usize]) -> Keys {
        let codes = cols.iter().map(|&c| chunk_codes(rel, rel.col(c))).collect();
        Keys::new(codes, rel.len())
    }

    fn new(cols: Vec<Vec<u64>>, rows: usize) -> Keys {
        let hashes = (cols.len() != 1).then(|| {
            let mut h = vec![0x243F_6A88_85A3_08D3u64; rows];
            for col in &cols {
                for (h, &c) in h.iter_mut().zip(col) {
                    *h = (h.rotate_left(26) ^ c).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                }
            }
            h
        });
        Keys { rows, cols, hashes }
    }

    /// Each row's hash: the composite hash, or the single column's codes.
    fn hashes(&self) -> &[u64] {
        match &self.hashes {
            Some(h) => h,
            None => &self.cols[0],
        }
    }

    /// `Some(base)` when the key is one column whose codes run `base,
    /// base + 1, …` (wrapping `u64`), so row `j`'s code is `base + j`: an
    /// empty or one-row key always does. One pass, stopping at the first
    /// code out of step.
    fn run_base(&self) -> Option<u64> {
        if self.hashes.is_some() {
            return None;
        }
        let codes = &self.cols[0];
        let stepped = codes.windows(2).all(|w| w[1] == w[0].wrapping_add(1));
        stepped.then(|| codes.first().copied().unwrap_or(0))
    }

    /// Is row `i`'s key equal to `other`'s row `j`?
    #[inline]
    fn eq(&self, i: usize, other: &Keys, j: usize) -> bool {
        self.cols.iter().zip(&other.cols).all(|(a, b)| a[i] == b[j])
    }

    /// Group rows by key, groups numbered in first-occurrence order: calls
    /// `each(group)` for every row in turn and returns each group's first
    /// row. The flat-chain index links the groups that share a hash.
    fn groups(&self, m: &mut NodeMetrics, mut each: impl FnMut(u32)) -> Vec<u32> {
        m.hashed(self.rows);
        let verify = self.hashes.is_some();
        let mut head: HashMap<u64, u32, CodeHash> = HashMap::with_hasher(CodeHash);
        let mut next: Vec<u32> = Vec::new();
        let mut first: Vec<u32> = Vec::new();
        for (i, &h) in self.hashes().iter().enumerate() {
            let slot = head.entry(h).or_insert(NO_ROW);
            let mut g = *slot;
            while verify && g != NO_ROW && !self.eq(i, self, first[g as usize] as usize) {
                g = next[g as usize];
            }
            if g == NO_ROW {
                g = first.len() as u32;
                first.push(i as u32);
                next.push(*slot);
                *slot = g;
            }
            each(g);
        }
        first
    }
}

/// End of a flat chain.
const NO_ROW: u32 = u32::MAX;

/// The typed key kernel for a two-input operator: [`Keys`] for columns
/// `pcols` of the probed input and columns `bcols` of the build input,
/// with the probe's strings translated into the build side's code space
/// unless both share a dictionary. Join keys are typed alike
/// (`infer_schema`), and a column's variant is its type, so a key in two
/// variants is an internal error.
fn key_codes(
    (probe, pcols): (&Rel, &[usize]),
    (build, bcols): (&Rel, &[usize]),
) -> Result<(Keys, Keys), EngineError> {
    let mut pk = Vec::with_capacity(pcols.len());
    let mut bk = Vec::with_capacity(bcols.len());
    for (&pc, &bc) in pcols.iter().zip(bcols) {
        let (pch, bch) = (probe.col(pc).as_ref(), build.col(bc).as_ref());
        bk.push(chunk_codes(build, bch));
        pk.push(match (pch, bch) {
            (
                ColVec::Str { codes, dict },
                ColVec::Str {
                    codes: bcodes,
                    dict: bdict,
                },
            ) if !Arc::ptr_eq(dict, bdict) => {
                translated_codes((probe, codes, dict), (build, bcodes, bdict))
            }
            (p, b) if p.ty() == b.ty() => chunk_codes(probe, p),
            _ => {
                return Err(EngineError::Eval(format!(
                    "internal: key columns {} and {} are stored in different variants",
                    probe.schema.cols()[pc].0,
                    build.schema.cols()[bc].0
                )))
            }
        });
    }
    Ok((Keys::new(pk, probe.len()), Keys::new(bk, build.len())))
}

/// A build input's index. A single-column key whose build codes run
/// `base, base + 1, …` (wrapping) is **positional**: build row `j` holds
/// code `base + j`, so each key is unique and a probe code's one match is
/// its offset from `base` — no hash table. Any other key gets a
/// flat-chain hash index: one map entry per distinct hash plus a `next`
/// link per build row — no per-key `Vec` allocations. Built in reverse so
/// each chain links ascending build rows, and probes emit matches in
/// build order.
struct KeyIndex {
    keys: Keys,
    /// The first build code of a positional index.
    base: Option<u64>,
    /// Empty for a positional index.
    head: HashMap<u64, u32, CodeHash>,
    next: Vec<u32>,
}

impl KeyIndex {
    fn new(keys: Keys, m: &mut NodeMetrics) -> KeyIndex {
        let mut index = KeyIndex {
            base: keys.run_base(),
            keys,
            head: HashMap::with_hasher(CodeHash),
            next: Vec::new(),
        };
        if index.base.is_none() {
            let rows = index.keys.rows;
            m.hashed(rows);
            index.head.reserve(rows);
            index.next = vec![NO_ROW; rows];
            for (j, &h) in index.keys.hashes().iter().enumerate().rev() {
                let slot = index.head.entry(h).or_insert(NO_ROW);
                index.next[j] = *slot;
                *slot = j as u32;
            }
        }
        index
    }

    /// Build rows whose key equals `probe`'s row `i`, ascending.
    #[inline]
    fn matches<'a>(&'a self, probe: &'a Keys, i: usize) -> impl Iterator<Item = u32> + 'a {
        let verify = self.keys.hashes.is_some();
        let mut j = match self.base {
            Some(base) => {
                let off = probe.cols[0][i].wrapping_sub(base);
                if off < self.keys.rows as u64 {
                    off as u32
                } else {
                    NO_ROW
                }
            }
            None => self.head.get(&probe.hashes()[i]).copied().unwrap_or(NO_ROW),
        };
        std::iter::from_fn(move || {
            while j != NO_ROW {
                let cur = j;
                // a positional match has no chain
                j = self.next.get(cur as usize).copied().unwrap_or(NO_ROW);
                if !verify || probe.eq(i, &self.keys, cur as usize) {
                    return Some(cur);
                }
            }
            None
        })
    }

    #[inline]
    fn contains(&self, probe: &Keys, i: usize) -> bool {
        self.matches(probe, i).next().is_some()
    }
}

/// Multiply-shift hasher for `u64` eq-code keys. The default SipHash is
/// the measurable hot path of code-keyed joins, groupings and dedups;
/// the keys here are machine-word equality codes already, so one
/// Fibonacci multiply gives hashbrown enough spread. Not DoS-hardened —
/// use only for code-keyed maps, never for `Value`/string keys.
#[derive(Clone, Copy, Default)]
struct CodeHash;

impl std::hash::BuildHasher for CodeHash {
    type Hasher = CodeHasher;
    fn build_hasher(&self) -> CodeHasher {
        CodeHasher(0)
    }
}

struct CodeHasher(u64);

impl std::hash::Hasher for CodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        // required by the trait; every key hashed here is one `u64`
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // fold the multiply's well-mixed top bits into the bucket-index
        // low bits
        self.0 ^ (self.0 >> 32)
    }
}

/// Order-preserving `u64` sort codes for a `(column, direction)` spec —
/// one code column per sort key. Comparing codes column-by-column (then
/// the row index) reproduces `cmp_vis` plus the index tiebreak *exactly*:
/// `Value::cmp` orders doubles by `total_cmp`, whose order the sign-fold
/// bit transform below preserves bit-for-bit, and strings by dictionary
/// **rank** (dictionaries are in first-occurrence order, so the strings
/// the relation shows are ranked by sorting them). `Desc` keys are
/// bitwise-complemented. A `unit` column is one constant code.
fn sort_codes(rel: &Rel, spec: &[(usize, Dir)]) -> Vec<Vec<u64>> {
    let n = rel.len();
    let mut out = Vec::with_capacity(spec.len());
    for &(c, d) in spec {
        let mut col: Vec<u64> = Vec::with_capacity(n);
        match rel.col(c).as_ref() {
            ColVec::Int(v) => {
                col.extend((0..n).map(|i| (v[rel.raw_row(i)] as u64) ^ (1 << 63)));
            }
            ColVec::Nat(v) => col.extend((0..n).map(|i| v[rel.raw_row(i)])),
            ColVec::Bool(v) => col.extend((0..n).map(|i| v[rel.raw_row(i)] as u64)),
            ColVec::Dbl(v) => col.extend((0..n).map(|i| {
                let b = v[rel.raw_row(i)].to_bits();
                // total_cmp order: negatives reversed below positives
                if b >> 63 == 1 {
                    !b
                } else {
                    b | (1 << 63)
                }
            })),
            ColVec::Str { codes, dict } => {
                let shown: Vec<u32> = (0..n).map(|i| codes[rel.raw_row(i)]).collect();
                let mut order = shown.clone();
                order.sort_unstable();
                order.dedup();
                order.sort_unstable_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
                let mut rank = vec![0u64; dict.len()];
                for (r, &d) in order.iter().enumerate() {
                    rank[d as usize] = r as u64;
                }
                col.extend(shown.iter().map(|&c| rank[c as usize]));
            }
            ColVec::Other(_) => col.resize(n, 0),
        }
        if matches!(d, Dir::Desc) {
            for c in col.iter_mut() {
                *c = !*c;
            }
        }
        out.push(col);
    }
    out
}

/// Sort the index set `0..n` by `cmp`, which must break ties on the
/// index itself: the order is then total and the sort deterministic.
fn sort_indices(n: usize, m: &mut NodeMetrics, cmp: impl Fn(u32, u32) -> Ordering) -> Vec<u32> {
    m.sorted(n);
    let mut idxs: Vec<u32> = (0..n as u32).collect();
    idxs.sort_unstable_by(|&a, &b| cmp(a, b));
    idxs
}

/// Sort visible row indices by pre-computed code columns, original index
/// as the final tiebreak (the typed twin of the `cmp_vis` comparators).
/// `None` when the rows are in that order already: one linear pass,
/// stopping at the first row out of order, finds them, and no sort runs.
fn sort_by_codes(n: usize, cols: &[Vec<u64>], m: &mut NodeMetrics) -> Option<Vec<u32>> {
    let cmp = |a: u32, b: u32| {
        for col in cols {
            match col[a as usize].cmp(&col[b as usize]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        a.cmp(&b)
    };
    let in_order = match cols {
        [col] => col.windows(2).all(|w| w[0] <= w[1]),
        _ => (1..n as u32).all(|i| cmp(i - 1, i) == Ordering::Less),
    };
    (!in_order).then(|| sort_indices(n, m, cmp))
}

fn eval_node(
    snap: &Snapshot<'_>,
    plan: &Plan,
    id: NodeId,
    schemas: &[Schema],
    results: &[Option<Rel>],
    mode: VecMode,
    m: &mut NodeMetrics,
) -> Result<Rel, EngineError> {
    let out_schema = schemas[id.index()].clone();
    // the scalar arms are the oracle's, and nothing else's
    let oracle = mode == VecMode::Off;
    let child = |c: NodeId| child(results, c);
    match plan.node(id) {
        Node::TableRef { name, cols, .. } => {
            // base tables resolve in the pinned catalog; a miss falls
            // back to the system tables (`ferry.*` — a live snapshot of
            // telemetry/catalog/storage state materialised per scan)
            let sys_owned;
            let table = match snap.table(name) {
                Some(t) => t,
                None => match snap.system_table(name) {
                    Some(t) => {
                        sys_owned = t;
                        &sys_owned
                    }
                    None => return Err(EngineError::NoSuchTable(name.clone())),
                },
            };
            if table.schema.len() != cols.len() {
                return Err(EngineError::TableMismatch {
                    table: name.clone(),
                    detail: format!(
                        "plan expects {} columns, table has {}",
                        cols.len(),
                        table.schema.len()
                    ),
                });
            }
            for ((plan_col, plan_ty), (cat_col, cat_ty)) in cols.iter().zip(table.schema.cols()) {
                if plan_ty != cat_ty {
                    return Err(EngineError::TableMismatch {
                        table: name.clone(),
                        detail: format!("column {cat_col} is {cat_ty}, plan column {plan_col} expects {plan_ty}"),
                    });
                }
            }
            // zero-copy scan: the result shares the catalog's columns
            Ok(table.rows.with_schema(out_schema))
        }
        // zero-copy: every execution shares the plan's literal columns
        Node::Lit { rel } => Ok(rel.with_schema(out_schema)),
        Node::Attach { input, value, .. } => {
            let rel = child(*input);
            // one constant column beside the input's
            if !oracle {
                let mut cols = dense_cols(rel);
                let consts = std::iter::repeat_n(value, rel.len());
                cols.push(Arc::new(ColVec::from_cells(value.ty(), consts)));
                return Ok(Rel::from_cols(out_schema, rel.len(), cols));
            }
            let mut rows = Vec::with_capacity(rel.len());
            for i in 0..rel.len() {
                let mut r = rel.row(i);
                r.push(value.clone());
                rows.push(r);
            }
            Ok(Rel::new(out_schema, rows))
        }
        Node::Project { input, cols } => {
            // the input's column `Arc`s, picked — no row is touched
            let rel = child(*input);
            let idxs: Vec<usize> = cols
                .iter()
                .map(|(_, old)| {
                    rel.schema
                        .index_of(old)
                        .ok_or_else(|| no_such_col(&rel.schema, old))
                })
                .collect::<Result<_, _>>()?;
            Ok(rel.project(out_schema, &idxs))
        }
        Node::Compute { input, expr, .. } => {
            let rel = child(*input);
            // one kernel into one new column beside the input's
            if !oracle {
                let ty = out_schema.cols().last().map_or(Ty::Unit, |(_, t)| *t);
                let (col, batches) = vec_eval::compute(expr, rel, ty)?;
                m.batches += batches;
                let mut cols = dense_cols(rel);
                cols.push(Arc::new(col));
                return Ok(Rel::from_cols(out_schema, rel.len(), cols));
            }
            let bound = bind(expr, &rel.schema)?;
            let mut rows = Vec::with_capacity(rel.len());
            for i in 0..rel.len() {
                let mut r = rel.row(i);
                r.push(eval(&bound, &r)?);
                rows.push(r);
            }
            Ok(Rel::new(out_schema, rows))
        }
        Node::Select { input, pred } => {
            // selection vector over the shared columns
            let rel = child(*input);
            if !oracle {
                let (keep, batches) = vec_eval::filter(pred, rel)?;
                m.batches += batches;
                return Ok(rel.with_sel(keep).with_schema(out_schema));
            }
            let bound = bind(pred, &rel.schema)?;
            let mut keep = Vec::new();
            for i in 0..rel.len() {
                if eval(&bound, &rel.row(i))? == Value::Bool(true) {
                    keep.push(rel.raw_row(i) as u32);
                }
            }
            Ok(rel.with_sel(keep).with_schema(out_schema))
        }
        Node::Distinct { input } => {
            // pass-through view keeping the first occurrence of each row
            let rel = child(*input);
            let all: Vec<usize> = (0..rel.width()).collect();
            // typed: keep each key group's first row
            if !oracle {
                let firsts = Keys::of(rel, &all).groups(m, |_| {});
                let keep = firsts.iter().map(|&i| rel.raw_row(i as usize) as u32);
                m.typed_sink(rel.len());
                return Ok(rel.with_sel(keep.collect()).with_schema(out_schema));
            }
            let mut seen: HashMap<Vec<Value>, ()> = HashMap::with_capacity(rel.len());
            let mut keep = Vec::new();
            for i in 0..rel.len() {
                if seen.insert(key_of(rel, i, &all), ()).is_none() {
                    keep.push(rel.raw_row(i) as u32);
                }
            }
            Ok(rel.with_sel(keep).with_schema(out_schema))
        }
        Node::UnionAll { left, right } => {
            let l = child(*left);
            let r = child(*right);
            if r.is_empty() {
                return Ok(l.with_schema(out_schema));
            }
            if l.is_empty() {
                return Ok(r.with_schema(out_schema));
            }
            let (lraw, rraw) = (raw_rows(l), raw_rows(r));
            let cols = (0..l.width())
                .map(|c| {
                    let mut col = l.col(c).gather(&lraw);
                    col.extend_gather(r.col(c), &rraw);
                    Arc::new(col)
                })
                .collect();
            Ok(Rel::from_cols(out_schema, l.len() + r.len(), cols))
        }
        Node::Difference { left, right } => {
            let l = child(*left);
            let r = child(*right);
            let all: Vec<usize> = (0..l.width()).collect();
            // typed: the first row of each left key group no right row has
            if !oracle {
                let (lk, rk) = key_codes((l, &all), (r, &all))?;
                let exclude = KeyIndex::new(rk, m);
                let keep = lk
                    .groups(m, |_| {})
                    .into_iter()
                    .filter(|&i| !exclude.contains(&lk, i as usize))
                    .map(|i| l.raw_row(i as usize) as u32);
                m.typed_sink(l.len());
                return Ok(l.with_sel(keep.collect()).with_schema(out_schema));
            }
            let exclude: HashMap<Vec<Value>, ()> =
                (0..r.len()).map(|j| (key_of(r, j, &all), ())).collect();
            let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
            let mut keep = Vec::new();
            for i in 0..l.len() {
                let key = key_of(l, i, &all);
                if !exclude.contains_key(&key) && seen.insert(key, ()).is_none() {
                    keep.push(l.raw_row(i) as u32);
                }
            }
            Ok(l.with_sel(keep).with_schema(out_schema))
        }
        Node::CrossJoin { left, right } => Ok(cross_join(child(*left), child(*right), out_schema)),
        Node::EquiJoin { left, right, on } => {
            let l = child(*left);
            let r = child(*right);
            let li = resolve_cols(&l.schema, &on.left)?;
            let ri = resolve_cols(&r.schema, &on.right)?;
            // typed probe: hash and compare u64 key codes, not `Value`
            // cells; the output is gathered at the matching (left, right)
            // visible rows, probe row then build row
            if !oracle {
                let (lk, rk) = key_codes((l, &li), (r, &ri))?;
                let index = KeyIndex::new(rk, m);
                let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
                for i in 0..l.len() {
                    for j in index.matches(&lk, i) {
                        lrows.push(i as u32);
                        rrows.push(j);
                    }
                }
                m.typed_sink(l.len());
                return Ok(join_output(l, r, lrows, rrows, out_schema));
            }
            // scalar hash join: build on the right, probe with the left
            let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(r.len());
            for j in 0..r.len() {
                index.entry(key_of(r, j, &ri)).or_default().push(j);
            }
            let mut rows = Vec::new();
            for i in 0..l.len() {
                for &j in index.get(&key_of(l, i, &li)).into_iter().flatten() {
                    let mut row = l.row(i);
                    row.extend(r.row(j));
                    rows.push(row);
                }
            }
            Ok(Rel::new(out_schema, rows))
        }
        Node::SemiJoin { left, right, on } | Node::AntiJoin { left, right, on } => {
            let anti = matches!(plan.node(id), Node::AntiJoin { .. });
            let l = child(*left);
            let r = child(*right);
            let li = resolve_cols(&l.schema, &on.left)?;
            let ri = resolve_cols(&r.schema, &on.right)?;
            // typed membership probe (see EquiJoin)
            if !oracle {
                let (lk, rk) = key_codes((l, &li), (r, &ri))?;
                let index = KeyIndex::new(rk, m);
                let keep = (0..l.len())
                    .filter(|&i| index.contains(&lk, i) != anti)
                    .map(|i| l.raw_row(i) as u32)
                    .collect();
                m.typed_sink(l.len());
                return Ok(l.with_sel(keep).with_schema(out_schema));
            }
            let keys: HashMap<Vec<Value>, ()> =
                (0..r.len()).map(|j| (key_of(r, j, &ri), ())).collect();
            // the output is a selection vector over the left input
            let keep = (0..l.len())
                .filter(|&i| keys.contains_key(&key_of(l, i, &li)) != anti)
                .map(|i| l.raw_row(i) as u32)
                .collect();
            Ok(l.with_sel(keep).with_schema(out_schema))
        }
        Node::ThetaJoin { left, right, pred } => {
            // the predicate on each (left, right) pair of visible rows; the
            // output is gathered at the matching pairs only
            let l = child(*left);
            let r = child(*right);
            let bound = bind(pred, &l.schema.concat(&r.schema))?;
            let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
            for i in 0..l.len() {
                let mut row = l.row(i);
                for j in 0..r.len() {
                    row.truncate(l.width());
                    row.extend((0..r.width()).map(|c| r.cell(j, c)));
                    if eval(&bound, &row)? == Value::Bool(true) {
                        lrows.push(i as u32);
                        rrows.push(j as u32);
                    }
                }
            }
            Ok(join_output(l, r, lrows, rrows, out_schema))
        }
        Node::RowNum {
            input, part, order, ..
        } => {
            let rel = child(*input);
            windowed(rel, part, order, out_schema, WindowKind::RowNum, oracle, m)
        }
        Node::RowRank { input, order, .. } => {
            let rel = child(*input);
            windowed(rel, &[], order, out_schema, WindowKind::Rank, oracle, m)
        }
        Node::DenseRank {
            input, part, order, ..
        } => {
            let rel = child(*input);
            windowed(
                rel,
                part,
                order,
                out_schema,
                WindowKind::DenseRank,
                oracle,
                m,
            )
        }
        Node::GroupBy { input, keys, aggs } => {
            let rel = child(*input);
            let ki = resolve_cols(&rel.schema, keys)?;
            let ai: Vec<Option<usize>> = aggs
                .iter()
                .map(|a| {
                    a.input
                        .as_ref()
                        .map(|c| {
                            rel.schema
                                .index_of(c)
                                .ok_or_else(|| no_such_col(&rel.schema, c))
                        })
                        .transpose()
                })
                .collect::<Result<_, _>>()?;
            if !oracle {
                m.typed_sink(rel.len());
                return group_by_typed(rel, &ki, aggs, &ai, out_schema, m);
            }
            // scalar: group rows by key, first-occurrence order
            Ok(Rel::new(out_schema, group_by_scalar(rel, &ki, aggs, &ai)?))
        }
        Node::Serialize { input, order, cols } => {
            // order + projection as a pure view: a sorted selection vector
            // over the picked columns — the bundle's result cells are the
            // input's own
            let rel = child(*input);
            let spec = resolve_sort(&rel.schema, order)?;
            // typed sort codes (see `sort_codes`); the oracle compares
            // `Value`s
            let idxs = if oracle {
                Some(sort_indices(rel.len(), m, |a, b| {
                    cmp_vis(rel, a, b, &spec).then(a.cmp(&b))
                }))
            } else {
                m.typed_sink(rel.len());
                sort_by_codes(rel.len(), &sort_codes(rel, &spec), m)
            };
            let picks = resolve_cols(&rel.schema, cols)?;
            let Some(idxs) = idxs else {
                return Ok(rel.project(out_schema, &picks));
            };
            let sel = idxs.into_iter().map(|i| rel.raw_row(i as usize) as u32);
            Ok(rel.with_sel(sel.collect()).project(out_schema, &picks))
        }
    }
}

#[derive(Clone, Copy)]
enum WindowKind {
    RowNum,
    Rank,
    DenseRank,
}

/// Shared implementation of `ROW_NUMBER`/`RANK`/`DENSE_RANK`.
///
/// Rows are ordered by `(part, order, original index)` — the original index
/// as final tiebreak makes numbering deterministic when the order spec has
/// ties, matching what loop-lifting assumes of the back-end ("the database
/// system is free to consider these bindings ... in any order" only where
/// the result is order-insensitive). Numbering is one scan over the
/// sorted indices.
fn windowed(
    rel: &Rel,
    part: &[ColName],
    order: &[SortSpec],
    out_schema: Schema,
    kind: WindowKind,
    oracle: bool,
    m: &mut NodeMetrics,
) -> Result<Rel, EngineError> {
    let pi: Vec<(usize, Dir)> = resolve_cols(&rel.schema, part)?
        .into_iter()
        .map(|c| (c, Dir::Asc))
        .collect();
    let spec = resolve_sort(&rel.schema, order)?;
    // one sort key, partition columns first; the numbering scan tests its
    // partition span `0..np` and its order span `np..` for boundaries
    let full: Vec<(usize, Dir)> = pi.iter().chain(&spec).copied().collect();
    let spans = (pi.len(), full.len());
    if oracle {
        let idxs = Some(sort_indices(rel.len(), m, |a, b| {
            cmp_vis(rel, a, b, &full).then(a.cmp(&b))
        }));
        let same = |p: usize, i: usize, span: Range<usize>| {
            full[span]
                .iter()
                .all(|&(c, _)| rel.cell(p, c) == rel.cell(i, c))
        };
        let nums = number(rel.len(), idxs.as_deref(), spans, kind, same);
        return Ok(numbered(rel, idxs, nums, out_schema));
    }
    // order-preserving u64 sort codes replace per-pair `Value`
    // comparisons, and drive the boundary tests too (code equality
    // coincides with `Value` equality by construction)
    m.typed_sink(rel.len());
    let codes = sort_codes(rel, &full);
    let idxs = sort_by_codes(rel.len(), &codes, m);
    let same = |p: usize, i: usize, span: Range<usize>| codes[span].iter().all(|c| c[p] == c[i]);
    let nums = match kind {
        // unpartitioned row numbers count down the rows in sorted order
        WindowKind::RowNum if pi.is_empty() => (1..=rel.len() as u64).collect(),
        _ => number(rel.len(), idxs.as_deref(), spans, kind, same),
    };
    Ok(numbered(rel, idxs, nums, out_schema))
}

/// The numbers of `n` visible rows taken in sorted order `idxs` (`None`:
/// in their own order). `same(p, i, span)` says whether rows `p` and `i`
/// agree on the sort columns `span` of the partition span `0..np` or the
/// order span `np..width`.
fn number(
    n: usize,
    idxs: Option<&[u32]>,
    (np, width): (usize, usize),
    kind: WindowKind,
    same: impl Fn(usize, usize, Range<usize>) -> bool,
) -> Vec<u64> {
    let mut nums: Vec<u64> = Vec::with_capacity(n);
    let mut prev: Option<usize> = None;
    let mut row_number = 0u64;
    let mut rank_value = 0u64;
    for k in 0..n {
        let i = idxs.map_or(k, |v| v[k] as usize);
        let same_part = prev.is_some_and(|p| same(p, i, 0..np));
        if !same_part {
            row_number = 0;
            rank_value = 0;
        }
        row_number += 1;
        // a row number never looks at the order columns
        let fresh_order = || !same_part || prev.is_some_and(|p| !same(p, i, np..width));
        let num = match kind {
            WindowKind::RowNum => row_number,
            WindowKind::Rank => {
                if fresh_order() {
                    rank_value = row_number;
                }
                rank_value
            }
            WindowKind::DenseRank => {
                if fresh_order() {
                    rank_value += 1;
                }
                rank_value
            }
        };
        nums.push(num);
        prev = Some(i);
    }
    nums
}

/// `rel`'s columns gathered in sorted order `idxs` (`None`: in their own
/// order), plus the numbers `nums`.
fn numbered(rel: &Rel, idxs: Option<Vec<u32>>, nums: Vec<u64>, out_schema: Schema) -> Rel {
    let n = nums.len();
    let mut cols = match idxs {
        Some(idxs) => rel.gather(idxs),
        None => dense_cols(rel),
    };
    cols.push(Arc::new(ColVec::Nat(nums)));
    Rel::from_cols(out_schema, n, cols)
}

/// Aggregate accumulator.
enum Acc {
    Count(i64),
    SumInt(i64),
    SumDbl(f64),
    SumNat(u64),
    SumEmpty, // sum before the first value fixes the numeric domain
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
    All(bool),
    Any(bool),
}

impl Acc {
    fn new(fun: AggFun) -> Acc {
        match fun {
            AggFun::CountAll => Acc::Count(0),
            AggFun::Sum => Acc::SumEmpty,
            AggFun::Min => Acc::Min(None),
            AggFun::Max => Acc::Max(None),
            AggFun::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFun::All => Acc::All(true),
            AggFun::Any => Acc::Any(false),
        }
    }

    fn feed(&mut self, v: Option<&Value>) -> Result<(), EngineError> {
        let overflow = || EngineError::Eval("overflow in SUM".into());
        match self {
            Acc::Count(n) => *n += 1,
            Acc::SumEmpty => {
                *self = match v.expect("validated") {
                    Value::Int(i) => Acc::SumInt(*i),
                    Value::Dbl(d) => Acc::SumDbl(*d),
                    Value::Nat(n) => Acc::SumNat(*n),
                    v => return Err(EngineError::Eval(format!("SUM over {v}"))),
                }
            }
            Acc::SumInt(s) => {
                let i = v.and_then(|v| v.as_int()).ok_or_else(overflow)?;
                *s = s.checked_add(i).ok_or_else(overflow)?;
            }
            Acc::SumDbl(s) => *s += v.and_then(|v| v.as_dbl()).unwrap_or(0.0),
            Acc::SumNat(s) => {
                let n = v.and_then(|v| v.as_nat()).ok_or_else(overflow)?;
                *s = s.checked_add(n).ok_or_else(overflow)?;
            }
            Acc::Min(m) => {
                let v = v.expect("validated");
                if m.as_ref().is_none_or(|m| v < m) {
                    *m = Some(v.clone());
                }
            }
            Acc::Max(m) => {
                let v = v.expect("validated");
                if m.as_ref().is_none_or(|m| v > m) {
                    *m = Some(v.clone());
                }
            }
            Acc::Avg { sum, n } => {
                let d = match v.expect("validated") {
                    Value::Int(i) => *i as f64,
                    Value::Dbl(d) => *d,
                    v => return Err(EngineError::Eval(format!("AVG over {v}"))),
                };
                *sum += d;
                *n += 1;
            }
            Acc::All(b) => *b &= v.and_then(|v| v.as_bool()).unwrap_or(true),
            Acc::Any(b) => *b |= v.and_then(|v| v.as_bool()).unwrap_or(false),
        }
        Ok(())
    }

    fn finish(self) -> Result<Value, EngineError> {
        match self {
            Acc::Count(n) => Ok(Value::Int(n)),
            Acc::SumInt(s) => Ok(Value::Int(s)),
            Acc::SumDbl(s) => Ok(Value::Dbl(s)),
            Acc::SumNat(s) => Ok(Value::Nat(s)),
            // SUM over an empty group: groups only exist for non-empty
            // inputs, so this is unreachable via GroupBy, but keep it total.
            Acc::SumEmpty => Ok(Value::Int(0)),
            Acc::Min(m) | Acc::Max(m) => {
                m.ok_or_else(|| EngineError::Eval("MIN/MAX over empty group".into()))
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Err(EngineError::Eval("AVG over empty group".into()))
                } else {
                    Ok(Value::Dbl(sum / n as f64))
                }
            }
            Acc::All(b) => Ok(Value::Bool(b)),
            Acc::Any(b) => Ok(Value::Bool(b)),
        }
    }
}

/// Vectorized aggregate state: one accumulator slot per group, fed
/// column-at-a-time from the input's typed chunk.
enum VAgg {
    Count(Vec<i64>),
    SumInt(Vec<i64>),
    SumNat(Vec<u64>),
    SumDbl(Vec<f64>),
    /// Column row of the group's current best cell (`u32::MAX` until
    /// the group's first row arrives). Works for every chunk type via
    /// [`ColVec::cmp_cells`], and finishing is a single `value()` call —
    /// no per-row `Value` clones along the way.
    MinMax {
        max: bool,
        best: Vec<u32>,
    },
    Avg {
        sum: Vec<f64>,
        n: Vec<i64>,
    },
    All(Vec<bool>),
    Any(Vec<bool>),
}

/// Typed group-by: key rows by `u64` eq-codes, then run each aggregate as
/// a tight loop over its typed column, and gather the key columns at each
/// group's first row. `infer_schema` admits only the aggregate/type pairs
/// planned below, so any other pair is an internal error.
fn group_by_typed(
    rel: &Rel,
    ki: &[usize],
    aggs: &[Aggregate],
    ai: &[Option<usize>],
    out_schema: Schema,
    m: &mut NodeMetrics,
) -> Result<Rel, EngineError> {
    let n = rel.len();
    // per-aggregate plan: the input column plus the accumulator kind its
    // type admits
    let mut chunks: Vec<Option<&ColVec>> = Vec::with_capacity(aggs.len());
    let mut states: Vec<VAgg> = Vec::with_capacity(aggs.len());
    for (a, idx) in aggs.iter().zip(ai) {
        let chunk = idx.map(|c| rel.col(c).as_ref());
        let state = match (a.fun, chunk) {
            (AggFun::CountAll, _) => VAgg::Count(Vec::new()),
            (AggFun::Sum, Some(ColVec::Int(_))) => VAgg::SumInt(Vec::new()),
            (AggFun::Sum, Some(ColVec::Nat(_))) => VAgg::SumNat(Vec::new()),
            (AggFun::Sum, Some(ColVec::Dbl(_))) => VAgg::SumDbl(Vec::new()),
            (AggFun::Min, Some(_)) => VAgg::MinMax {
                max: false,
                best: Vec::new(),
            },
            (AggFun::Max, Some(_)) => VAgg::MinMax {
                max: true,
                best: Vec::new(),
            },
            (AggFun::Avg, Some(ColVec::Int(_) | ColVec::Dbl(_))) => VAgg::Avg {
                sum: Vec::new(),
                n: Vec::new(),
            },
            (AggFun::All, Some(ColVec::Bool(_))) => VAgg::All(Vec::new()),
            (AggFun::Any, Some(ColVec::Bool(_))) => VAgg::Any(Vec::new()),
            (fun, _) => {
                return Err(EngineError::Eval(format!(
                    "internal: no typed {fun:?} over {:?}",
                    a.input
                )))
            }
        };
        chunks.push(chunk);
        states.push(state);
    }
    // phase 1: group ids in first-occurrence order, keyed on eq-codes.
    // Global aggregate: one group holding every row (scalar semantics: no
    // rows, no group)
    let (gid, first_row) = if ki.is_empty() {
        (vec![0; n], vec![0; n.min(1)])
    } else {
        let keys = Keys::of(rel, ki);
        let mut gid = Vec::with_capacity(n);
        let firsts = keys.groups(m, |g| gid.push(g));
        (gid, firsts)
    };
    let ng = first_row.len();
    let raws = raw_rows(rel);
    // phase 2: batch aggregation, one typed pass per aggregate
    let overflow = || EngineError::Eval("overflow in SUM".into());
    for (state, chunk) in states.iter_mut().zip(&chunks) {
        match state {
            VAgg::Count(c) => {
                c.resize(ng, 0);
                for &g in &gid {
                    c[g as usize] += 1;
                }
            }
            VAgg::SumInt(s) => {
                s.resize(ng, 0);
                let v = chunk.and_then(ColVec::as_int).expect("planned");
                for (k, &g) in gid.iter().enumerate() {
                    let slot = &mut s[g as usize];
                    *slot = slot.checked_add(v[raws[k] as usize]).ok_or_else(overflow)?;
                }
            }
            VAgg::SumNat(s) => {
                s.resize(ng, 0);
                let v = chunk.and_then(ColVec::as_nat).expect("planned");
                for (k, &g) in gid.iter().enumerate() {
                    let slot = &mut s[g as usize];
                    *slot = slot.checked_add(v[raws[k] as usize]).ok_or_else(overflow)?;
                }
            }
            VAgg::SumDbl(s) => {
                // scalar Sum folds from the group's first value, so a group
                // of only `-0.0`s sums to `-0.0`; seeding with `-0.0` (the
                // additive identity that preserves the sign of zero sums)
                // reproduces that bit-for-bit
                s.resize(ng, -0.0);
                let v = chunk.and_then(ColVec::as_dbl).expect("planned");
                for (k, &g) in gid.iter().enumerate() {
                    s[g as usize] += v[raws[k] as usize];
                }
            }
            VAgg::MinMax { max, best } => {
                best.resize(ng, u32::MAX);
                let c = chunk.expect("planned");
                for (k, &g) in gid.iter().enumerate() {
                    let raw = raws[k];
                    let b = &mut best[g as usize];
                    if *b == u32::MAX {
                        *b = raw;
                    } else {
                        let o = c.cmp_cells(raw as usize, *b as usize);
                        // strict comparison: ties keep the first-seen cell,
                        // matching the scalar accumulator
                        if o == if *max {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        } {
                            *b = raw;
                        }
                    }
                }
            }
            VAgg::Avg { sum, n: cnt } => {
                sum.resize(ng, 0.0);
                cnt.resize(ng, 0);
                match chunk.expect("planned") {
                    ColVec::Int(v) => {
                        for (k, &g) in gid.iter().enumerate() {
                            sum[g as usize] += v[raws[k] as usize] as f64;
                            cnt[g as usize] += 1;
                        }
                    }
                    ColVec::Dbl(v) => {
                        for (k, &g) in gid.iter().enumerate() {
                            sum[g as usize] += v[raws[k] as usize];
                            cnt[g as usize] += 1;
                        }
                    }
                    _ => unreachable!("planned above"),
                }
            }
            VAgg::All(bs) => {
                bs.resize(ng, true);
                let v = chunk.and_then(ColVec::as_bool).expect("planned");
                for (k, &g) in gid.iter().enumerate() {
                    bs[g as usize] &= v[raws[k] as usize];
                }
            }
            VAgg::Any(bs) => {
                bs.resize(ng, false);
                let v = chunk.and_then(ColVec::as_bool).expect("planned");
                for (k, &g) in gid.iter().enumerate() {
                    bs[g as usize] |= v[raws[k] as usize];
                }
            }
        }
    }
    // phase 3: one output column per key and per aggregate
    let firsts: Vec<u32> = first_row.iter().map(|&i| raws[i as usize]).collect();
    let mut cols: Vec<Arc<ColVec>> = ki
        .iter()
        .map(|&c| Arc::new(rel.col(c).gather(&firsts)))
        .collect();
    for (state, chunk) in states.into_iter().zip(chunks) {
        cols.push(Arc::new(match state {
            VAgg::Count(c) | VAgg::SumInt(c) => ColVec::Int(c),
            VAgg::SumNat(s) => ColVec::Nat(s),
            VAgg::SumDbl(s) => ColVec::Dbl(s),
            VAgg::MinMax { best, .. } => chunk.expect("planned").gather(&best),
            VAgg::Avg { sum, n } => {
                ColVec::Dbl(sum.iter().zip(n).map(|(s, n)| s / n as f64).collect())
            }
            VAgg::All(bs) | VAgg::Any(bs) => ColVec::Bool(bs),
        }));
    }
    Ok(Rel::from_cols(out_schema, first_row.len(), cols))
}

/// The scalar group-by loop: one output row per group, in
/// first-occurrence group order.
fn group_by_scalar(
    rel: &Rel,
    ki: &[usize],
    aggs: &[Aggregate],
    ai: &[Option<usize>],
) -> Result<Vec<Row>, EngineError> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    for i in 0..rel.len() {
        let key = key_of(rel, i, ki);
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            aggs.iter().map(|a| Acc::new(a.fun)).collect()
        });
        for (acc, idx) in accs.iter_mut().zip(ai) {
            acc.feed(idx.map(|c| rel.cell(i, c)).as_ref())?;
        }
    }
    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group present");
        let mut row = key;
        for acc in accs {
            row.push(acc.finish()?);
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferry_algebra::plan::cn;
    use ferry_algebra::{JoinCols, Ty};

    /// Two relations whose string dictionaries number shared strings
    /// differently and hold strings the other lacks; duplicate keys on both
    /// sides, `-0.0` beside `0.0`, `NaN` beside itself.
    fn inputs() -> (Rel, Rel) {
        let schema = Schema::of(&[("x", Ty::Int), ("s", Ty::Str), ("d", Ty::Dbl)]);
        let row = |x: i64, s: &str, d: f64| vec![Value::Int(x), Value::str(s), Value::Dbl(d)];
        let l = Rel::new(
            schema.clone(),
            vec![
                row(1, "a", 0.0),
                row(2, "b", -0.0),
                row(1, "a", 0.0),
                row(3, "z", f64::NAN),
                row(2, "a", -0.0),
                row(1, "b", f64::NAN),
                row(3, "z", f64::NAN),
            ],
        );
        let r = Rel::new(
            schema,
            vec![
                row(2, "b", 0.0),
                row(1, "a", 0.0),
                row(1, "b", f64::NAN),
                row(2, "b", -0.0),
                row(1, "a", 0.0),
                row(4, "y", 1.0),
            ],
        );
        (l, r)
    }

    /// Every row's hash forced equal, so only verification tells keys apart.
    fn collide(mut keys: Keys) -> Keys {
        keys.hashes = Some(vec![0; keys.rows]);
        keys
    }

    /// Scalar grouping: each row's group id in first-occurrence order.
    fn scalar_gids(rel: &Rel, cols: &[usize]) -> Vec<u32> {
        let mut ids: HashMap<Vec<Value>, u32> = HashMap::new();
        (0..rel.len())
            .map(|i| {
                let next = ids.len() as u32;
                *ids.entry(key_of(rel, i, cols)).or_insert(next)
            })
            .collect()
    }

    #[test]
    fn colliding_hashes_never_change_a_result() {
        let (l, r) = inputs();
        for cols in [vec![0], vec![1], vec![2], vec![0, 1], vec![0, 1, 2]] {
            let (lk, rk) = key_codes((&l, &cols), (&r, &cols)).expect("typed keys");
            let m = &mut NodeMetrics::default();
            let (lk, index) = (collide(lk), KeyIndex::new(collide(rk), m));
            let eq = |i: usize, j: usize| key_of(&l, i, &cols) == key_of(&r, j, &cols);
            // equi-join: probe row, then ascending build row
            let joined: Vec<(usize, u32)> = (0..l.len())
                .flat_map(|i| index.matches(&lk, i).map(move |j| (i, j)))
                .collect();
            let want: Vec<(usize, u32)> = (0..l.len())
                .flat_map(|i| {
                    (0..r.len() as u32).filter_map(move |j| eq(i, j as usize).then_some((i, j)))
                })
                .collect();
            assert_eq!(joined, want, "join {cols:?}");
            // semi/anti-join
            let semi: Vec<bool> = (0..l.len()).map(|i| index.contains(&lk, i)).collect();
            let want: Vec<bool> = (0..l.len())
                .map(|i| (0..r.len()).any(|j| eq(i, j)))
                .collect();
            assert_eq!(semi, want, "semi {cols:?}");
            // group-by: group ids; distinct: each group's first row
            let mut gid = Vec::new();
            let firsts = lk.groups(m, |g| gid.push(g));
            let want = scalar_gids(&l, &cols);
            assert_eq!(gid, want, "group-by {cols:?}");
            let want: Vec<u32> = (0..want.len())
                .filter(|&i| !want[..i].contains(&want[i]))
                .map(|i| i as u32)
                .collect();
            assert_eq!(firsts, want, "distinct {cols:?}");
            // difference: first rows of the left groups no right row has
            let keep: Vec<u32> = firsts
                .iter()
                .copied()
                .filter(|&i| !index.contains(&lk, i as usize))
                .collect();
            let want: Vec<u32> = want
                .into_iter()
                .filter(|&i| !(0..r.len()).any(|j| eq(i as usize, j)))
                .collect();
            assert_eq!(keep, want, "difference {cols:?}");
        }
    }

    /// The hash path for `keys`: hashes that are the codes themselves keep
    /// every key apart but rule out a positional index.
    fn hashed(mut keys: Keys) -> Keys {
        keys.hashes = Some(keys.cols.concat());
        keys
    }

    /// Equi-, semi- and anti-join of `l` and `r` on every column, and
    /// `l` minus `r`, under `On` and under the oracle: both give the same
    /// relations. Returns the hash tables `On` built.
    fn joins_agree_with_the_oracle(schema: &Schema, l: &[Row], r: &[Row]) -> u64 {
        let renamed = Schema::new(
            (schema.cols().iter())
                .map(|(c, t)| (ColName::from(format!("r_{c}")), *t))
                .collect(),
        );
        let mut plan = Plan::new();
        let (lp, rp) = (
            plan.lit(schema.clone(), l.to_vec()),
            plan.lit(renamed.clone(), r.to_vec()),
        );
        let on = JoinCols::new(
            schema.names().cloned().collect(),
            renamed.names().cloned().collect(),
        );
        let roots = [
            plan.equi_join(lp, rp, on.clone()),
            plan.semi_join(lp, rp, on.clone()),
            plan.anti_join(lp, rp, on),
            {
                let rd = plan.lit(schema.clone(), r.to_vec());
                plan.difference(lp, rd)
            },
        ];
        let [on, off] = [VecMode::On, VecMode::Off].map(|mode| {
            let db = crate::Database::new();
            db.set_vec_mode(mode);
            let rels = db.execute_bundle(&plan, &roots).expect("runs");
            (rels, db.stats().hash_builds)
        });
        for (k, (a, b)) in on.0.iter().zip(&off.0).enumerate() {
            assert_eq!(a.rows(), b.rows(), "operator {k} over {l:?} and {r:?}");
        }
        on.1
    }

    #[test]
    fn a_positional_index_agrees_with_the_hash_path_and_the_oracle() {
        let ints = |v: &[i64]| v.iter().map(|&x| vec![Value::Int(x)]).collect::<Vec<Row>>();
        let strs = |v: &[&str]| v.iter().map(|&x| vec![Value::str(x)]).collect::<Vec<Row>>();
        let int = Schema::of(&[("k", Ty::Int)]);
        let str = Schema::of(&[("k", Ty::Str)]);
        // probes below, inside and past every run, and both extremes
        let mut probe = ints(&(-2..15).collect::<Vec<_>>());
        probe.extend(ints(&[i64::MIN, i64::MAX]));
        let words = strs(&["c", "x", "a", "b", "a", "y", "c"]);
        // (schema, probe, build, is the build's index positional?)
        let cases = [
            (&int, &probe, ints(&[3, 4, 6, 7]), false),        // a gap
            (&int, &probe, ints(&[3, 4, 4, 5]), false),        // a duplicate key
            (&int, &probe, ints(&[5, 4, 3]), false),           // a descending run
            (&int, &probe, ints(&[-1, 0, 1]), true),           // codes wrap u64::MAX -> 0
            (&int, &probe, ints(&[10, 11, 12, 13]), true),     // -2..9 below, 14.. past it
            (&int, &probe, ints(&[i64::MAX, i64::MIN]), true), // codes step across i64's sign
            (&int, &probe, ints(&[5]), true),                  // one row
            (&int, &probe, ints(&[]), true),                   // no row
            // the build's own dictionary codes run 0, 1, 2; the probe's
            // strings live in another dictionary
            (&str, &words, strs(&["a", "b", "c"]), true),
            (&str, &words, strs(&["b", "a", "b"]), false),
        ];
        for (schema, l, r, positional) in cases {
            let (lrel, rrel) = (
                Rel::new(schema.clone(), l.clone()),
                Rel::new(schema.clone(), r.clone()),
            );
            let keys = || key_codes((&lrel, &[0]), (&rrel, &[0])).expect("typed keys");
            let (m, mh) = (&mut NodeMetrics::default(), &mut NodeMetrics::default());
            let (lk, rk) = keys();
            let index = KeyIndex::new(rk, m);
            assert_eq!(index.base.is_some(), positional, "{r:?}");
            assert_eq!(m.hash_builds, u32::from(!positional), "{r:?}");
            let (lh, rh) = keys();
            let hashed_index = KeyIndex::new(hashed(rh), mh);
            assert!(hashed_index.base.is_none());
            for (i, row) in l.iter().enumerate() {
                let got: Vec<u32> = index.matches(&lk, i).collect();
                let want: Vec<u32> = hashed_index.matches(&lh, i).collect();
                assert_eq!(got, want, "probe {row:?} in {r:?}");
                assert_eq!(index.contains(&lk, i), !want.is_empty());
            }
            // the three joins and the difference build one index each,
            // and the difference groups its left input: a positional
            // index counts as no hash build
            let builds = joins_agree_with_the_oracle(schema, l, &r);
            assert_eq!(builds, 1 + 4 * u64::from(!positional), "{r:?}");
        }
        // a composite key stays hashed, though each of its columns runs
        let pair = Schema::of(&[("k", Ty::Int), ("s", Ty::Str)]);
        let row = |k: i64, s: &str| vec![Value::Int(k), Value::str(s)];
        let l = vec![row(0, "a"), row(1, "a"), row(1, "b"), row(3, "c")];
        let r = vec![row(0, "a"), row(1, "b"), row(2, "c")];
        let (lrel, rrel) = (
            Rel::new(pair.clone(), l.clone()),
            Rel::new(pair.clone(), r.clone()),
        );
        let (_, rk) = key_codes((&lrel, &[0, 1]), (&rrel, &[0, 1])).expect("typed keys");
        assert!(KeyIndex::new(rk, &mut NodeMetrics::default())
            .base
            .is_none());
        assert_eq!(joins_agree_with_the_oracle(&pair, &l, &r), 5);
    }

    /// A window or a `Serialize` over rows already in its order runs no
    /// sort, and numbers tied rows exactly as the oracle's sort does: by
    /// row position.
    #[test]
    fn ordered_input_skips_its_sort_and_numbers_ties_alike() {
        let schema = Schema::of(&[("g", Ty::Int), ("k", Ty::Str), ("x", Ty::Dbl)]);
        let row = |g, k, x| vec![Value::Int(g), Value::str(k), Value::Dbl(x)];
        // in (g, k) order, with ties on both; x tells tied rows apart
        let rows = vec![
            row(1, "b", 0.5),
            row(1, "b", -1.0),
            row(1, "c", 2.0),
            row(2, "a", 3.0),
            row(2, "a", 0.0),
            row(2, "a", -0.0),
            row(3, "a", 6.0),
        ];
        let asc = |c: &str| (cn(c), Dir::Asc);
        let desc = |c: &str| (cn(c), Dir::Desc);
        let g = || vec![cn("g")];
        // (partition, order, does it sort under `On`?)
        for (part, order, sorts) in [
            (vec![], vec![asc("g")], false),
            (vec![], vec![asc("g"), asc("k")], false),
            (g(), vec![asc("k")], false),
            (g(), vec![], false),
            (vec![], vec![], false),
            (vec![], vec![desc("g")], true),
            (vec![], vec![asc("k")], true),
            (vec![], vec![asc("x")], true),
        ] {
            let mut plan = Plan::new();
            let lit = plan.lit(schema.clone(), rows.clone());
            let mut roots = vec![
                plan.rownum(lit, "n", part.clone(), order.clone()),
                plan.dense_rank(lit, "n", part.clone(), order.clone()),
            ];
            if part.is_empty() {
                roots.push(plan.add(Node::RowRank {
                    input: lit,
                    col: cn("n"),
                    order: order.clone(),
                }));
                let cols = vec![cn("x")];
                roots.push(plan.serialize(lit, order.clone(), cols));
            }
            let [on, off] = [VecMode::On, VecMode::Off].map(|mode| {
                let db = crate::Database::new();
                db.set_vec_mode(mode);
                let rels = db.execute_bundle(&plan, &roots).expect("runs");
                (rels, db.stats().sorts)
            });
            for (a, b) in on.0.iter().zip(&off.0) {
                assert_eq!(a.rows(), b.rows(), "{part:?} {order:?}");
            }
            let want = if sorts { roots.len() as u64 } else { 0 };
            assert_eq!((on.1, off.1), (want, roots.len() as u64), "{order:?}");
        }
    }
}
