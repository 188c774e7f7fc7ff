//! Execution backends: the pluggable boundary between compiled bundles
//! and the database coprocessor.
//!
//! The paper's pipeline (Fig. 2) ends in two interchangeable tails: the
//! table-algebra plan can be executed *directly* (steps 4–5 on the
//! in-process engine), or first serialised to SQL:1999 text, shipped to
//! the database, parsed, bound and then executed — the round trip a real
//! client/server deployment performs. [`Backend`] makes that choice a
//! first-class, swappable property of a [`crate::Connection`] instead of
//! ad-hoc test plumbing: both paths consume the same [`CompiledBundle`]
//! and must produce identical relations (property-tested in
//! `ferry-sql`).
//!
//! * [`AlgebraBackend`] — dispatch each bundle member's plan straight to
//!   [`ferry_engine::Snapshot::execute`] (the default, today's path);
//! * `SqlBackend` (in the `ferry-sql` crate) — generate SQL:1999 per
//!   member, then parse → bind → execute, exercising the full textual
//!   boundary.

use crate::error::FerryError;
use crate::shred::CompiledBundle;
use ferry_algebra::{NodeId, Plan, Rel};
use ferry_engine::Snapshot;

/// One execution strategy for compiled bundles. Backends run against a
/// pinned [`Snapshot`] — one immutable catalog version — so every member
/// of a bundle (and the hit/miss bookkeeping around it) observes exactly
/// one epoch, however many writers commit meanwhile. Implementations
/// must be stateless with respect to the query (any state is
/// configuration), so a backend can be shared by every clone of a
/// `Connection` and called from many threads at once.
pub trait Backend: Send + Sync {
    /// Short name used in `explain` output and diagnostics.
    fn name(&self) -> &str;

    /// Execute one bundle member and return its relation. Exactly one
    /// engine query must be dispatched per call — the unit the paper's
    /// Table 1 counts.
    fn execute_root(
        &self,
        snap: &Snapshot<'_>,
        plan: &Plan,
        root: NodeId,
    ) -> Result<Rel, FerryError>;

    /// Render one bundle member the way this backend would ship it to
    /// the database: the algebra plan for direct execution, the
    /// generated SQL:1999 text for the SQL round trip.
    fn render_root(
        &self,
        snap: &Snapshot<'_>,
        plan: &Plan,
        root: NodeId,
    ) -> Result<String, FerryError>;

    /// Execute a whole bundle (one `execute_root` per member, in bundle
    /// order).
    fn execute_bundle(
        &self,
        snap: &Snapshot<'_>,
        bundle: &CompiledBundle,
    ) -> Result<Vec<Rel>, FerryError> {
        bundle
            .queries
            .iter()
            .map(|q| self.execute_root(snap, &bundle.plan, q.root))
            .collect()
    }
}

/// The direct path: hand each member's algebra plan to the engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlgebraBackend;

impl Backend for AlgebraBackend {
    fn name(&self) -> &str {
        "algebra"
    }

    fn execute_root(
        &self,
        snap: &Snapshot<'_>,
        plan: &Plan,
        root: NodeId,
    ) -> Result<Rel, FerryError> {
        Ok(snap.execute(plan, root)?)
    }

    fn render_root(
        &self,
        _snap: &Snapshot<'_>,
        plan: &Plan,
        root: NodeId,
    ) -> Result<String, FerryError> {
        Ok(ferry_algebra::pretty::render(plan, root))
    }

    /// The direct path can do better than member-at-a-time: hand the whole
    /// bundle to the engine in one pass, so sub-plans shared between
    /// members evaluate once. Query accounting is identical to the default
    /// (one query per member).
    fn execute_bundle(
        &self,
        snap: &Snapshot<'_>,
        bundle: &CompiledBundle,
    ) -> Result<Vec<Rel>, FerryError> {
        let roots: Vec<NodeId> = bundle.queries.iter().map(|q| q.root).collect();
        // thread the bundle's provenance into the dispatch so the slow-
        // query log and `ferry.queries` can attribute it to its source
        // expression (and its `ferry.plan_cache` entry)
        let ctx = ferry_engine::DispatchCtx {
            plan_hash: bundle.exp_hash,
            opt: bundle.opt.as_ref(),
        };
        Ok(snap.execute_bundle_ctx(&bundle.plan, &roots, ctx)?)
    }
}
