//! # `ferry-optimizer` — algebraic plan rewriting
//!
//! The role Pathfinder \[10, 11\] plays in the paper's pipeline (Fig. 2,
//! step 3 ): loop-lifting is deliberately compositional and spendthrift —
//! it evaluates every table reference as `loop × table`, re-joins a
//! relation with itself at every `map`, threads dead columns through
//! whole subplans, and never reuses a computation it could share. This
//! crate rewrites those plans before execution or SQL generation, in six
//! passes:
//!
//! * [`joins::recover_joins`] (`join_recovery`) — selection descent and
//!   join rotation: the `loop × table` crosses become equi-joins. Runs
//!   once, first; it *adds* operators (rotated projections) to make the
//!   plan linear instead of quadratic in the data,
//! * [`passes::cse`] — hash-consing common subplans (the DAG becomes real),
//! * [`passes::fold_constants`] — constant folding and predicate
//!   simplification inside scalar expressions, `Select(true)` removal,
//!   `Select∘Select` fusion,
//! * [`passes::join_elimination`] — joins whose result the inferred
//!   properties of [`props`] (constant columns, one-row relations, keys,
//!   lineage) already determine become `Attach`/`Select`/`Project`,
//! * [`passes::prune_columns`] — *icols* (needed-columns) analysis: trim
//!   projection widths, bypass unused `Attach`/`Compute`/row-numbering
//!   operators, narrow `UnionAll` inputs,
//! * [`passes::merge_projects`] — collapse `Project∘Project`, drop identity
//!   projections.
//!
//! What that buys, in reachable operators (`Connection::explain` prints
//! the same numbers per pass):
//!
//! | program | loop-lifted | after `join_recovery` + cleanup | with `join_elimination` |
//! |---|--:|--:|--:|
//! | `dotp` (Fig. 6) | 30 (5 equi-joins, 2 crosses) | 51 (15 equi-joins, 1 cross) | 26 (2 equi-joins) |
//! | running example (§2, 2 queries) | 73 (15 equi-joins, 3 crosses) | 105 (27 equi-joins) | 84 (19 equi-joins) |
//!
//! The driver iterates the last five passes to a cost fixpoint (bounded).
//! Every pass preserves plan semantics *including* the deterministic
//! row-numbering the compiler relies on: no pass reorders or merges the
//! order-defining `RowNum`/`DenseRank` operators; they are only removed
//! when their output column is provably unused.

pub mod joins;
pub mod passes;
pub mod props;
pub mod rewrite;

use ferry_algebra::{NodeId, Plan, Schema};
pub use ferry_telemetry::{OptReport, PassStat};
use std::rc::Rc;

/// Optimise the plan under the given roots; returns the rewritten plan and
/// the relocated roots.
pub fn optimize(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>) {
    let (p, r, _) = optimize_report(plan, roots);
    (p, r)
}

/// A plan between two passes, with what the driver measures it by. The
/// schemas behind the width are kept: the next pass that needs them takes
/// them from here instead of inferring them again.
struct Stage {
    plan: Plan,
    roots: Vec<NodeId>,
    /// Schemas of every arena node.
    schemas: Rc<Vec<Schema>>,
    /// Operators reachable from the roots.
    size: usize,
    /// Total column count across them.
    width: usize,
}

impl Stage {
    /// Measure `plan`; `None` if it does not infer.
    fn new(plan: Plan, roots: Vec<NodeId>) -> Option<Stage> {
        let schemas = ferry_algebra::infer_schema(&plan).ok()?;
        let live = rewrite::live(&plan, &roots);
        Some(Stage {
            size: live.iter().filter(|l| **l).count(),
            width: live_width(&live, &schemas),
            schemas: Rc::new(schemas),
            plan,
            roots,
        })
    }

    /// Composite cost: operators + total column traffic — column pruning
    /// trades a few extra `Project` operators for much narrower tuples.
    fn cost(&self) -> usize {
        self.size + self.width
    }
}

fn live_width(live: &[bool], schemas: &[Schema]) -> usize {
    let widths = live.iter().zip(schemas).filter(|(l, _)| **l);
    widths.map(|(_, s)| s.len()).sum()
}

/// A pass as the driver runs it: the plan, its roots, and the schemas of
/// every arena node.
type Pass<'a> = &'a dyn Fn(&Plan, &[NodeId], &[Schema]) -> (Plan, Vec<NodeId>);

/// Run one named pass under a telemetry span, accumulating its
/// [`PassStat`] into the report. "Changed" is detected on the
/// (size, width) fingerprint of the reachable plan — the same metrics the
/// fixpoint cost function watches. The fingerprint taken after one pass is
/// the next pass's "before"; a pass that returns its input — or a plan
/// that no longer infers, which is discarded — keeps the input's
/// fingerprint and schemas.
fn run_pass(name: &'static str, from: &Stage, report: &mut OptReport, pass: Pass<'_>) -> Stage {
    let start = ferry_telemetry::now_ns();
    let mut span = ferry_telemetry::span(name, "optimize");
    let (plan, roots) = pass(&from.plan, &from.roots, &from.schemas);
    let rewritten = if plan == from.plan && roots == from.roots {
        None
    } else {
        Stage::new(plan, roots)
    };
    let to = rewritten.unwrap_or_else(|| Stage {
        plan: from.plan.clone(),
        roots: from.roots.clone(),
        schemas: from.schemas.clone(),
        ..*from
    });
    let elapsed = ferry_telemetry::now_ns().saturating_sub(start);
    let changed = (to.size, to.width) != (from.size, from.width);
    span.attr("nodes_before", from.size)
        .attr("nodes_after", to.size)
        .attr("changed", changed);
    drop(span);
    let stat = match report.passes.iter_mut().find(|s| s.pass == name) {
        Some(stat) => stat,
        None => {
            report.passes.push(PassStat {
                pass: name,
                runs: 0,
                changed: 0,
                nodes_removed: 0,
                elapsed_ns: 0,
            });
            report.passes.last_mut().expect("just pushed")
        }
    };
    stat.runs += 1;
    stat.changed += changed as u64;
    stat.nodes_removed += from.size as i64 - to.size as i64;
    stat.elapsed_ns += elapsed;
    to
}

/// [`optimize`], reporting per-pass work: rewrites applied, node deltas
/// and wall time per pass, rendered by `Connection::explain` and recorded
/// as one `"optimize"`-category telemetry span per pass run.
pub fn optimize_report(plan: &Plan, roots: &[NodeId]) -> (Plan, Vec<NodeId>, OptReport) {
    let Some(mut stage) = Stage::new(plan.clone(), roots.to_vec()) else {
        // a plan that does not type-check is not ours to rewrite
        let size = reachable_size(plan, roots);
        let report = OptReport {
            nodes_before: size,
            nodes_after: size,
            ..OptReport::default()
        };
        return (plan.clone(), roots.to_vec(), report);
    };
    let mut report = OptReport {
        nodes_before: stage.size,
        ..OptReport::default()
    };
    const MAX_ROUNDS: usize = 8;
    // join recovery first: it dissolves the loop × table crosses that
    // dominate execution cost (the Pathfinder/join-graph-isolation role);
    // plan-size cost is not the right metric for it, so it runs outside
    // the cost-guarded loop
    stage = run_pass("join_recovery", &stage, &mut report, &|p, r, _| {
        joins::recover_joins(p, r)
    });
    for round in 0..MAX_ROUNDS {
        report.rounds = round + 1;
        let s = run_pass("cse", &stage, &mut report, &|p, r, _| passes::cse(p, r));
        let s = run_pass("fold_constants", &s, &mut report, &|p, r, _| {
            passes::fold_constants(p, r)
        });
        let s = run_pass("join_elimination", &s, &mut report, &|p, r, _| {
            passes::join_elimination(p, r)
        });
        let s = run_pass(
            "prune_columns",
            &s,
            &mut report,
            &passes::prune_columns_with,
        );
        let s = run_pass(
            "merge_projects",
            &s,
            &mut report,
            &passes::merge_projects_with,
        );
        if s.cost() >= stage.cost() {
            // this round did not pay for itself — keep the previous plan
            break;
        }
        stage = s;
    }
    report.nodes_after = stage.size;
    // final garbage collection: drop unreachable arena entries
    let (plan, roots) = rewrite::gc(&stage.plan, &stage.roots);
    (plan, roots, report)
}

/// Number of distinct operators reachable from the roots.
pub fn reachable_size(plan: &Plan, roots: &[NodeId]) -> usize {
    rewrite::live(plan, roots).iter().filter(|l| **l).count()
}

/// Total column count across all reachable operators — the metric column
/// pruning improves (node counts barely move on loop-lifted plans, but the
/// tuples flowing between operators get much narrower).
pub fn reachable_width(plan: &Plan, roots: &[NodeId]) -> usize {
    match ferry_algebra::infer_schema(plan) {
        Ok(schemas) => live_width(&rewrite::live(plan, roots), &schemas),
        Err(_) => 0,
    }
}

/// Convenience: a shareable rewriter suitable for
/// `ferry::Connection::with_optimizer` (the `Arc` lets every clone of a
/// concurrent `Connection` hold the same rewriter). The returned
/// [`OptReport`] rides along in the compiled bundle, feeding `explain`.
#[allow(clippy::type_complexity)]
pub fn rewriter(
) -> std::sync::Arc<dyn Fn(&Plan, &[NodeId]) -> (Plan, Vec<NodeId>, Option<OptReport>) + Send + Sync>
{
    std::sync::Arc::new(|plan, roots| {
        let (p, r, rep) = optimize_report(plan, roots);
        (p, r, Some(rep))
    })
}
