//! Per-connection sessions: prepared statements, SQL compilation
//! through the shared plan cache, and the `ferry.connections` system
//! table describing the live session set.
//!
//! A session owns a map of statement ids to SQL templates. The heavy
//! work — parse, bind, compile, execute — runs on the session's thread
//! via the free functions here, which need only the shared
//! [`Connection`] and the statement text. Compilation goes through
//! `Connection::prepare_raw`, keyed by a content hash of the SQL text,
//! so wire statements share the runtime plan cache with DSL programs
//! and show up (with hit counts) in `ferry.plan_cache`.
//!
//! Parameters are positional `$1..$n` placeholders. A statement compiles
//! once, as a template: the binder types each `$n` and the plan holds it
//! as `Expr::Param`. `Prepare` compiles it and reports its real result
//! schema; every `Execute` (or parameterised `Query`) fetches that one
//! plan from the cache and binds its values into a copy
//! (`Plan::bind_params`) before dispatch. A parameter is a value, never
//! text, so any `Value` of the slot's type is accepted; a wrong arity or
//! type is a typed `Sql` refusal.

use crate::proto::{ErrorCode, Response};
use ferry::shred::{CompiledBundle, QueryDesc, VLayout};
use ferry::{Connection, FerryError};
use ferry_algebra::{validate, Plan, Rel, Row, Schema, Ty, Value};
use ferry_engine::DispatchCtx;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A refusal on its way to the wire: the typed error frame's content.
#[derive(Debug, Clone)]
pub(crate) struct Reject {
    pub code: ErrorCode,
    pub message: String,
}

impl Reject {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Reject {
        Reject {
            code,
            message: message.into(),
        }
    }

    pub(crate) fn response(&self) -> Response {
        Response::Error {
            code: self.code,
            message: self.message.clone(),
        }
    }
}

pub(crate) type SResult<T> = Result<T, Reject>;

// ------------------------------------------------------------- registry

/// Live state of one session, shared between its thread and the
/// `ferry.connections` provider.
#[derive(Debug)]
pub struct SessionInfo {
    pub id: u64,
    pub peer: String,
    /// Prepared statements currently held.
    pub statements: AtomicI64,
    /// Requests served (Prepare/Execute/Query/Metrics).
    pub queries: AtomicI64,
    /// Total time this session's statements waited for a slot, µs.
    pub queue_wait_us: AtomicI64,
}

/// The live session set, queryable as `ferry.connections`.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next: AtomicU64,
    live: Mutex<BTreeMap<u64, Arc<SessionInfo>>>,
}

impl SessionRegistry {
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    pub fn register(&self, peer: String) -> Arc<SessionInfo> {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let info = Arc::new(SessionInfo {
            id,
            peer,
            statements: AtomicI64::new(0),
            queries: AtomicI64::new(0),
            queue_wait_us: AtomicI64::new(0),
        });
        self.live.lock().unwrap().insert(id, info.clone());
        info
    }

    pub fn remove(&self, id: u64) {
        self.live.lock().unwrap().remove(&id);
    }

    pub fn len(&self) -> usize {
        self.live.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `ferry.connections` schema and keys: columns alphabetical (the
    /// canonical system-table order), keyed by session id.
    pub fn table_schema() -> (Schema, Vec<String>) {
        (
            Schema::of(&[
                ("id", Ty::Int),
                ("peer", Ty::Str),
                ("queries", Ty::Int),
                ("queue_wait_us", Ty::Int),
                ("statements", Ty::Int),
            ]),
            vec!["id".to_string()],
        )
    }

    /// Provider rows, in key (session id) order.
    pub fn rows(&self) -> Vec<Row> {
        self.live
            .lock()
            .unwrap()
            .values()
            .map(|s| {
                vec![
                    Value::Int(s.id as i64),
                    Value::str(s.peer.clone()),
                    Value::Int(s.queries.load(Ordering::Relaxed)),
                    Value::Int(s.queue_wait_us.load(Ordering::Relaxed)),
                    Value::Int(s.statements.load(Ordering::Relaxed)),
                ]
            })
            .collect()
    }
}

// ------------------------------------------------- statement compilation

/// FNV-1a over a tagged spelling of the statement text — the content
/// hash wire statements are plan-cached under. The `sql:` tag keeps the
/// hash domain disjoint from `Exp::stable_hash` by construction.
pub(crate) fn sql_hash(sql: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in "sql:".bytes().chain(sql.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sql_reject(e: impl std::fmt::Display) -> Reject {
    Reject::new(ErrorCode::Sql, e.to_string())
}

/// Parse + bind `sql` — a template: its `$n` stay parameters — and wrap
/// the optimized plan as a single-query [`CompiledBundle`] so it can live
/// in the runtime plan cache and dispatch with full `ferry.queries`
/// attribution.
fn compile_sql(conn: &Connection, sql: &str, hash: u64) -> Result<CompiledBundle, FerryError> {
    let snap = conn.snapshot();
    let stmt = ferry_sql::parser::parse(sql).map_err(|e| FerryError::Engine(e.to_string()))?;
    let (plan, root) =
        ferry_sql::binder::bind(&snap, &stmt).map_err(|e| FerryError::Engine(e.to_string()))?;
    let (plan, root, opt) = match conn.plan_rewriter() {
        // the plan states its own arity (`Plan::bind_params`), so a
        // rewrite that folded a parameter away is not taken
        Some(rw) => match rw(&plan, &[root]) {
            (opt, roots, report) if slots(&opt) == slots(&plan) => (opt, roots[0], report),
            _ => (plan, root, None),
        },
        None => (plan, root, None),
    };
    Ok(CompiledBundle {
        plan,
        queries: vec![QueryDesc {
            root,
            is_list: false,
            layout: VLayout::Atom(0),
        }],
        ty: ferry::Ty::Unit,
        opt,
        exp_hash: hash,
    })
}

/// The parameter slots a plan references.
fn slots(plan: &Plan) -> BTreeSet<u32> {
    plan.params().into_iter().map(|(slot, _)| slot).collect()
}

/// Compile-or-fetch `sql` through the shared plan cache; returns the
/// bundle and its statically inferred result schema. Keyed by the
/// template text, so every execution of a statement — whatever its
/// parameters — fetches the one plan.
pub(crate) fn prepare_sql(conn: &Connection, sql: &str) -> SResult<(Arc<CompiledBundle>, Schema)> {
    let hash = sql_hash(sql);
    // the statement text rides along as the collision guard: a cache
    // hit is only served when the stored text matches, so a crafted
    // FNV collision can never execute another session's plan
    let bundle = conn
        .prepare_raw(hash, Some(sql), |c| compile_sql(c, sql, hash))
        .map_err(sql_reject)?;
    let root = bundle.queries[0].root;
    let schema = validate(&bundle.plan, root).map_err(sql_reject)?;
    Ok((bundle, schema))
}

/// The work of `Execute`/`Query`: fetch the template's plan, bind
/// `params` into it, and run it against a freshly pinned MVCC snapshot.
/// One call = one engine dispatch = one internally consistent response:
/// the statement's schema and its result relation, which the session
/// streams from the columns.
pub(crate) fn run_statement(
    conn: &Connection,
    sql: &str,
    params: &[Value],
) -> SResult<(Schema, Rel)> {
    let (bundle, schema) = prepare_sql(conn, sql)?;
    let plan = bundle.plan.bind_params(params).map_err(sql_reject)?;
    let snap = conn.snapshot();
    let ctx = DispatchCtx {
        plan_hash: bundle.exp_hash,
        opt: bundle.opt.as_ref(),
    };
    let rels = snap
        .execute_bundle_ctx(&plan, &[bundle.queries[0].root], ctx)
        .map_err(sql_reject)?;
    let rel = rels.into_iter().next().expect("one root, one relation");
    Ok((schema, rel))
}

// -------------------------------------------------------------- sessions

/// A session's statement registry: ids to SQL templates. The plans live
/// in the shared plan cache, keyed by the template text.
#[derive(Debug, Default)]
pub(crate) struct Statements {
    held: HashMap<u32, Arc<str>>,
    next: u32,
}

impl Statements {
    pub fn insert(&mut self, sql: Arc<str>) -> u32 {
        self.next += 1;
        self.held.insert(self.next, sql);
        self.next
    }

    pub fn get(&self, id: u32) -> SResult<Arc<str>> {
        self.held.get(&id).cloned().ok_or_else(|| {
            Reject::new(
                ErrorCode::UnknownStatement,
                format!("statement {id} was never prepared on this session"),
            )
        })
    }

    pub fn len(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_hash_is_stable_and_content_addressed() {
        let a = sql_hash("SELECT 1 AS x");
        assert_eq!(a, sql_hash("SELECT 1 AS x"));
        assert_ne!(a, sql_hash("SELECT 2 AS x"));
    }

    #[test]
    fn connections_schema_is_alphabetical_with_valid_keys() {
        let (schema, keys) = SessionRegistry::table_schema();
        let cols: Vec<&str> = schema.cols().iter().map(|(c, _)| c.as_ref()).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
        for k in &keys {
            assert!(schema.contains(k.as_str()));
        }
    }

    #[test]
    fn registry_tracks_sessions_in_id_order() {
        let reg = SessionRegistry::new();
        let a = reg.register("1.2.3.4:5".into());
        let b = reg.register("5.6.7.8:9".into());
        a.queries.fetch_add(3, Ordering::Relaxed);
        let rows = reg.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(a.id as i64));
        assert_eq!(rows[0][2], Value::Int(3));
        assert_eq!(rows[1][0], Value::Int(b.id as i64));
        reg.remove(a.id);
        assert_eq!(reg.rows().len(), 1);
    }
}
