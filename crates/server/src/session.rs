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
//! Parameters are positional `$1..$n` placeholders, substituted into
//! the statement text as SQL literals *before* the cache lookup:
//! repeating an execution with identical parameters is a cache hit,
//! different parameters compile (and cache) their own plan. The plan
//! cache is capacity-bounded with LRU eviction, so a workload (or a
//! hostile client) cycling through distinct parameter values recycles
//! cache slots instead of growing server memory without bound. String
//! parameters are escaped by quote doubling; the supported dialect is
//! ASCII, so non-ASCII strings are refused with a typed error rather
//! than silently mangled.

use crate::proto::{ErrorCode, Response};
use ferry::shred::{CompiledBundle, QueryDesc, VLayout};
use ferry::{Connection, FerryError};
use ferry_algebra::{validate, Row, Schema, Ty, Value};
use ferry_engine::DispatchCtx;
use std::collections::{BTreeMap, HashMap};
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

/// Parse + bind `sql` and wrap the plan as a single-query
/// [`CompiledBundle`] so it can live in the runtime plan cache and
/// dispatch with full `ferry.queries` attribution.
fn compile_sql(conn: &Connection, sql: &str, hash: u64) -> Result<CompiledBundle, FerryError> {
    let snap = conn.snapshot();
    let stmt = ferry_sql::parser::parse(sql).map_err(|e| FerryError::Engine(e.to_string()))?;
    let (plan, root) =
        ferry_sql::binder::bind(&snap, &stmt).map_err(|e| FerryError::Engine(e.to_string()))?;
    let (plan, root, opt) = match conn.plan_rewriter() {
        Some(rw) => {
            let (plan, roots, report) = rw(&plan, &[root]);
            (plan, roots[0], report)
        }
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

/// Compile-or-fetch `sql` through the shared plan cache; returns the
/// bundle and its statically inferred result schema.
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

/// Execute `sql` (already parameter-substituted) against a freshly
/// pinned MVCC snapshot. One call = one engine dispatch = one
/// internally consistent response.
pub(crate) fn run_sql(conn: &Connection, sql: &str) -> SResult<(Schema, Vec<Row>)> {
    let (bundle, schema) = prepare_sql(conn, sql)?;
    let snap = conn.snapshot();
    let ctx = DispatchCtx {
        plan_hash: bundle.exp_hash,
        opt: bundle.opt.as_ref(),
    };
    let rels = snap
        .execute_bundle_ctx(&bundle.plan, &[bundle.queries[0].root], ctx)
        .map_err(sql_reject)?;
    let rel = rels.into_iter().next().expect("one root, one relation");
    Ok((schema, rel.rows().into_owned()))
}

// ------------------------------------------------------------ parameters

/// Largest placeholder number a statement may reference. The cap keeps
/// digit accumulation overflow-free (a hostile `$9…9` with enough
/// digits would otherwise wrap in release builds and panic in debug)
/// and bounds per-statement parameter bookkeeping.
pub(crate) const MAX_PLACEHOLDER: usize = 10_000;

/// Read the digits of a `$n` placeholder whose `$` has just been
/// consumed. Typed `Sql` rejections for a missing/zero number and for
/// numbers beyond [`MAX_PLACEHOLDER`] — never a wrap or a panic.
fn read_placeholder(chars: &mut std::iter::Peekable<std::str::Chars>) -> SResult<usize> {
    let mut n = 0usize;
    let mut digits = 0;
    while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
        chars.next();
        n = n * 10 + d as usize; // cap below keeps this far from overflow
        digits += 1;
        if n > MAX_PLACEHOLDER {
            return Err(Reject::new(
                ErrorCode::Sql,
                format!("placeholder number exceeds the ${MAX_PLACEHOLDER} limit"),
            ));
        }
    }
    if digits == 0 || n == 0 {
        return Err(Reject::new(
            ErrorCode::Sql,
            "`$` must be followed by a positional parameter number (1-based)",
        ));
    }
    Ok(n)
}

/// Highest `$n` placeholder referenced in `sql` (0 = parameterless).
/// String literals are skipped; a `$` not followed by a digit is a
/// malformed statement.
pub(crate) fn placeholder_count(sql: &str) -> SResult<usize> {
    let mut max = 0usize;
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // consume the literal; '' is an escaped quote
                loop {
                    match chars.next() {
                        None => {
                            return Err(Reject::new(ErrorCode::Sql, "unterminated string literal"))
                        }
                        Some('\'') => {
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        Some(_) => {}
                    }
                }
            }
            '$' => {
                max = max.max(read_placeholder(&mut chars)?);
            }
            _ => {}
        }
    }
    Ok(max)
}

/// Render one parameter as a SQL literal of the supported dialect.
fn render_param(v: &Value) -> SResult<String> {
    match v {
        Value::Int(i) => Ok(i.to_string()),
        Value::Bool(true) => Ok("TRUE".to_string()),
        Value::Bool(false) => Ok("FALSE".to_string()),
        Value::Dbl(d) => {
            if !d.is_finite() {
                return Err(Reject::new(
                    ErrorCode::Unsupported,
                    "non-finite double parameters are not expressible as SQL literals",
                ));
            }
            // {:?} is the shortest round-tripping spelling; it always
            // carries a '.' or an exponent, so it lexes as a float
            Ok(format!("{d:?}"))
        }
        Value::Str(s) => {
            if !s.is_ascii() {
                return Err(Reject::new(
                    ErrorCode::Unsupported,
                    "non-ASCII string parameters are not supported by the dialect",
                ));
            }
            Ok(format!("'{}'", s.replace('\'', "''")))
        }
        Value::Unit | Value::Nat(_) => Err(Reject::new(
            ErrorCode::Unsupported,
            format!("{v:?} is not usable as a statement parameter"),
        )),
    }
}

/// Substitute `$1..$n` placeholders with `params` rendered as literals.
/// Placeholders inside string literals are left alone.
pub(crate) fn substitute(sql: &str, params: &[Value]) -> SResult<String> {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                out.push('\'');
                loop {
                    match chars.next() {
                        None => {
                            return Err(Reject::new(ErrorCode::Sql, "unterminated string literal"))
                        }
                        Some('\'') => {
                            out.push('\'');
                            if chars.peek() == Some(&'\'') {
                                out.push('\'');
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        Some(c) => out.push(c),
                    }
                }
            }
            '$' => {
                let n = read_placeholder(&mut chars)?;
                if n > params.len() {
                    return Err(Reject::new(
                        ErrorCode::Sql,
                        format!(
                            "parameter ${n} out of range (statement has {})",
                            params.len()
                        ),
                    ));
                }
                // parenthesised so a negative literal composes under
                // any surrounding operator
                out.push('(');
                out.push_str(&render_param(&params[n - 1])?);
                out.push(')');
            }
            c => out.push(c),
        }
    }
    Ok(out)
}

// -------------------------------------------------------------- sessions

/// One prepared statement held by a session: the SQL template plus the
/// number of positional parameters it takes.
#[derive(Debug, Clone)]
pub(crate) struct PreparedStmt {
    pub sql: Arc<str>,
    pub params: usize,
}

/// A session's statement registry. The heavy lifting happens in
/// [`prepare_statement`] / [`run_statement`]; this struct only assigns
/// ids and resolves them back to templates.
#[derive(Debug, Default)]
pub(crate) struct Statements {
    held: HashMap<u32, PreparedStmt>,
    next: u32,
}

impl Statements {
    pub fn insert(&mut self, sql: Arc<str>, params: usize) -> u32 {
        self.next += 1;
        self.held.insert(self.next, PreparedStmt { sql, params });
        self.next
    }

    pub fn get(&self, id: u32) -> SResult<PreparedStmt> {
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

/// The work of `Prepare`: validate placeholders and (for
/// parameterless statements) compile eagerly so errors and the result
/// schema surface at prepare time. Parameterised statements defer
/// compilation to execute time — their literals aren't known yet — and
/// report an empty schema.
pub(crate) fn prepare_statement(conn: &Connection, sql: &str) -> SResult<(usize, Schema)> {
    let nparams = placeholder_count(sql)?;
    if nparams == 0 {
        let (_, schema) = prepare_sql(conn, sql)?;
        Ok((0, schema))
    } else {
        Ok((nparams, Schema::new(Vec::new())))
    }
}

/// The work of `Execute`/`Query`: substitute, compile-or-fetch,
/// dispatch.
pub(crate) fn run_statement(
    conn: &Connection,
    sql: &str,
    nparams: usize,
    params: &[Value],
) -> SResult<(Schema, Vec<Row>)> {
    if params.len() != nparams {
        return Err(Reject::new(
            ErrorCode::Sql,
            format!(
                "statement expects {nparams} parameters, got {}",
                params.len()
            ),
        ));
    }
    let text: String;
    let sql = if nparams == 0 {
        sql
    } else {
        text = substitute(sql, params)?;
        &text
    };
    run_sql(conn, sql)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholders_are_counted_outside_strings() {
        assert_eq!(placeholder_count("SELECT 1 AS x").unwrap(), 0);
        assert_eq!(placeholder_count("SELECT $1 AS x, $2 AS y").unwrap(), 2);
        assert_eq!(placeholder_count("SELECT '$9' AS x, $3 AS y").unwrap(), 3);
        assert!(placeholder_count("SELECT $ AS x").is_err());
        assert!(placeholder_count("SELECT $0 AS x").is_err());
        assert!(placeholder_count("SELECT 'oops").is_err());
    }

    #[test]
    fn huge_placeholder_numbers_are_typed_rejections_not_overflows() {
        // enough digits to overflow u64 accumulation if unchecked
        let sql = "SELECT $99999999999999999999999 AS x";
        let r = placeholder_count(sql);
        assert!(
            matches!(r, Err(ref rej) if rej.code == ErrorCode::Sql),
            "{r:?}"
        );
        let r = substitute(sql, &[Value::Int(1)]);
        assert!(
            matches!(r, Err(ref rej) if rej.code == ErrorCode::Sql),
            "{r:?}"
        );
        // the cap itself is inclusive
        assert_eq!(
            placeholder_count(&format!("SELECT ${MAX_PLACEHOLDER} AS x")).unwrap(),
            MAX_PLACEHOLDER
        );
        assert!(placeholder_count(&format!("SELECT ${} AS x", MAX_PLACEHOLDER + 1)).is_err());
    }

    #[test]
    fn substitution_renders_literals() {
        let out = substitute(
            "SELECT $1 AS a, $2 AS b, $3 AS c, $4 AS d",
            &[
                Value::Int(-5),
                Value::str("it's"),
                Value::Bool(true),
                Value::Dbl(1.5),
            ],
        )
        .unwrap();
        assert_eq!(
            out,
            "SELECT (-5) AS a, ('it''s') AS b, (TRUE) AS c, (1.5) AS d"
        );
        // placeholders inside string literals survive untouched
        let out = substitute("SELECT '$1' AS a, $1 AS b", &[Value::Int(7)]).unwrap();
        assert_eq!(out, "SELECT '$1' AS a, (7) AS b");
    }

    #[test]
    fn unsupported_parameters_are_typed_rejections() {
        for v in [Value::Unit, Value::Nat(3)] {
            let r = substitute("SELECT $1 AS x", &[v]);
            assert!(matches!(r, Err(ref rej) if rej.code == ErrorCode::Unsupported));
        }
        let r = substitute("SELECT $1 AS x", &[Value::Dbl(f64::NAN)]);
        assert!(matches!(r, Err(ref rej) if rej.code == ErrorCode::Unsupported));
        let r = substitute("SELECT $1 AS x", &[Value::str("héllo")]);
        assert!(matches!(r, Err(ref rej) if rej.code == ErrorCode::Unsupported));
        let r = substitute("SELECT $2 AS x", &[Value::Int(1)]);
        assert!(matches!(r, Err(ref rej) if rej.code == ErrorCode::Sql));
    }

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
