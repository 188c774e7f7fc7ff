//! End-to-end session behaviour over loopback: concurrent clients get
//! byte-identical results vs in-process execution, prepared statements
//! hit the shared plan cache — one plan per statement, whatever its
//! parameters — parameter refusals are typed, the server answers
//! questions about itself
//! (`ferry.connections`, metrics) over its own wire, statements run on
//! their session's thread behind an exact admission gate, overload is a
//! typed refusal, a panicking statement is a typed `Internal`, and
//! shutdown drains.

use ferry::Connection;
use ferry_algebra::{Row, Schema, Ty, Value};
use ferry_engine::Database;
use ferry_server::proto::ErrorCode;
use ferry_server::{Client, ClientError, ResultSet, Server, ServerConfig, ServerHandle};
use ferry_storage::codec::Enc;
use ferry_telemetry::{names, Gauge};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn seeded_connection() -> Connection {
    let db = Database::new();
    db.create_table(
        "emp",
        Schema::of(&[("dept", Ty::Str), ("name", Ty::Str), ("sal", Ty::Int)]),
        vec!["name"],
    )
    .unwrap();
    db.insert(
        "emp",
        vec![
            vec![Value::str("eng"), Value::str("ada"), Value::Int(90)],
            vec![Value::str("eng"), Value::str("bob"), Value::Int(70)],
            vec![Value::str("ops"), Value::str("cy"), Value::Int(50)],
        ],
    )
    .unwrap();
    Connection::new(db)
}

fn start(cfg: ServerConfig) -> (Connection, ServerHandle) {
    let conn = seeded_connection();
    let handle = Server::bind(conn.clone(), "127.0.0.1:0", cfg).unwrap();
    (conn, handle)
}

/// How long a test waits for something that should take milliseconds.
const PATIENCE: Duration = Duration::from_secs(10);

/// A statement held inside execution: [`HOLD`] scans `ferry.hold`, a
/// one-row system table whose provider reports the scanning thread's
/// name on `entered`, then blocks until the test sends on `release`.
struct Hold {
    entered: mpsc::Receiver<String>,
    release: mpsc::Sender<()>,
}

const HOLD: &str = "SELECT h.n AS n FROM ferry.hold AS h;";

fn hold_table(conn: &Connection) -> Hold {
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    one_row_table(conn, "ferry.hold", move || {
        let thread = std::thread::current().name().unwrap_or("").to_string();
        entered_tx.send(thread).unwrap();
        release_rx.lock().unwrap().recv().unwrap();
    });
    Hold { entered, release }
}

/// Register `name` as a system table of one `n = 1` row whose scan
/// first runs `scan` on the executing thread.
fn one_row_table(conn: &Connection, name: &str, scan: impl Fn() + Send + Sync + 'static) {
    conn.database()
        .register_system_table(
            name,
            Schema::of(&[("n", Ty::Int)]),
            vec!["n".to_string()],
            Arc::new(move || {
                scan();
                vec![vec![Value::Int(1)]]
            }),
        )
        .unwrap();
}

fn one_row(rs: Result<ResultSet, ClientError>) {
    assert_eq!(rs.unwrap().rows, vec![vec![Value::Int(1)]]);
}

fn queue_depth(conn: &Connection) -> Arc<Gauge> {
    conn.telemetry()
        .registry()
        .gauge(names::SERVER_QUEUE_DEPTH)
        .unwrap()
}

/// A client whose session is registered: one round trip done, so
/// sessions connected this way get ascending ids.
fn connected(addr: SocketAddr) -> Client {
    let mut c = Client::connect(addr).unwrap();
    one_row(c.query("SELECT 1 AS x"));
    c
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The differential suite's deterministic query shapes (every one
/// carries a total ORDER BY, so results are byte-comparable).
const SHAPES: &[&str] = &[
    "SELECT e.name AS who, e.sal AS sal FROM emp AS e \
     WHERE e.sal >= 70 ORDER BY sal DESC;",
    "SELECT e.dept AS d, COUNT (*) AS n, SUM (e.sal) AS total \
     FROM emp AS e GROUP BY e.dept ORDER BY d ASC;",
    "SELECT a.name AS x, b.name AS y FROM emp AS a, emp AS b \
     WHERE a.dept = b.dept AND a.name < b.name ORDER BY x ASC, y ASC;",
    "SELECT e.name AS who, \
     ROW_NUMBER () OVER (PARTITION BY e.dept ORDER BY e.sal DESC) AS rn_nat \
     FROM emp AS e ORDER BY who ASC;",
    "WITH hi (who) AS (SELECT e.name AS who FROM emp AS e WHERE e.sal > 60), \
     lo (who) AS (SELECT e.name AS who FROM emp AS e WHERE e.sal < 80) \
     SELECT h.who AS who FROM hi AS h \
     EXCEPT SELECT l.who AS who FROM lo AS l ORDER BY who ASC;",
    "SELECT 1 AS x UNION ALL SELECT 2 AS x ORDER BY x DESC;",
    "SELECT e.name AS who, \
     CASE WHEN e.sal >= 70 THEN 'high' ELSE 'low' END AS band, \
     CAST(e.sal AS DOUBLE PRECISION) / 2.0 AS half \
     FROM emp AS e ORDER BY who ASC;",
    "SELECT DISTINCT d.dept AS dept \
     FROM (SELECT e.dept AS dept FROM emp AS e) AS d ORDER BY dept ASC;",
];

/// Canonical bytes of a result: schema then rows through the storage
/// codec — the same encoding the wire itself uses.
fn result_bytes(schema: &Schema, rows: &[Row]) -> Vec<u8> {
    let mut e = Enc::new();
    e.schema(schema);
    e.rows(rows);
    e.into_bytes()
}

#[test]
fn concurrent_clients_match_in_process_byte_for_byte() {
    let (conn, handle) = start(ServerConfig::default());
    // ground truth, in-process
    let expected: Vec<Vec<u8>> = SHAPES
        .iter()
        .map(|sql| {
            let snap = conn.snapshot();
            let rel = ferry_sql::exec::execute_sql(&snap, sql).unwrap();
            result_bytes(&rel.schema, &rel.rows())
        })
        .collect();
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for (sql, want) in SHAPES.iter().zip(&expected) {
                    let rs = c.query(sql).unwrap();
                    let got = result_bytes(&rs.schema, &rs.rows);
                    assert_eq!(&got, want, "wire and in-process disagree on: {sql}");
                }
                c.close().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn prepared_reexecution_hits_the_shared_plan_cache() {
    let (_conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT e.dept AS d, SUM (e.sal) AS total \
               FROM emp AS e GROUP BY e.dept ORDER BY d ASC;";
    let (stmt, schema) = c.prepare(sql).unwrap();
    assert_eq!(schema.cols().len(), 2); // parameterless: schema known at prepare
    for _ in 0..5 {
        let rs = c.execute(stmt, &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }
    // the statement's cache entry is visible — with hits — through the
    // same wire that executed it
    let rs = c
        .query(
            "SELECT p.hits AS hits FROM ferry.plan_cache AS p \
             ORDER BY hits DESC;",
        )
        .unwrap();
    let top_hits = rs.rows[0][0].clone();
    match top_hits {
        Value::Int(h) => assert!(h >= 5, "expected >=5 plan-cache hits, saw {h}"),
        other => panic!("hits column should be Int, got {other:?}"),
    }
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn parameterised_statements_bind_and_execute() {
    let (_conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let (stmt, _) = c
        .prepare(
            "SELECT e.name AS who FROM emp AS e \
             WHERE e.sal >= $1 AND e.dept = $2 ORDER BY who ASC;",
        )
        .unwrap();
    let rs = c
        .execute(stmt, &[Value::Int(80), Value::str("eng")])
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::str("ada")]]);
    let rs = c
        .execute(stmt, &[Value::Int(0), Value::str("eng")])
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    // arity mismatch is a typed SQL error, session intact
    let err = c.execute(stmt, &[Value::Int(1)]).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Sql,
                ..
            }
        ),
        "{err:?}"
    );
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn the_server_can_answer_questions_about_itself() {
    let (_conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    // warm up: one query so this session has served something
    c.query("SELECT 1 AS x").unwrap();
    // ferry.connections over the wire, about the very session asking
    let rs = c
        .query(
            "SELECT c.id AS id, c.peer AS peer, c.queries AS q \
             FROM ferry.connections AS c ORDER BY id ASC;",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1, "exactly this session is live");
    assert!(matches!(rs.rows[0][0], Value::Int(_)));
    match &rs.rows[0][1] {
        Value::Str(peer) => assert!(peer.starts_with("127.0.0.1:"), "peer = {peer}"),
        other => panic!("peer should be Str, got {other:?}"),
    }
    // metrics over the wire: the server's own counters are in there
    let text = c.metrics().unwrap();
    assert!(text.contains("server_accepts"), "{text}");
    assert!(text.contains("server_requests"), "{text}");
    assert!(text.contains("server_connections"), "{text}");
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn connection_limit_is_a_typed_busy() {
    let cfg = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let (_conn, handle) = start(cfg);
    let mut a = Client::connect(handle.addr()).unwrap();
    a.query("SELECT 1 AS x").unwrap(); // roundtrip ⇒ registered
    let mut b = Client::connect(handle.addr()).unwrap();
    b.query("SELECT 1 AS x").unwrap();
    // third connection is over the limit: its first exchange surfaces
    // the Busy frame the server sent before closing
    let mut c = Client::connect(handle.addr()).unwrap();
    let err = c.query("SELECT 1 AS x").unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        ) || matches!(err, ClientError::Closed | ClientError::Io(_)),
        "{err:?}"
    );
    // a slot frees up when a client leaves
    a.close().unwrap();
    // the server processes the close asynchronously; retry briefly
    let mut admitted = false;
    for _ in 0..100 {
        let mut d = match Client::connect(handle.addr()) {
            Ok(d) => d,
            Err(_) => continue,
        };
        if d.query("SELECT 1 AS x").is_ok() {
            admitted = true;
            let _ = d.close();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(admitted, "freed slot was never re-admitted");
    let _ = b.close();
    handle.shutdown();
}

#[test]
fn overload_never_hangs_and_refusals_are_typed() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (_conn, handle) = start(cfg);
    let addr = handle.addr();
    // more concurrent work than one worker + one queue slot can hold:
    // every request must resolve — success or typed refusal — promptly
    let threads: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    match c.query(
                        "SELECT a.name AS x, b.name AS y FROM emp AS a, emp AS b \
                         WHERE a.dept = b.dept ORDER BY x ASC, y ASC;",
                    ) {
                        Ok(rs) => assert_eq!(rs.rows.len(), 5),
                        Err(ClientError::Server {
                            code: ErrorCode::QueueFull | ErrorCode::Busy,
                            ..
                        }) => {}
                        Err(other) => panic!("untyped overload failure: {other:?}"),
                    }
                }
                let _ = c.close();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap(); // a hang here fails via the test harness timeout
    }
    handle.shutdown();
}

/// The seeded `emp` rows as (dept, name, sal).
const EMP: [(&str, &str, i64); 3] = [("eng", "ada", 90), ("eng", "bob", 70), ("ops", "cy", 50)];

fn sql_refusal<T: std::fmt::Debug>(r: Result<T, ClientError>) -> String {
    match r {
        Err(ClientError::Server {
            code: ErrorCode::Sql,
            message,
        }) => message,
        other => panic!("expected a typed Sql refusal, got {other:?}"),
    }
}

/// Statement text arrives from the socket, so nesting depth is a budget:
/// a statement 100 000 levels deep is a typed refusal that names the
/// limit, its session survives it, and a statement at exactly the limit
/// runs end to end on the session thread.
#[test]
fn nesting_depth_is_a_budget() {
    use ferry_sql::parser::MAX_DEPTH;
    let (_conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let n = 100_000;
    let too_deep = [
        format!("SELECT {}1{} AS x", "(".repeat(n), ")".repeat(n)),
        format!("SELECT {}TRUE AS x", "NOT ".repeat(n)),
        format!("SELECT {}1 AS x", "- ".repeat(n)),
        format!("SELECT 1{} AS x", " + 1".repeat(n)),
    ];
    for sql in too_deep {
        let message = sql_refusal(c.query(&sql));
        assert!(
            message.contains(&format!("limit of {MAX_DEPTH} levels")),
            "{message}"
        );
        // the same connection answers the next statement
        one_row(c.query("SELECT 1 AS x"));
    }
    // a `SELECT` of a leaf is 2 levels, and each `NOT`, minus or `+` adds
    // one; a parenthesis is one open construct and no level of the tree
    let k = MAX_DEPTH - 2;
    let even = k.is_multiple_of(2);
    let sign = if even { 1 } else { -1 };
    let at_the_limit = [
        (
            format!(
                "SELECT {}1{} AS x",
                "(".repeat(MAX_DEPTH),
                ")".repeat(MAX_DEPTH)
            ),
            Value::Int(1),
        ),
        (
            format!("SELECT {}1{} AS x", "(".repeat(k), " + 1)".repeat(k)),
            Value::Int(k as i64 + 1),
        ),
        (
            format!("SELECT {}TRUE AS x", "NOT ".repeat(k)),
            Value::Bool(even),
        ),
        (format!("SELECT {}1 AS x", "- ".repeat(k)), Value::Int(sign)),
        (
            format!("SELECT 1{} AS x", " + 1".repeat(k)),
            Value::Int(k as i64 + 1),
        ),
    ];
    for (sql, value) in at_the_limit {
        let rs = c
            .query(&sql)
            .unwrap_or_else(|e| panic!("{}: {e:?}", &sql[..40]));
        assert_eq!(rs.rows, vec![vec![value]], "{}", &sql[..40]);
    }
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn varying_parameters_share_one_plan() {
    let (conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let (stmt, _) = c
        .prepare(
            "SELECT e.name AS who FROM emp AS e \
             WHERE e.sal >= $1 AND e.dept = $2 ORDER BY who ASC;",
        )
        .unwrap();
    let cached = conn.plan_cache_len();
    for i in 0..200i64 {
        let (sal, dept) = (i % 100, ["eng", "ops"][(i / 100) as usize]);
        let rs = c
            .execute(stmt, &[Value::Int(sal), Value::str(dept)])
            .unwrap();
        let want: Vec<Row> = EMP
            .iter()
            .filter(|(d, _, s)| *d == dept && *s >= sal)
            .map(|(_, n, _)| vec![Value::str(*n)])
            .collect();
        assert_eq!(rs.rows, want, "sal >= {sal}, dept = {dept}");
        assert_eq!(
            conn.plan_cache_len(),
            cached,
            "execution {i} compiled a plan"
        );
    }
    // one cache entry serves every pair: the template's, with a hit per
    // execution (asked through a parameterised statement, too)
    let rs = c
        .query_params(
            "SELECT p.hits AS hits FROM ferry.plan_cache AS p WHERE p.hits >= $1;",
            &[Value::Int(200)],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1, "{:?}", rs.rows);
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn parameterised_prepare_reports_its_schema() {
    let (_conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let (stmt, schema) = c
        .prepare(
            "SELECT e.name AS who, e.sal + $1 AS raised FROM emp AS e \
             WHERE e.dept = $2 ORDER BY who ASC;",
        )
        .unwrap();
    assert_eq!(schema, Schema::of(&[("who", Ty::Str), ("raised", Ty::Int)]));
    let rs = c
        .execute(stmt, &[Value::Int(5), Value::str("ops")])
        .unwrap();
    assert_eq!(rs.schema, schema);
    assert_eq!(rs.rows, vec![vec![Value::str("cy"), Value::Int(55)]]);
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn parameter_refusals_are_typed() {
    let (_conn, handle) = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let (stmt, _) = c
        .prepare("SELECT e.name AS who FROM emp AS e WHERE e.sal >= $1 ORDER BY who ASC;")
        .unwrap();
    // wrong arity, both ways
    sql_refusal(c.execute(stmt, &[]));
    sql_refusal(c.execute(stmt, &[Value::Int(1), Value::Int(2)]));
    // a Str for an Int slot
    let msg = sql_refusal(c.execute(stmt, &[Value::str("60")]));
    assert!(msg.contains("$1"), "{msg}");
    // refused at Prepare: an untypable parameter, a gap in the
    // numbering, a number beyond u32
    for bad in [
        "SELECT $1 AS x;",
        "SELECT e.name AS who FROM emp AS e WHERE e.sal >= $1 AND e.sal < $3;",
        "SELECT e.name AS who FROM emp AS e WHERE e.sal >= $99999999999999999999;",
    ] {
        sql_refusal(c.prepare(bad));
    }
    // inside a string literal, `$1` is text: the statement takes nothing
    let rs = c.query("SELECT '$1' AS x;").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::str("$1")]]);
    sql_refusal(c.query_params("SELECT '$1' AS x;", &[Value::Int(1)]));
    // every refusal left the session intact
    assert_eq!(c.execute(stmt, &[Value::Int(80)]).unwrap().rows.len(), 1);
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn parameters_are_values_not_text() {
    let (conn, handle) = start(ServerConfig::default());
    conn.database()
        .create_table(
            "pts",
            Schema::of(&[("id", Ty::Int), ("x", Ty::Dbl)]),
            vec!["id"],
        )
        .unwrap();
    conn.database()
        .insert(
            "pts",
            vec![
                vec![Value::Int(1), Value::Dbl(0.125)],
                vec![Value::Int(2), Value::Dbl(0.5)],
                vec![Value::Int(3), Value::Dbl(-2.0)],
            ],
        )
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    // a non-ASCII string
    let rs = c
        .query_params(
            "SELECT e.name || $1 AS tagged FROM emp AS e WHERE e.dept = 'ops';",
            &[Value::str("·héllo ✓")],
        )
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::str("cy·héllo ✓")]]);
    // a Dbl against a Dbl column
    let rs = c
        .query_params(
            "SELECT p.id AS id FROM pts AS p WHERE p.x < $1 ORDER BY id ASC;",
            &[Value::Dbl(0.25)],
        )
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    // an Int >= 0 against a Nat surrogate, and the Nat itself
    let by_rank = "SELECT r.who AS who FROM \
                   (SELECT e.name AS who, ROW_NUMBER () OVER (ORDER BY e.name ASC) AS rn_nat \
                    FROM emp AS e) AS r WHERE r.rn_nat = $1;";
    for v in [Value::Int(2), Value::Nat(2)] {
        let rs = c.query_params(by_rank, &[v]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::str("bob")]]);
    }
    sql_refusal(c.query_params(by_rank, &[Value::Int(-1)]));
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn a_parameter_the_optimizer_folds_away_still_counts() {
    let conn = seeded_connection().with_optimizer(ferry_optimizer::rewriter());
    let handle = Server::bind(conn, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    // `TRUE OR …` folds to TRUE and takes `$1` with it; the statement
    // still takes one Int
    let (stmt, _) = c
        .prepare("SELECT e.name AS who FROM emp AS e WHERE TRUE OR e.sal = $1 ORDER BY who ASC;")
        .unwrap();
    assert_eq!(c.execute(stmt, &[Value::Int(7)]).unwrap().rows.len(), 3);
    sql_refusal(c.execute(stmt, &[]));
    sql_refusal(c.execute(stmt, &[Value::str("7")]));
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn colliding_content_hashes_never_serve_the_wrong_plan() {
    use ferry::shred::{CompiledBundle, QueryDesc, VLayout};
    // the compile path wire statements take, minus the hashing — so the
    // test can force two different texts under one content hash
    fn compile(conn: &Connection, sql: &str, hash: u64) -> CompiledBundle {
        let snap = conn.snapshot();
        let stmt = ferry_sql::parser::parse(sql).unwrap();
        let (plan, root) = ferry_sql::binder::bind(&snap, &stmt).unwrap();
        CompiledBundle {
            plan,
            queries: vec![QueryDesc {
                root,
                is_list: false,
                layout: VLayout::Atom(0),
            }],
            ty: ferry::Ty::Unit,
            opt: None,
            exp_hash: hash,
        }
    }
    let conn = seeded_connection();
    const H: u64 = 0xDEAD_BEEF;
    let one = "SELECT 1 AS x;";
    let two = "SELECT 2 AS x;";
    let a = conn
        .prepare_raw(H, Some(one), |c| Ok(compile(c, one, H)))
        .unwrap();
    // same hash, different text — a crafted FNV collision. The cache
    // must notice the text mismatch and compile fresh, never reuse a's
    // plan.
    let b = conn
        .prepare_raw(H, Some(two), |c| Ok(compile(c, two, H)))
        .unwrap();
    assert_eq!(
        conn.execute_bundle(&a).unwrap()[0].rows()[0],
        vec![Value::Int(1)]
    );
    assert_eq!(
        conn.execute_bundle(&b).unwrap()[0].rows()[0],
        vec![Value::Int(2)]
    );
    // the resident entry is untouched: the original text still gets its
    // own (correct) plan on the next lookup
    let a2 = conn
        .prepare_raw(H, Some(one), |c| Ok(compile(c, one, H)))
        .unwrap();
    assert_eq!(
        conn.execute_bundle(&a2).unwrap()[0].rows()[0],
        vec![Value::Int(1)]
    );
}

#[test]
fn finished_sessions_are_reaped_under_connection_churn() {
    let (_conn, handle) = start(ServerConfig::default());
    // churn: 50 sequential connect/query/close cycles. Each accept
    // reaps already-finished session threads, so the tracked-handle
    // backlog must stay near the live count instead of growing by one
    // per connection ever served.
    for _ in 0..50 {
        let mut c = Client::connect(handle.addr()).unwrap();
        c.query("SELECT 1 AS x").unwrap();
        c.close().unwrap();
    }
    // give the last session threads a moment to exit, then trigger one
    // final reap with a fresh accept
    let mut backlog = usize::MAX;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(10));
        let mut c = Client::connect(handle.addr()).unwrap();
        c.query("SELECT 1 AS x").unwrap();
        backlog = handle.session_backlog();
        c.close().unwrap();
        if backlog <= 5 {
            break;
        }
    }
    assert!(
        backlog <= 5,
        "finished session handles were never reaped: backlog = {backlog}"
    );
    handle.shutdown();
}

#[test]
fn statements_run_on_their_session_thread() {
    let (conn, handle) = start(ServerConfig::default());
    let hold = hold_table(&conn);
    hold.release.send(()).unwrap(); // the scan returns at once
    let mut c = Client::connect(handle.addr()).unwrap();
    one_row(c.query(HOLD));
    let thread = hold.entered.recv_timeout(PATIENCE).unwrap();
    assert!(
        thread.starts_with("ferry-session-"),
        "the statement ran on {thread:?}, not its session's thread"
    );
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn admission_is_exact_under_a_held_statement() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (conn, handle) = start(cfg);
    let hold = hold_table(&conn);
    let depth = queue_depth(&conn);
    let (mut runner, mut waiter, mut third) = (
        connected(handle.addr()),
        connected(handle.addr()),
        connected(handle.addr()),
    );
    // the runner holds the only slot…
    let running = std::thread::spawn(move || {
        let rs = runner.query(HOLD);
        (runner, rs)
    });
    hold.entered.recv_timeout(PATIENCE).unwrap();
    // …the waiter fills the only place in line…
    let waiting = std::thread::spawn(move || {
        let rs = waiter.query(HOLD);
        (waiter, rs)
    });
    wait_until("the waiter to queue", || depth.get() == 1);
    // …so one more statement is refused, and its session survives
    let err = third.query("SELECT 1 AS x").unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::QueueFull,
                ..
            }
        ),
        "{err:?}"
    );
    // release the runner; the waiter takes the freed slot
    hold.release.send(()).unwrap();
    hold.entered.recv_timeout(PATIENCE).unwrap();
    hold.release.send(()).unwrap();
    let (_runner, rs) = running.join().unwrap();
    one_row(rs);
    let (mut waiter, rs) = waiting.join().unwrap();
    one_row(rs);
    assert_eq!(depth.get(), 0);
    one_row(third.query("SELECT 1 AS x"));
    // the wait is attributed to the waiter's own session (ids ascend in
    // connection order: runner, waiter, third)
    let rs = waiter
        .query(
            "SELECT c.id AS id, c.queue_wait_us AS w \
             FROM ferry.connections AS c ORDER BY id ASC;",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    match rs.rows[1][1] {
        Value::Int(w) => assert!(w > 0, "the waiter's queue_wait_us is {w}"),
        ref other => panic!("queue_wait_us should be Int, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn a_panicking_statement_answers_internal_and_frees_its_slot() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (conn, handle) = start(cfg);
    one_row_table(&conn, "ferry.boom", || panic!("provider exploded"));
    let mut c = Client::connect(handle.addr()).unwrap();
    let err = c
        .query("SELECT b.n AS n FROM ferry.boom AS b;")
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Internal,
                ..
            }
        ),
        "{err:?}"
    );
    // the session survives and the only slot was released: this session
    // and another one both still get statements through
    one_row(c.query("SELECT 1 AS x"));
    one_row(
        Client::connect(handle.addr())
            .unwrap()
            .query("SELECT 1 AS x"),
    );
    c.close().unwrap();
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_and_refuses_late_arrivals() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    };
    let (conn, handle) = start(cfg);
    let hold = hold_table(&conn);
    let depth = queue_depth(&conn);
    let addr = handle.addr();
    // one statement running inside the held scan, one waiting for the slot
    let runner = std::thread::spawn(move || Client::connect(addr).unwrap().query(HOLD));
    hold.entered.recv_timeout(PATIENCE).unwrap();
    let waiter = std::thread::spawn(move || Client::connect(addr).unwrap().query(HOLD));
    wait_until("the waiter to queue", || depth.get() == 1);
    let stopping = std::thread::spawn(move || handle.shutdown());
    // the listener closes only after the stop flag is up
    wait_until("the listener to close", || Client::connect(addr).is_err());
    hold.release.send(()).unwrap();
    hold.release.send(()).unwrap();
    // both drain with their rows — never a refusal, a hang or a torn
    // response
    one_row(runner.join().unwrap());
    one_row(waiter.join().unwrap());
    stopping.join().unwrap();
    // the listener is gone: late arrivals cannot connect, or are cut
    // before being served
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => assert!(late.query("SELECT 1 AS x").is_err()),
    }
}
