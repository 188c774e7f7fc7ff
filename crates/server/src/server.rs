//! The server: accept loop, session threads, admission control, and
//! drain-then-close shutdown.
//!
//! Threading model — one thread per live connection. It reads a frame,
//! runs the statement (parse, bind, compile, execute) and writes the
//! response, so responses stay ordered per connection and a request's
//! spans all land on one thread.
//!
//! Admission control is two gates with typed refusals:
//!
//! 1. **connection limit** — accepts beyond `max_connections` get one
//!    `Busy` error frame and are closed;
//! 2. **statement slots** — at most `workers` statements execute at
//!    once and at most `queue_depth` sessions wait for a slot, first
//!    come, first served; one more gets a `QueueFull` error frame (the
//!    connection survives).
//!
//! Shutdown drains: the stop flag refuses new accepts and new requests
//! (`ShuttingDown`), in-flight and waiting statements finish and their
//! responses are written, then session threads are joined. Embedders
//! handle SIGTERM by calling [`ServerHandle::shutdown`] (no
//! signal-handling crate in this offline workspace); dropping the
//! handle does the same.

use crate::frame::{self, FrameError, Poll};
use crate::proto::{self, ErrorCode, ProtoError, Request, Response};
use crate::session::{
    prepare_sql, run_statement, Reject, SessionInfo, SessionRegistry, Statements,
};
use ferry::Connection;
use ferry_algebra::{Rel, Schema};
use ferry_telemetry::{names, Counter, Gauge, Histogram};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables. The defaults suit tests and small deployments; production
/// embedders size `workers` to cores and the queue to tolerable wait.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Live-connection ceiling; accepts beyond it are refused `Busy`.
    pub max_connections: usize,
    /// Statements executing at once.
    pub workers: usize,
    /// Sessions that may wait for a statement slot; one more is refused
    /// `QueueFull`.
    pub queue_depth: usize,
    /// Rows per `RowBatch` frame.
    pub chunk_rows: usize,
    /// Socket read poll interval — the latency with which idle
    /// sessions and the accept loop observe shutdown.
    pub poll_interval: Duration,
    /// How long a mid-frame read may keep draining after shutdown
    /// begins before the connection is cut.
    pub drain_grace: Duration,
    /// Per-write socket timeout, so a stalled client cannot wedge a
    /// session thread (and thereby shutdown) forever.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            workers: 4,
            queue_depth: 16,
            chunk_rows: 1024,
            poll_interval: Duration::from_millis(25),
            drain_grace: Duration::from_secs(2),
            write_timeout: Duration::from_secs(30),
        }
    }
}

struct Metrics {
    accepts: Arc<Counter>,
    rejects: Arc<Counter>,
    connections: Arc<Gauge>,
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
}

struct Shared {
    conn: Connection,
    cfg: ServerConfig,
    stop: AtomicBool,
    registry: Arc<SessionRegistry>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
    admission: Admission,
    m: Metrics,
}

/// The statement-slot gate: a counter of running statements and a
/// ticket line of waiting sessions. Tickets make the line first come,
/// first served; the line's length is `server.queue_depth` and each
/// admission's wait is one `server.queue_wait_ns` sample.
struct Admission {
    slots: usize,
    line: u64,
    state: Mutex<Tickets>,
    freed: Condvar,
    depth: Arc<Gauge>,
    wait: Arc<Histogram>,
}

#[derive(Default)]
struct Tickets {
    running: usize,
    /// Tickets handed out and tickets admitted: `issued - admitted`
    /// sessions are waiting.
    issued: u64,
    admitted: u64,
}

/// One held statement slot, released on drop — unwinding included. No
/// code panics while holding the `Tickets` lock, and each update leaves
/// the counters valid, so a poisoned lock is recovered, never a panic.
struct Permit<'a>(&'a Admission);

impl Admission {
    /// Wait for a slot; `None` when the line is already full.
    fn enter(&self) -> Option<(Permit<'_>, Duration)> {
        let queued = Instant::now();
        let mut t = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = t.issued;
        let must_wait = t.running >= self.slots || t.admitted != ticket;
        if must_wait && ticket - t.admitted >= self.line {
            return None;
        }
        t.issued += 1;
        if must_wait {
            self.depth.add(1);
            t = self
                .freed
                .wait_while(t, |t| t.running >= self.slots || t.admitted != ticket)
                .unwrap_or_else(PoisonError::into_inner);
            self.depth.add(-1);
        }
        t.admitted += 1;
        t.running += 1;
        if t.issued != t.admitted {
            // the next ticket may find a slot free too
            self.freed.notify_all();
        }
        drop(t);
        let waited = queued.elapsed();
        self.wait.record(waited.as_nanos() as u64);
        Some((Permit(self), waited))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut t = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        t.running -= 1;
        let waiting = t.issued != t.admitted;
        drop(t);
        if waiting {
            self.0.freed.notify_all();
        }
    }
}

/// Namespace for [`Server::bind`].
pub struct Server;

impl Server {
    /// Bind `addr`, register `ferry.connections` and the `server.*`
    /// metrics on the connection's database, and start accepting.
    pub fn bind(
        conn: Connection,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let conflict = |e: ferry_telemetry::MetricTypeConflict| io::Error::other(e.to_string());
        let telemetry = conn.telemetry();
        let reg = telemetry.registry();
        let m = Metrics {
            accepts: reg.counter(names::SERVER_ACCEPTS).map_err(conflict)?,
            rejects: reg.counter(names::SERVER_REJECTS).map_err(conflict)?,
            connections: reg.gauge(names::SERVER_CONNECTIONS).map_err(conflict)?,
            requests: reg.counter(names::SERVER_REQUESTS).map_err(conflict)?,
            latency: reg
                .histogram(names::SERVER_REQUEST_LATENCY_NS)
                .map_err(conflict)?,
        };
        let depth = reg.gauge(names::SERVER_QUEUE_DEPTH).map_err(conflict)?;
        let wait = reg
            .histogram(names::SERVER_QUEUE_WAIT_NS)
            .map_err(conflict)?;

        let registry = Arc::new(SessionRegistry::new());
        let provider = registry.clone();
        let (schema, keys) = SessionRegistry::table_schema();
        conn.database()
            .register_system_table(
                "ferry.connections",
                schema,
                keys,
                Arc::new(move || provider.rows()),
            )
            .map_err(|e| io::Error::other(e.to_string()))?;

        let admission = Admission {
            slots: cfg.workers.max(1),
            line: cfg.queue_depth.max(1) as u64,
            state: Mutex::default(),
            freed: Condvar::new(),
            depth,
            wait,
        };
        let shared = Arc::new(Shared {
            conn,
            cfg,
            stop: AtomicBool::new(false),
            registry,
            sessions: Mutex::new(Vec::new()),
            admission,
            m,
        });
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ferry-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running server. Dropping it performs a full graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live sessions right now.
    pub fn live_sessions(&self) -> usize {
        self.shared.registry.len()
    }

    /// Session threads whose `JoinHandle`s are still tracked: live
    /// sessions plus any finished-but-not-yet-reaped. The accept loop
    /// reaps finished handles on every accept, so this stays bounded
    /// under connection churn instead of growing by one per connection
    /// ever served. Exposed for tests and diagnostics.
    pub fn session_backlog(&self) -> usize {
        self.shared.sessions.lock().unwrap().len()
    }

    /// Drain-then-close: refuse new accepts and new requests, let
    /// in-flight and waiting statements finish and flush, then join
    /// every session thread.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = accept.join(); // nonblocking loop: observes stop within poll_interval
        let sessions: Vec<_> = self.shared.sessions.lock().unwrap().drain(..).collect();
        for h in sessions {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// Join (and drop) session threads that have already exited. Called
/// from the accept loop so connection churn does not accumulate one
/// `JoinHandle` per connection ever accepted — the vector stays
/// bounded by the number of live sessions. Joining a finished thread
/// returns immediately.
fn reap_finished_sessions(sessions: &Mutex<Vec<JoinHandle<()>>>) {
    let mut guard = sessions.lock().unwrap();
    let mut i = 0;
    while i < guard.len() {
        if guard[i].is_finished() {
            let h = guard.swap_remove(i);
            let _ = h.join();
        } else {
            i += 1;
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let (stream, peer) = match listener.accept() {
            Ok(x) => x,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval);
                continue;
            }
            Err(_) => {
                std::thread::sleep(shared.cfg.poll_interval);
                continue;
            }
        };
        // accepted sockets may inherit the listener's nonblocking mode;
        // sessions drive their own timeouts
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // a response is several small frames (header, batches, done);
        // Nagle + delayed ACK would serialise them at ~40ms each
        let _ = stream.set_nodelay(true);
        if shared.stop.load(Ordering::SeqCst) {
            shared.m.rejects.inc();
            refuse_connection(&stream, ErrorCode::ShuttingDown, "server is draining");
            continue;
        }
        if shared.registry.len() >= shared.cfg.max_connections {
            shared.m.rejects.inc();
            refuse_connection(&stream, ErrorCode::Busy, "connection limit reached");
            continue;
        }
        reap_finished_sessions(&shared.sessions);
        shared.m.accepts.inc();
        shared.m.connections.add(1);
        let info = shared.registry.register(peer.to_string());
        let id = info.id;
        let session_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("ferry-session-{id}"))
            .spawn(move || run_session(&session_shared, &stream, &info));
        match spawned {
            Ok(h) => shared.sessions.lock().unwrap().push(h),
            Err(_) => {
                // undo the registration; the guard never ran
                shared.registry.remove(id);
                shared.m.connections.add(-1);
            }
        }
    }
}

/// One typed error frame on a connection we are not keeping, with a
/// short write timeout so a non-reading peer cannot stall the accept
/// loop.
fn refuse_connection(stream: &TcpStream, code: ErrorCode, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut w = stream;
    let _ = write_response(
        &mut w,
        &Response::Error {
            code,
            message: message.to_string(),
        },
    );
}

fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), FrameError> {
    frame::write_wire_frame(w, &proto::encode_response(resp))
}

/// Removes the session from the registry and the gauge when the thread
/// exits, however it exits.
struct SessionGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.shared.registry.remove(self.id);
        self.shared.m.connections.add(-1);
    }
}

fn run_session(shared: &Shared, stream: &TcpStream, info: &Arc<SessionInfo>) {
    let _guard = SessionGuard {
        shared,
        id: info.id,
    };
    if stream
        .set_read_timeout(Some(shared.cfg.poll_interval))
        .is_err()
    {
        return;
    }
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut stmts = Statements::default();
    let mut stop_seen: Option<Instant> = None;
    let mut poll = |mid_frame: bool| {
        if !shared.stop.load(Ordering::SeqCst) {
            return Poll::Continue;
        }
        let seen = *stop_seen.get_or_insert_with(Instant::now);
        if mid_frame && seen.elapsed() <= shared.cfg.drain_grace {
            Poll::Continue
        } else {
            Poll::Stop
        }
    };
    let mut r = stream;
    loop {
        let payload = match frame::read_wire_frame(&mut r, &mut poll) {
            Ok(Some(p)) => p,
            // shutdown drain finished, or the peer said goodbye
            Ok(None) | Err(FrameError::Closed) => return,
            Err(FrameError::Malformed(detail)) => {
                // the stream cannot resync — one typed goodbye, then close
                let mut w = stream;
                let _ = write_response(
                    &mut w,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: detail,
                    },
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let started = Instant::now();
        let req = match proto::decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                // the frame itself was intact, so the session survives a
                // bad message — answer typed and keep reading
                let code = match e {
                    ProtoError::Version(_) => ErrorCode::Unsupported,
                    ProtoError::UnknownTag(_) | ProtoError::Codec(_) => ErrorCode::Malformed,
                };
                let mut w = stream;
                let ok = write_response(
                    &mut w,
                    &Response::Error {
                        code,
                        message: e.to_string(),
                    },
                )
                .is_ok();
                finish_request(shared, info, started);
                if ok {
                    continue;
                }
                return;
            }
        };
        if !handle_request(shared, stream, info, &mut stmts, req, started) {
            return;
        }
    }
}

fn finish_request(shared: &Shared, info: &SessionInfo, started: Instant) {
    shared.m.requests.inc();
    shared.m.latency.record(started.elapsed().as_nanos() as u64);
    info.queries.fetch_add(1, Ordering::Relaxed);
}

/// Run one statement on this session's thread once it holds a slot,
/// turning a full line into the typed `QueueFull` refusal. The
/// statement runs under `catch_unwind`: a panic answers `Internal`, and
/// the session and its slot survive.
fn admitted<T>(
    shared: &Shared,
    info: &SessionInfo,
    stmt: impl FnOnce() -> Result<T, Reject>,
) -> Result<T, Reject> {
    let Some((_permit, waited)) = shared.admission.enter() else {
        shared.m.rejects.inc();
        return Err(Reject::new(
            ErrorCode::QueueFull,
            "every statement slot is busy and the wait line is full",
        ));
    };
    info.queue_wait_us
        .fetch_add(waited.as_micros() as i64, Ordering::Relaxed);
    catch_unwind(AssertUnwindSafe(stmt)).unwrap_or_else(|_| {
        Err(Reject::new(
            ErrorCode::Internal,
            "statement execution aborted by a panic",
        ))
    })
}

/// Stream a result as `ResultHeader`, bounded `RowBatch` chunks encoded
/// straight from `rel`'s columns, and `ResultDone`.
fn stream_result(
    w: &mut impl Write,
    schema: Schema,
    rel: &Rel,
    chunk_rows: usize,
) -> Result<(), FrameError> {
    write_response(w, &Response::ResultHeader { schema })?;
    let (total, chunk) = (rel.len(), chunk_rows.max(1));
    for lo in (0..total).step_by(chunk) {
        let batch = proto::encode_row_batch(rel, lo..total.min(lo + chunk));
        frame::write_wire_frame(w, &batch)?;
    }
    write_response(w, &Response::ResultDone { rows: total as u64 })
}

/// Handle one decoded request; returns whether the session survives.
fn handle_request(
    shared: &Shared,
    stream: &TcpStream,
    info: &Arc<SessionInfo>,
    stmts: &mut Statements,
    req: Request,
    started: Instant,
) -> bool {
    let mut w = stream;
    match req {
        Request::Close => {
            let _ = write_response(&mut w, &Response::CloseAck);
            finish_request(shared, info, started);
            false
        }
        Request::Metrics => {
            let text = shared.conn.telemetry().registry().render_prometheus();
            let ok = write_response(&mut w, &Response::MetricsText { text }).is_ok();
            finish_request(shared, info, started);
            ok
        }
        Request::Prepare { sql } => {
            let result = statement_gate(shared)
                .and_then(|()| admitted(shared, info, || prepare_sql(&shared.conn, &sql)));
            let resp = match result {
                Ok((_, schema)) => {
                    let stmt = stmts.insert(Arc::from(sql.as_str()));
                    info.statements.store(stmts.len() as i64, Ordering::Relaxed);
                    Response::PrepareOk { stmt, schema }
                }
                Err(rej) => rej.response(),
            };
            let ok = write_response(&mut w, &resp).is_ok();
            finish_request(shared, info, started);
            ok
        }
        Request::Execute { stmt, params } => {
            let result = statement_gate(shared)
                .and_then(|()| stmts.get(stmt))
                .and_then(|sql| {
                    admitted(shared, info, || run_statement(&shared.conn, &sql, &params))
                });
            let ok = respond_result(stream, shared, result);
            finish_request(shared, info, started);
            ok
        }
        Request::Query { sql, params } => {
            let result = statement_gate(shared).and_then(|()| {
                admitted(shared, info, || run_statement(&shared.conn, &sql, &params))
            });
            let ok = respond_result(stream, shared, result);
            finish_request(shared, info, started);
            ok
        }
    }
}

/// New statement work is refused once shutdown has begun; statements
/// already running or waiting for a slot when the flag flipped drain
/// normally.
fn statement_gate(shared: &Shared) -> Result<(), Reject> {
    if shared.stop.load(Ordering::SeqCst) {
        shared.m.rejects.inc();
        Err(Reject::new(
            ErrorCode::ShuttingDown,
            "server is draining; no new statements",
        ))
    } else {
        Ok(())
    }
}

fn respond_result(
    stream: &TcpStream,
    shared: &Shared,
    result: Result<(Schema, Rel), Reject>,
) -> bool {
    let mut w = stream;
    match result {
        Ok((schema, rel)) => stream_result(&mut w, schema, &rel, shared.cfg.chunk_rows).is_ok(),
        Err(rej) => write_response(&mut w, &rej.response()).is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferry_algebra::{rows_converted, Row, Ty, Value};
    use ferry_engine::Database;

    /// `n` visible rows of all six column types, seen through a reversing
    /// selection vector that skips the columns' first two rows.
    fn view(n: usize) -> Rel {
        let schema = Schema::of(&[
            ("i", Ty::Int),
            ("n", Ty::Nat),
            ("d", Ty::Dbl),
            ("b", Ty::Bool),
            ("s", Ty::Str),
            ("u", Ty::Unit),
        ]);
        let dbls = [0.5, -0.0, f64::NAN, f64::INFINITY];
        let strs = ["", "ascii", "Grüße, 世界"];
        let rows: Vec<Row> = (0..n + 2)
            .map(|k| {
                vec![
                    Value::Int(k as i64 - 3),
                    Value::Nat(k as u64 * 7),
                    Value::Dbl(dbls[k % dbls.len()]),
                    Value::Bool(k % 2 == 0),
                    Value::str(strs[k % strs.len()]),
                    Value::Unit,
                ]
            })
            .collect();
        Rel::new(schema, rows).with_sel((2..n as u32 + 2).rev().collect())
    }

    /// What the stream was before it read columns: one `RowBatch` per
    /// chunk of the result's rows.
    fn row_stream(schema: &Schema, rows: &[Row], chunk_rows: usize) -> Vec<u8> {
        let mut w = Vec::new();
        write_response(
            &mut w,
            &Response::ResultHeader {
                schema: schema.clone(),
            },
        )
        .unwrap();
        for chunk in rows.chunks(chunk_rows) {
            let batch = Response::RowBatch {
                rows: chunk.to_vec(),
            };
            write_response(&mut w, &batch).unwrap();
        }
        write_response(
            &mut w,
            &Response::ResultDone {
                rows: rows.len() as u64,
            },
        )
        .unwrap();
        w
    }

    #[test]
    fn row_batches_from_columns_are_the_row_frames_byte_for_byte() {
        let chunk = ServerConfig::default().chunk_rows;
        for n in [0, 1, chunk, chunk + 1] {
            let rel = view(n);
            let rows = rel.rows().into_owned();
            let bytes = proto::encode_row_batch(&rel, 0..n);
            let resp = Response::RowBatch { rows };
            assert_eq!(bytes, proto::encode_response(&resp), "{n} rows");
            assert_eq!(proto::decode_response(&bytes), Ok(resp.clone()), "{n} rows");
            let Response::RowBatch { rows } = resp else {
                unreachable!()
            };
            let mut streamed = Vec::new();
            stream_result(&mut streamed, rel.schema.clone(), &rel, chunk).unwrap();
            assert_eq!(streamed, row_stream(&rel.schema, &rows, chunk), "{n} rows");
        }
    }

    #[test]
    fn a_statement_and_its_stream_convert_no_row() {
        let db = Database::new();
        let schema = Schema::of(&[
            ("d", Ty::Dbl),
            ("i", Ty::Int),
            ("ok", Ty::Bool),
            ("s", Ty::Str),
        ]);
        db.create_table("t", schema, vec!["i"]).unwrap();
        let rows = (0..3000)
            .map(|k| {
                vec![
                    Value::Dbl(k as f64 / 4.0),
                    Value::Int(k),
                    Value::Bool(k % 3 == 0),
                    Value::str(format!("s{}", k % 17)),
                ]
            })
            .collect();
        db.insert("t", rows).unwrap();
        let conn = Connection::new(db);
        let sql = "SELECT t.i AS i, t.s AS s, t.d AS d FROM t AS t WHERE t.ok;";
        let before = rows_converted();
        let (schema, rel) = run_statement(&conn, sql, &[]).unwrap();
        let mut streamed = Vec::new();
        stream_result(&mut streamed, schema.clone(), &rel, 1024).unwrap();
        assert_eq!(rows_converted() - before, 0);
        assert_eq!(rel.len(), 1000);
        assert_eq!(streamed, row_stream(&schema, &rel.rows(), 1024));
    }
}
