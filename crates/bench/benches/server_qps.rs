//! Loopback throughput of the wire protocol: prepared re-execution
//! through `ferry-server` — one client, four concurrent clients, and one
//! client whose parameter changes on every execution.
//!
//! What one iteration pays: frame encode/decode both ways, one
//! statement-slot admission on the session's thread, one plan-cache
//! hit, one engine dispatch over a pinned snapshot, and the chunked
//! result stream back (≈ 500 rows). The 4-client variant measures four
//! sessions running their statements at once under the default four
//! slots (on a 1-core host this is interleaving, not parallelism). The
//! varying-parameter variant runs the same statement as a template,
//! `WHERE n.v >= $1` with `$1` cycling through 0..1000: every execution
//! is still the one plan-cache hit, plus binding `$1` into a copy of the
//! plan — so it should sit within noise of the fixed statement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ferry::Connection;
use ferry_algebra::{Schema, Ty, Value};
use ferry_engine::Database;
use ferry_server::{Client, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::mpsc;

const ROWS: i64 = 1000;
const STMT: &str = "SELECT n.k AS k, n.v AS v FROM nums AS n \
                    WHERE n.v >= 500 ORDER BY k ASC;";
const TEMPLATE: &str = "SELECT n.k AS k, n.v AS v FROM nums AS n \
                        WHERE n.v >= $1 ORDER BY k ASC;";

fn start_server() -> ServerHandle {
    let db = Database::new();
    db.create_table(
        "nums",
        Schema::of(&[("k", Ty::Int), ("v", Ty::Int)]),
        vec!["k"],
    )
    .unwrap();
    db.insert(
        "nums",
        (0..ROWS)
            .map(|k| vec![Value::Int(k), Value::Int((k * 37) % 1000)])
            .collect(),
    )
    .unwrap();
    Server::bind(Connection::new(db), "127.0.0.1:0", ServerConfig::default()).unwrap()
}

/// A client thread that runs one prepared execution per `go` signal.
struct Runner {
    go: mpsc::Sender<()>,
    done: mpsc::Receiver<usize>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Runner {
    fn spawn(addr: SocketAddr) -> Runner {
        let (go, go_rx) = mpsc::channel::<()>();
        let (done_tx, done) = mpsc::channel::<usize>();
        let handle = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let (stmt, _) = c.prepare(STMT).unwrap();
            while go_rx.recv().is_ok() {
                let rs = c.execute(stmt, &[]).unwrap();
                done_tx.send(black_box(rs.rows.len())).unwrap();
            }
            let _ = c.close();
        });
        Runner {
            go,
            done,
            handle: Some(handle),
        }
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        let (tx, _) = mpsc::channel();
        self.go = tx; // close the original sender: the thread's recv errors
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn bench_server_qps(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();

    let mut group = c.benchmark_group("server");
    group.sample_size(20);

    {
        let mut client = Client::connect(addr).unwrap();
        let (stmt, _) = client.prepare(STMT).unwrap();
        group.bench_function(format!("qps_1client/{ROWS}"), |b| {
            b.iter(|| {
                let rs = client.execute(stmt, &[]).unwrap();
                black_box(rs.rows.len())
            })
        });
        let _ = client.close();
    }

    {
        let mut client = Client::connect(addr).unwrap();
        let (stmt, _) = client.prepare(TEMPLATE).unwrap();
        let mut v = 0;
        group.bench_function(format!("qps_varying_params/{ROWS}"), |b| {
            b.iter(|| {
                // a stride coprime to ROWS visits every value, and the
                // shim's ~20 timed iterations spread over the whole
                // range (≈ 500 rows at the median, like STMT) instead
                // of sitting at its low end
                v = (v + 617) % ROWS;
                let rs = client.execute(stmt, &[Value::Int(v)]).unwrap();
                black_box(rs.rows.len())
            })
        });
        let _ = client.close();
    }

    {
        let runners: Vec<Runner> = (0..4).map(|_| Runner::spawn(addr)).collect();
        group.bench_function(format!("qps_4clients/{ROWS}"), |b| {
            b.iter(|| {
                for r in &runners {
                    r.go.send(()).unwrap();
                }
                let mut total = 0;
                for r in &runners {
                    total += r.done.recv().unwrap();
                }
                black_box(total)
            })
        });
    }

    group.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_server_qps);
criterion_main!(benches);
