//! End-to-end telemetry: query-scoped span traces across the whole
//! pipeline (compile → optimize → execute), the Chrome-trace export, the
//! bounded trace/profile rings, and the disabled-mode guarantees.
//!
//! The acceptance query is the paper's running example (a 2-root bundle):
//! one `from_q` under `TelemetryConfig::Full` must yield a single trace
//! containing the compile span, at least one optimizer-pass span, and one
//! `exec.node` span per executed plan node — all carrying the same trace
//! id and filed under the engine-assigned query id.

use ferry::prelude::*;
use ferry_algebra::{BinOp, Expr, Plan, Schema, Ty, Value};
use ferry_bench::table1::dsh_query;
use ferry_bench::workload::paper_dataset;
use ferry_engine::Database;
use ferry_telemetry::AttrVal;

fn traced_conn() -> Connection {
    let conn = Connection::new(paper_dataset()).with_optimizer(ferry_optimizer::rewriter());
    conn.set_telemetry_config(TelemetryConfig::Full);
    conn
}

fn nums_db(rows: i64) -> Database {
    let db = Database::new();
    db.create_table("nums", Schema::of(&[("n", Ty::Int)]), vec!["n"])
        .unwrap();
    db.insert("nums", (1..=rows).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db
}

#[test]
fn full_trace_covers_compile_optimizer_and_every_node() {
    let conn = traced_conn();
    let result: Vec<(String, Vec<String>)> = conn.from_q(&dsh_query()).unwrap();
    assert!(!result.is_empty());

    let qid = conn.last_query_id();
    let trace = conn.telemetry().trace_for_query(qid).expect("trace filed");
    assert!(
        trace.spans.iter().all(|s| s.trace == trace.trace_id),
        "every span carries the trace id"
    );

    // synthesized root, carrying the engine-assigned query id
    let root = &trace.spans[0];
    assert_eq!(root.name, "query");
    assert_eq!(root.parent, 0);
    assert!(root.attrs.contains(&("query_id", AttrVal::UInt(qid))));

    // frontend stages
    let has = |name: &str, cat: &str| trace.spans.iter().any(|s| s.name == name && s.cat == cat);
    assert!(has("prepare", "runtime"), "prepare span");
    assert!(has("compile", "compile"), "compile span");
    assert!(has("loop_lift", "compile"), "loop-lift span");
    assert!(has("shred", "compile"), "shred span");
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.cat == "optimize" && s.name != "optimize"),
        "at least one optimizer pass span: {:?}",
        trace.spans
    );
    assert!(has("stitch", "runtime"), "stitch span");

    // one exec.node span per executed plan node of this dispatch
    let stats = conn.database().stats();
    let profile = stats.profiles.get(qid).expect("profile retained");
    assert_eq!(profile.roots, 2, "the running example is a 2-root bundle");
    assert!(!profile.nodes.is_empty());
    for p in &profile.nodes {
        assert!(
            trace.spans.iter().any(|s| s.cat == "exec.node"
                && s.name == p.label
                && s.attrs.contains(&("node", AttrVal::UInt(p.node as u64)))),
            "missing exec.node span for node {} ({})",
            p.node,
            p.label
        );
    }
    let node_spans = trace.spans.iter().filter(|s| s.cat == "exec.node").count();
    assert_eq!(
        node_spans,
        profile.nodes.len(),
        "one span per evaluated node"
    );
    assert_eq!(profile.trace_id, trace.trace_id);
}

/// Minimal recursive-descent JSON validator — enough to prove the export
/// is well-formed without a JSON dependency.
mod json {
    pub fn validate(s: &str) -> Result<(), String> {
        let mut p = P {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(())
    }

    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl P<'_> {
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<(), String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string(),
                Some(b't') => self.literal("true"),
                Some(b'f') => self.literal("false"),
                Some(b'n') => self.literal("null"),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(format!("unexpected {other:?} at byte {}", self.i)),
            }
        }
        fn object(&mut self) -> Result<(), String> {
            self.eat(b'{')?;
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.ws();
                self.value()?;
                self.ws();
                if self.peek() == Some(b',') {
                    self.i += 1;
                } else {
                    return self.eat(b'}');
                }
            }
        }
        fn array(&mut self) -> Result<(), String> {
            self.eat(b'[')?;
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.value()?;
                self.ws();
                if self.peek() == Some(b',') {
                    self.i += 1;
                } else {
                    return self.eat(b']');
                }
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        // escape: skip the escaped byte (\uXXXX included —
                        // the hex digits are plain bytes)
                        self.i += 1;
                    }
                    0x00..=0x1f => return Err(format!("raw control byte at {}", self.i - 1)),
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            while matches!(
                self.peek(),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
            text.parse::<f64>()
                .map(|_| ())
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
    }
}

#[test]
fn trace_json_is_valid_chrome_trace_with_monotone_timestamps() {
    let conn = traced_conn();
    let _: Vec<(String, Vec<String>)> = conn.from_q(&dsh_query()).unwrap();
    let qid = conn.last_query_id();

    let out = conn.trace_json_for(qid).expect("trace exported");
    assert_eq!(conn.trace_json(), Some(out.clone()), "latest == by-id here");
    json::validate(&out).expect("chrome trace JSON parses");

    // chrome trace format markers
    assert!(out.starts_with("{\"traceEvents\":["), "{out}");
    assert!(out.contains("\"ph\":\"X\""), "complete events: {out}");
    assert!(out.contains("\"displayTimeUnit\":\"ms\""), "{out}");
    assert!(out.contains("\"pid\":1"), "{out}");
    assert!(
        out.contains(&format!(
            "\"otherData\":{{\"trace_id\":{},\"query_id\":{qid}}}",
            { conn.telemetry().trace_for_query(qid).unwrap().trace_id }
        )),
        "trace/query ids in otherData: {out}"
    );

    // events are emitted sorted by start time: "ts" is monotone
    let ts: Vec<f64> = out
        .match_indices("\"ts\":")
        .map(|(i, m)| {
            let rest = &out[i + m.len()..];
            let end = rest
                .find(|c: char| c != '.' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().expect("ts is a number")
        })
        .collect();
    assert!(ts.len() >= 4, "root + compile + optimize + nodes: {out}");
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "timestamps monotone: {ts:?}"
    );
}

/// One query, one thread: a dispatch large enough to have run on worker
/// threads under intra-query parallelism records every `exec.*` span on
/// the thread that dispatched it, inside the query's trace, under the
/// dispatch span.
#[test]
fn one_query_runs_on_the_dispatching_thread() {
    let db = Database::new();
    db.set_telemetry_config(TelemetryConfig::Full);

    let mut plan = Plan::new();
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| vec![Value::Int(i), Value::Int(i % 10)])
        .collect();
    let l = plan.lit(Schema::of(&[("a", Ty::Int), ("k", Ty::Int)]), rows);
    let f = plan.select(l, Expr::bin(BinOp::Lt, Expr::col("k"), Expr::lit(5i64)));

    let telemetry = db.telemetry().clone();
    let guard = telemetry.begin_query_forced(0);
    let rel = db.execute(&plan, f).unwrap();
    assert_eq!(rel.len(), 5_000);
    std::mem::drop(guard); // `drop` the combinator shadows `mem::drop` here

    let trace = telemetry.latest_trace().unwrap();
    let dispatch = trace
        .spans
        .iter()
        .find(|s| s.cat == "engine")
        .expect("dispatch span");
    let parent_of = |id: u64| trace.spans.iter().find(|s| s.id == id).map(|s| s.parent);
    let exec: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.cat.starts_with("exec."))
        .collect();
    assert!(!exec.is_empty(), "the select records an exec span");
    for s in &exec {
        assert_eq!(s.tid, dispatch.tid, "{s:?} ran off the dispatching thread");
        assert_eq!(s.trace, trace.trace_id, "{s:?} left the query's trace");
        let mut up = s.parent;
        while up != 0 && up != dispatch.id {
            up = parent_of(up).unwrap_or(0);
        }
        assert_eq!(up, dispatch.id, "{s:?} is not under the dispatch span");
    }
}

#[test]
fn trace_and_profile_rings_keep_the_last_16_queries() {
    let conn = Connection::new(nums_db(5));
    conn.set_telemetry_config(TelemetryConfig::Full);
    for _ in 0..20 {
        let got: Vec<i64> = conn.from_q(&table::<i64>("nums")).unwrap();
        assert_eq!(got.len(), 5);
    }
    assert_eq!(conn.last_query_id(), 20);

    let traces = conn.telemetry().traces();
    assert_eq!(traces.len(), 16);
    let qids: Vec<u64> = traces.iter().map(|t| t.query_id).collect();
    assert_eq!(qids, (5..=20).collect::<Vec<u64>>());

    let stats = conn.database().stats();
    assert_eq!(stats.profiles.len(), 16);
    assert_eq!(stats.latest_profile().unwrap().query_id, 20);
    assert!(stats.profiles.get(4).is_none(), "evicted");
    assert!(conn.trace_json_for(4).is_none(), "evicted");
    assert!(conn.trace_json_for(17).is_some());
}

#[test]
fn explain_analyze_renders_report_profile_and_timeline() {
    let conn = Connection::new(paper_dataset()).with_optimizer(ferry_optimizer::rewriter());
    // default config (Counters): the timeline still renders because
    // explain_analyze forces a trace for its own execution
    let out = conn.explain_analyze(&dsh_query()).unwrap();

    assert!(out.contains("optimizer: "), "opt report header: {out}");
    assert!(out.contains("join_recovery"), "per-pass lines: {out}");
    assert!(out.contains("-- execution profile"), "{out}");
    assert!(out.contains("rows out"), "{out}");
    assert!(out.contains("-- timeline"), "{out}");
    assert!(out.contains("[compile]"), "frontend in timeline: {out}");
    assert!(
        out.contains("[exec.node]"),
        "executed nodes in timeline: {out}"
    );
    // every node line carries its ledger, and the summary line is the
    // dispatch's totals: the running example's ledger counts
    // (`tests/ledger.rs`)
    let nodes: Vec<&str> = out.lines().filter(|l| l.starts_with("node ")).collect();
    assert_eq!(nodes.len(), 84, "{out}");
    for l in &nodes {
        assert!(
            l.contains(" sorted ") && l.contains(" hashed ") && l.contains(" converted "),
            "{l}"
        );
    }
    assert!(
        out.lines().any(|l| l
            == "nodes: 84  kernel batches: 39  sorts: 4 (52 rows)  \
                hash builds: 19 (329 rows)  rows converted: 0"),
        "{out}"
    );
    assert!(!out.contains("shard"), "no shard counters: {out}");

    // plain explain carries the optimizer report too, without executing
    let conn2 = Connection::new(paper_dataset()).with_optimizer(ferry_optimizer::rewriter());
    let explain = conn2.explain(&dsh_query()).unwrap();
    assert!(explain.contains("optimizer: "), "{explain}");
    assert_eq!(
        conn2.database().stats().queries,
        0,
        "explain never executes"
    );
}
