//! Output: the result line of a single-workload run, the per-layer
//! metric assembly, and suite mode — every workload in its own child
//! process, one after the other, with the metric tables, the layer ×
//! workload share table, and the repeatability check.

use crate::measure::{self, Pass};
use crate::sut::WireServer;
use crate::trace::{self, Breakdown, Layer, Recorder};
use crate::workloads::{Extras, SPECS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// What a single-workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one JSON object the run ends with.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics: name, unit, and the share of the parent's
/// median by which each may get worse (mirrors `end_to_end` in
/// BENCHMARK.json; `--repeat` holds two runs of one commit to the same
/// bounds).
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("run_ms_p50", "ms", 0.25),
    ("runs_per_s", "1/s", 0.25),
    ("setup_s", "s", 0.25),
    ("queries_per_run", "count", 0.01),
];

/// Every per-layer metric, in output order (mirrors `per_layer` in
/// BENCHMARK.json). A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.looplift_us", "us"),
    ("core.plan_nodes", "count"),
    ("core.stitch_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("optimizer.rewrite_us", "us"),
    ("optimizer.pass_us.join_recovery", "us"),
    ("optimizer.pass_us.cse", "us"),
    ("optimizer.pass_us.fold_constants", "us"),
    ("optimizer.pass_us.prune_columns", "us"),
    ("optimizer.pass_us.merge_projects", "us"),
    ("optimizer.nodes_in", "count"),
    ("optimizer.nodes_out", "count"),
    ("optimizer.rewrites", "count"),
    ("sql.codegen_us", "us"),
    ("sql.parse_bind_us", "us"),
    ("sql.chars", "count"),
    ("engine.execute_us", "us"),
    ("engine.rows_out", "count"),
    ("engine.rows_produced_per_row_out", "ratio"),
    ("engine.nodes_evaluated", "count"),
    ("engine.vec_node_share", "ratio"),
    ("server.roundtrip_us", "us"),
    ("server.overhead_us", "us"),
    ("server.codec_us", "us"),
    ("server.wire_bytes_per_run", "count"),
    ("server.refused", "count"),
    ("storage.commit_us", "us"),
    ("storage.fsyncs_per_run", "count"),
    ("storage.wal_bytes_per_run", "count"),
    ("storage.write_amp", "ratio"),
    ("telemetry.overhead_pct", "%"),
    ("baseline.avalanche_ratio", "ratio"),
    ("baseline.haskelldb_queries", "count"),
    ("baseline.dsh_queries", "count"),
    ("lookup.fixed_over_varying", "ratio"),
    ("core.compile_share_pct", "%"),
    ("optimizer.share_pct", "%"),
    ("sql.share_pct", "%"),
    ("engine.share_pct", "%"),
    ("core.stitch_share_pct", "%"),
    ("server.share_pct", "%"),
    ("storage.share_pct", "%"),
    ("harness.share_pct", "%"),
    ("trace.layer_sum_error_pct", "%"),
    ("trace.staged_over_plain", "ratio"),
    ("trace.staged_runs", "count"),
    ("run.failed_share", "ratio"),
    ("run.ms_tail", "ms"),
    ("process.peak_rss_mb", "MB"),
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

pub fn print_pass(pass: &Pass) {
    let tail = pass
        .tail()
        .map_or("n/a (fewer than 100 samples)".to_string(), |(p, ms)| {
            format!("{ms:.4} ms ({p})")
        });
    println!(
        "#   {} runs verified of {} attempted in {:.3} s; run_ms_p50 {:.4} ms over {} samples; run_ms_tail {tail}",
        pass.verified(),
        pass.attempted,
        pass.wall.as_secs_f64(),
        pass.p50_ms(),
        pass.ok_ns.len()
    );
    let failed_share = pass.failed as f64 / pass.attempted.max(1) as f64;
    println!("#   failed_share {failed_share} ({} refused)", pass.refused);
    for c in &pass.complaints {
        println!("#   FAILED run: {c}");
    }
}

/// `benchmark/out`, the one place runs write to: beside the manifest this
/// binary was built from, wherever it is started.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the staged spans to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, recorders: &[Recorder]) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::chrome_json(workload, recorders))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Assemble every per-layer metric from the two halves of a traced run:
/// counts from the plain pass's counter delta, times from the staged
/// pass's spans, the rest from the workload's own reference measurements.
pub fn layer_metrics(
    plain: &Pass,
    staged: &Pass,
    breakdown: &Breakdown,
    extras: &Extras,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let runs = plain.verified().max(1) as f64;
    let c = &plain.counters;
    let span_us =
        |name: &str| measure::median_ns(trace::per_run_ns(&staged.recorders, name)) as f64 / 1e3;
    let us = |ns: u64| ns as f64 / 1e3;

    // compilation: per run on adhoc.cold (spans), at set-up elsewhere
    if let Some(cs) = &extras.compile {
        m.insert("core.looplift_us", us(cs.looplift_ns));
        m.insert("core.plan_nodes", cs.plan_nodes as f64);
        m.insert("optimizer.rewrite_us", us(cs.rewrite_ns));
    }
    let opt = extras
        .sql_opt
        .as_ref()
        .or(extras.compile.as_ref().map(|c| &c.opt));
    if let Some(opt) = opt {
        m.insert("optimizer.nodes_in", opt.nodes_in as f64);
        m.insert("optimizer.nodes_out", opt.nodes_out as f64);
        m.insert("optimizer.rewrites", opt.rewrites as f64);
        for (pass, ns) in &opt.pass_ns {
            if let Some((name, _)) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("optimizer.pass_us.") == Some(pass))
            {
                m.insert(name, us(*ns));
            }
        }
    }
    if extras.sql_optimize_ns > 0 {
        m.insert("optimizer.rewrite_us", us(extras.sql_optimize_ns));
    }
    m.insert("sql.codegen_us", us(extras.sqlgen.codegen_ns));
    m.insert("sql.parse_bind_us", us(extras.parse_bind_ns));
    m.insert("sql.chars", extras.sqlgen.chars as f64);

    let lookups = c.cache_hits + c.cache_misses;
    // prepared handles never consult the plan cache: nothing compiled
    m.insert(
        "core.cache_hit_ratio",
        if lookups == 0 {
            1.0
        } else {
            c.cache_hits as f64 / lookups as f64
        },
    );
    m.insert("core.stitch_us", span_us("stitch") + span_us("decode"));

    let engine_us = if extras.engine_ref_ns > 0 {
        us(extras.engine_ref_ns)
    } else {
        span_us("execute")
    };
    m.insert("engine.execute_us", engine_us);
    m.insert("engine.rows_out", c.rows_out as f64 / runs);
    m.insert(
        "engine.rows_produced_per_row_out",
        c.rows_produced as f64 / c.rows_out.max(1) as f64,
    );
    m.insert("engine.nodes_evaluated", c.nodes_evaluated as f64 / runs);
    m.insert(
        "engine.vec_node_share",
        c.vec_nodes as f64 / c.nodes_evaluated.max(1) as f64,
    );

    let roundtrip_us = span_us("roundtrip");
    m.insert("server.roundtrip_us", roundtrip_us);
    if roundtrip_us > 0.0 {
        m.insert("server.overhead_us", roundtrip_us - engine_us);
    }
    m.insert("server.codec_us", us(extras.codec_ns));
    m.insert("server.wire_bytes_per_run", extras.wire_bytes as f64);
    m.insert(
        "server.refused",
        (plain.refusals() + staged.refusals()) as f64,
    );

    m.insert("storage.commit_us", span_us("commit"));
    m.insert("storage.fsyncs_per_run", c.fsyncs as f64 / runs);
    m.insert("storage.wal_bytes_per_run", c.wal_bytes as f64 / runs);
    if extras.user_bytes_per_run > 0 {
        m.insert(
            "storage.write_amp",
            c.wal_bytes as f64 / runs / extras.user_bytes_per_run as f64,
        );
    }

    let plain_p50 = plain.p50_ms();
    if plain_p50 > 0.0 {
        m.insert(
            "telemetry.overhead_pct",
            100.0 * (staged.p50_ms() - plain_p50) / plain_p50,
        );
        m.insert("trace.staged_over_plain", staged.p50_ms() / plain_p50);
    }
    if let Some((ratio, hdb, dsh)) = extras.avalanche {
        m.insert("baseline.avalanche_ratio", ratio);
        m.insert("baseline.haskelldb_queries", hdb as f64);
        m.insert("baseline.dsh_queries", dsh as f64);
    }
    m.insert("lookup.fixed_over_varying", extras.fixed_over_varying);

    for layer in Layer::ALL {
        m.insert(layer.share_metric(), breakdown.share_pct(layer));
    }
    m.insert("trace.layer_sum_error_pct", 100.0 * breakdown.max_sum_error);
    m.insert("trace.staged_runs", breakdown.runs as f64);
    let attempted = (plain.attempted + staged.attempted).max(1) as f64;
    m.insert(
        "run.failed_share",
        (plain.failed + staged.failed) as f64 / attempted,
    );
    m.insert("run.ms_tail", plain.tail().map_or(0.0, |t| t.1));
    m.insert("process.peak_rss_mb", peak_rss_mb);

    PER_LAYER
        .iter()
        .map(|(name, unit)| Metric::new(name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

// ------------------------------------------------------------ suite mode

/// The metrics of one child run, by name, with its verdict.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Pull `"key": <number|bool>` out of the flat result line this binary
/// itself prints.
fn scalar_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
}

fn parse_result(line: &str) -> Option<Child> {
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for part in body.split("\"unit\"") {
        // … "name": {"value": 1.5,
        let Some(v) = part.rfind("{\"value\": ") else {
            continue;
        };
        let value: f64 = part[v + 10..].trim_end_matches([',', ' ']).parse().ok()?;
        let name_end = part[..v].rfind("\": ")?;
        let name_start = part[..name_end].rfind('"')? + 1;
        metrics.insert(part[name_start..name_end].to_string(), value);
    }
    Some(Child {
        correct: scalar_after(line, "correct")? == "true",
        attempted: scalar_after(line, "attempted")?.parse().ok()?,
        failed: scalar_after(line, "failed")?.parse().ok()?,
        metrics,
    })
}

/// Run one workload in a child process of this same binary; echo what it
/// printed, parse its last line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    match parse_result(last) {
        Some(c) if out.status.code().is_some() => Ok(c),
        _ => Err(format!(
            "{workload} (trace {}) ended {} without a result line",
            traced as u8, out.status
        )),
    }
}

/// Both passes of every workload.
struct SuiteRun {
    end_to_end: Vec<Child>,
    per_layer: Vec<Child>,
}

fn run_suite(seed: u64, seconds: f64) -> Result<SuiteRun, String> {
    let mut run = SuiteRun {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for spec in &SPECS {
        run.end_to_end.push(child(spec.name, seed, seconds, false)?);
        run.per_layer.push(child(spec.name, seed, seconds, true)?);
    }
    Ok(run)
}

fn header(first: &str) -> String {
    let mut h = format!("{first:<40}");
    for spec in &SPECS {
        let _ = write!(h, "{:>15}", spec.name);
    }
    h
}

fn print_table(title: &str, names: &[(&str, &str)], rows: &[Child]) {
    println!("\n== {title} ==");
    println!("{}", header("metric [unit]"));
    for (name, unit) in names {
        let mut line = format!("{:<40}", format!("{name} [{unit}]"));
        for c in rows {
            let _ = write!(
                line,
                "{:>15.4}",
                c.metrics.get(*name).copied().unwrap_or(0.0)
            );
        }
        println!("{line}");
    }
}

fn print_run(run: &SuiteRun) {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    print_table("end-to-end metrics (untraced pass)", &e2e, &run.end_to_end);
    let mut line = format!("{:<40}", "failed_share [ratio]");
    for c in &run.end_to_end {
        let _ = write!(
            line,
            "{:>15.4}",
            c.failed as f64 / c.attempted.max(1) as f64
        );
    }
    println!("{line}");
    print_table(
        "per-layer metrics (traced pass)",
        &PER_LAYER,
        &run.per_layer,
    );
    println!("\n== layer x workload: share of staged wall time [%] ==");
    println!("{}", header("layer"));
    for layer in Layer::ALL {
        let mut line = format!("{:<40}", layer.name());
        for c in &run.per_layer {
            let _ = write!(
                line,
                "{:>15.1}",
                c.metrics.get(layer.share_metric()).copied().unwrap_or(0.0)
            );
        }
        println!("{line}");
    }
    let mut line = format!("{:<40}", "breakdown");
    for c in &run.per_layer {
        // staging that moves the median by more than a tenth distorts
        let ratio = c
            .metrics
            .get("trace.staged_over_plain")
            .copied()
            .unwrap_or(0.0);
        let _ = write!(
            line,
            "{:>15}",
            if (ratio - 1.0).abs() <= 0.10 {
                "resolved"
            } else {
                "unresolved"
            }
        );
    }
    println!("{line}");
}

/// Do two runs of the same commit agree within each metric's own bound?
/// Prints the spread table; `queries_per_run` and the failure counts
/// must repeat exactly.
fn agree(a: &SuiteRun, b: &SuiteRun) -> bool {
    println!("\n== repeatability: |second - first| / first, per end-to-end metric [bound] ==");
    println!("{}", header("metric [bound]"));
    let mut ok = true;
    for (name, _, bound) in END_TO_END {
        let exact = name == "queries_per_run";
        let mut line = format!(
            "{:<40}",
            format!(
                "{name} [{}]",
                if exact {
                    "exact".into()
                } else {
                    format!("{bound}")
                }
            )
        );
        for (x, y) in a.end_to_end.iter().zip(&b.end_to_end) {
            let (x, y) = (
                x.metrics.get(name).copied().unwrap_or(0.0),
                y.metrics.get(name).copied().unwrap_or(0.0),
            );
            let spread = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().max(f64::MIN_POSITIVE)
            };
            // set-up times of a few tens of ms jitter by more than a
            // quarter; 50 ms of slack is the floor the issue allows
            let slack = name == "setup_s" && (y - x).abs() <= 0.050;
            let within = if exact {
                x == y
            } else {
                spread <= bound || slack
            };
            ok &= within;
            let _ = write!(line, "{:>14.4}{}", spread, if within { " " } else { "!" });
        }
        println!("{line}");
    }
    for (x, y) in a.end_to_end.iter().zip(&b.end_to_end) {
        ok &= x.failed == y.failed;
    }
    for (x, y) in a.per_layer.iter().zip(&b.per_layer) {
        for name in ["storage.fsyncs_per_run", "storage.wal_bytes_per_run"] {
            ok &= x.metrics.get(name) == y.metrics.get(name);
        }
    }
    println!(
        "{}",
        if ok {
            "repeatability: every metric within its bound"
        } else {
            "repeatability: FAILED (marked !)"
        }
    );
    ok
}

/// Suite mode. With `smoke`, only correctness and the layer sum are
/// asserted; with `repeat` ≥ 2, consecutive runs must also agree.
pub fn suite(seed: u64, seconds: f64, smoke: bool, repeat: usize) -> Result<bool, String> {
    println!(
        "ferry-e2e: seed {seed}, {seconds} s per pass, nproc {}, {} build{}",
        nproc(),
        profile(),
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "default seed {}, hold-out seed {}",
        crate::DEFAULT_SEED,
        crate::HOLDOUT_SEED
    );
    println!(
        "server config (product default): {}",
        WireServer::config_echo()
    );
    for spec in &SPECS {
        println!("{:<14} {}", spec.name, spec.why);
    }
    let mut ok = true;
    let mut previous: Option<SuiteRun> = None;
    for _ in 0..repeat.max(1) {
        let run = run_suite(seed, seconds)?;
        print_run(&run);
        for (i, spec) in SPECS.iter().enumerate() {
            for (c, pass) in [
                (&run.end_to_end[i], "untraced"),
                (&run.per_layer[i], "traced"),
            ] {
                if !c.correct {
                    println!(
                        "FAILED: {} ({pass} pass) reported correct = false",
                        spec.name
                    );
                    ok = false;
                }
            }
        }
        if let Some(prev) = &previous {
            ok &= agree(prev, &run);
        }
        previous = Some(run);
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_back() {
        let line = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("run_ms_p50", 1.25, "ms"),
                Metric::new("optimizer.pass_us.cse", 0.0, "us"),
            ],
        }
        .json_line();
        let c = parse_result(&line).expect("parses");
        assert!(c.correct);
        assert_eq!((c.attempted, c.failed), (12, 0));
        assert_eq!(c.metrics["run_ms_p50"], 1.25);
        assert_eq!(c.metrics["optimizer.pass_us.cse"], 0.0);
    }
}
