//! `ferry-e2e` — the paper's programs, end to end and layer by layer.
//!
//! ```text
//! ferry-e2e --seed N                         every workload, each in its own child process
//! ferry-e2e --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! ferry-e2e --smoke                          every workload at 1/20 length, correctness only
//! ferry-e2e --repeat 2                       the suite twice; fails unless the two agree
//! ```
//!
//! A single-workload run ends with one JSON line (`correct`,
//! `attempted`, `failed`, `metrics`): the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. It claims no
//! gain; it is the ruler later claims are measured with. README.md has
//! the metric and workload definitions.

mod data;
mod digest;
mod measure;
mod report;
mod sut;
mod trace;
mod workloads;

use report::{Metric, Outcome};
use std::process::ExitCode;

/// The seed used when none is given, and a second one no workload or
/// bound was tuned on, for checking that a claim is not seed-specific.
pub const DEFAULT_SEED: u64 = 20090629;
pub const HOLDOUT_SEED: u64 = 1999;
/// Measured seconds per run when none are given (`run_seconds` in
/// BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per untraced run: at least this many, and more (up to
/// [`SETUP_REPEATS_MAX`]) while they are cheap; `setup_s` is their median.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 15;
/// Stop repeating set-up once this much time has gone into it.
const SETUP_BUDGET_S: f64 = 1.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.smoke {
        args.seconds /= 20.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ferry-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => single(name, &args).map(|outcome| {
            println!("{}", outcome.json_line());
            outcome.correct
        }),
        None => report::suite(args.seed, args.seconds, args.smoke, args.repeat),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ferry-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

/// One workload in this process. Set-up or tear-down trouble is an
/// error (no result line); a wrong or failed *run* is counted and shows
/// as `correct: false`.
fn single(name: &str, args: &Args) -> Result<Outcome, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    println!(
        "# {} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("#   {}", spec.sizes);
    println!(
        "#   clients={} loop=closed nproc={}",
        spec.clients,
        report::nproc()
    );
    if args.trace {
        traced(spec, args)
    } else {
        untraced(spec, args)
    }
}

/// The end-to-end pass: set up several times (the median is
/// `setup_s`), check the last set-up against its oracle, measure
/// untraced, tear down.
fn untraced(spec: &workloads::Spec, args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut w = workloads::setup(spec, args.seed)?; // not timed: first-touch costs of the process
    while setup_s.len() < SETUP_REPEATS_MIN
        || (setup_s.len() < SETUP_REPEATS_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        w.finish()?;
        let t = std::time::Instant::now();
        w = workloads::setup(spec, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    println!("#   setup_s: median of {} set-ups", setup_s.len());
    println!("#   engine config: {}", w.db().config_echo());
    w.oracle()?;
    let pass = measure::pass(w.as_ref(), spec.clients, args.seconds, false)?;
    w.finish()?;
    report::print_pass(&pass);
    println!(
        "#   peak_rss_mb {:.1} (VmHWM; gated nowhere, see README)",
        measure::peak_rss_mb()?
    );
    let runs = pass.verified().max(1) as f64;
    let metrics = vec![
        Metric::new("run_ms_p50", pass.p50_ms(), "ms"),
        Metric::new("runs_per_s", pass.runs_per_s(), "1/s"),
        Metric::new("setup_s", measure::median_f64(setup_s), "s"),
        Metric::new(
            "queries_per_run",
            pass.counters.queries as f64 / runs,
            "count",
        ),
    ];
    Ok(Outcome {
        correct: pass.failed == 0 && pass.attempted > 0 && pass.refusals() == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
    })
}

/// The traced pass: half the time plain (the baseline the tracing
/// overhead and the staging distortion are judged against, and the window
/// the product's counters are read over), half staged with
/// `TelemetryConfig::Full`; then the reference measurements, the
/// breakdown, and the trace file.
fn traced(spec: &workloads::Spec, args: &Args) -> Result<Outcome, String> {
    let w = workloads::setup(spec, args.seed)?;
    w.oracle()?;
    let plain = measure::pass(w.as_ref(), spec.clients, args.seconds / 2.0, false)?;
    w.db().set_tracing(true);
    let mut staged = measure::pass(w.as_ref(), spec.clients, args.seconds / 2.0, true)?;
    w.db().set_tracing(false);
    let mut extras = workloads::Extras::default();
    w.references(&mut staged.recorders, &mut extras)?;
    w.finish()?;

    let breakdown = trace::breakdown(&staged.recorders);
    let path = report::write_trace(spec.name, &staged.recorders)?;
    println!("#   trace: {path} ({} staged runs)", breakdown.runs);
    report::print_pass(&plain);
    let metrics = report::layer_metrics(
        &plain,
        &staged,
        &breakdown,
        &extras,
        measure::peak_rss_mb()?,
    );
    let sum_ok = breakdown.max_sum_error <= 0.05;
    if !sum_ok {
        println!(
            "#   FAILED: layer self times miss staged wall time by {:.1} %",
            100.0 * breakdown.max_sum_error
        );
    }
    let refused = plain.refusals() + staged.refusals();
    if refused > 0 {
        println!(
            "#   FAILED: {refused} requests refused at {} clients",
            spec.clients
        );
    }
    Ok(Outcome {
        correct: plain.failed + staged.failed == 0
            && plain.attempted > 0
            && staged.attempted > 0
            && sum_ok
            && refused == 0,
        attempted: plain.attempted + staged.attempted,
        failed: plain.failed + staged.failed,
        metrics,
    })
}
