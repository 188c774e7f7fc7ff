//! Bench regression gate.
//!
//! Reads the JSON-lines file the criterion shim writes when `BENCH_JSON`
//! is set (one `{"bench":"group/name/param","median_ns":…}` object per
//! line) and compares each measured median against the pinned medians in
//! `BENCH_engine.json`'s `"baselines"` map. Exits non-zero when any
//! benchmark regresses beyond the threshold (default 1.5×; override with
//! a third argument) **or when a pinned id was not measured** — a renamed
//! or deleted bench must take its pin with it, not silently un-gate it.
//! Benchmarks without a pinned baseline are listed but do not fail the
//! run, so adding a bench does not require updating the snapshot in the
//! same commit.
//!
//! Usage: `bench_check <measured.jsonl> <BENCH_engine.json> [threshold]`
//!
//! No serde in this workspace (offline build), so both files are parsed
//! with a small hand-rolled scanner that understands exactly the shapes
//! we emit.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: bench_check <measured.jsonl> <baseline.json> [threshold]");
        return ExitCode::from(2);
    }
    let threshold: f64 = match args.get(3) {
        Some(t) => match t.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bench_check: bad threshold {t:?}");
                return ExitCode::from(2);
            }
        },
        None => 1.5,
    };
    let measured_text = match std::fs::read_to_string(&args[1]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", args[1]);
            return ExitCode::from(2);
        }
    };
    let baseline_text = match std::fs::read_to_string(&args[2]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", args[2]);
            return ExitCode::from(2);
        }
    };
    let measured = parse_jsonl(&measured_text);
    let baselines = parse_baselines(&baseline_text);
    if measured.is_empty() {
        eprintln!("bench_check: no measurements in {}", args[1]);
        return ExitCode::from(2);
    }
    if baselines.is_empty() {
        eprintln!("bench_check: no \"baselines\" map in {}", args[2]);
        return ExitCode::from(2);
    }

    let mut regressions = Vec::new();
    let mut checked = 0usize;
    for (bench, median_ns) in &measured {
        let measured_ms = *median_ns / 1e6;
        match baselines.get(bench) {
            Some(&baseline_ms) if baseline_ms > 0.0 => {
                checked += 1;
                let ratio = measured_ms / baseline_ms;
                let verdict = if ratio > threshold {
                    regressions.push((bench.clone(), baseline_ms, measured_ms, ratio));
                    "REGRESSION"
                } else if ratio < 1.0 / threshold {
                    "improved"
                } else {
                    "ok"
                };
                println!(
                    "{bench}: baseline {baseline_ms:.3} ms, measured {measured_ms:.3} ms ({ratio:.2}x) {verdict}"
                );
            }
            _ => println!("{bench}: measured {measured_ms:.3} ms (no baseline pinned)"),
        }
    }
    let unmeasured = unmeasured_pins(&baselines, &measured);
    if !unmeasured.is_empty() {
        eprintln!(
            "bench_check: {} pinned baseline(s) not measured this run (renamed or deleted bench? move or drop the pin):",
            unmeasured.len()
        );
        for name in &unmeasured {
            eprintln!("  {name}");
        }
    }
    if !regressions.is_empty() {
        eprintln!(
            "bench_check: {} regression(s) beyond {threshold}x:",
            regressions.len()
        );
        for (name, base, got, ratio) in &regressions {
            eprintln!("  {name}: {base:.3} ms -> {got:.3} ms ({ratio:.2}x)");
        }
    }
    if !(unmeasured.is_empty() && regressions.is_empty()) {
        return ExitCode::FAILURE;
    }
    println!("bench_check: {checked} benchmark(s) within {threshold}x of baseline");
    ExitCode::SUCCESS
}

/// Pinned ids the run did not measure — each one is a gate that silently
/// stopped gating.
fn unmeasured_pins<'a>(
    baselines: &'a BTreeMap<String, f64>,
    measured: &BTreeMap<String, f64>,
) -> Vec<&'a str> {
    baselines
        .keys()
        .filter(|name| !measured.contains_key(*name))
        .map(String::as_str)
        .collect()
}

/// Parse shim JSONL: one object per line with a `"bench"` string and a
/// `"median_ns"` number. Later lines win on duplicate names (re-runs
/// append).
fn parse_jsonl(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let (Some(name), Some(median)) =
            (string_field(line, "bench"), number_field(line, "median_ns"))
        {
            out.insert(name, median);
        }
    }
    out
}

/// Pull the flat `"baselines": { "name": ms, ... }` map out of the
/// snapshot file. Values are medians in milliseconds.
fn parse_baselines(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(start) = text.find("\"baselines\"") else {
        return out;
    };
    let Some(open) = text[start..].find('{') else {
        return out;
    };
    let body = &text[start + open + 1..];
    let Some(close) = body.find('}') else {
        return out;
    };
    let body = &body[..close];
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(endq) = find_string_end(after) else {
            break;
        };
        let key = unescape(&after[..endq]);
        let after_key = &after[endq + 1..];
        let Some(colon) = after_key.find(':') else {
            break;
        };
        let val_text = after_key[colon + 1..].trim_start();
        let num: String = val_text
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.insert(key, v);
        }
        rest = &after_key[colon + 1..];
    }
    out
}

/// Value of `"key": "string"` in a one-line JSON object.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = line.find(&pat)?;
    let after = &line[at + pat.len()..];
    let colon = after.find(':')?;
    let after = after[colon + 1..].trim_start();
    let inner = after.strip_prefix('"')?;
    let end = find_string_end(inner)?;
    Some(unescape(&inner[..end]))
}

/// Value of `"key": number` in a one-line JSON object.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = line.find(&pat)?;
    let after = &line[at + pat.len()..];
    let colon = after.find(':')?;
    let val = after[colon + 1..].trim_start();
    let num: String = val
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}

/// Index of the closing quote of a JSON string (the text *after* the
/// opening quote), honouring backslash escapes.
fn find_string_end(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_parses_shim_lines() {
        let text = "\n{\"bench\":\"engine/filter_fused/100000\",\"median_ns\":1500000,\"mean_ns\":1600000,\"min_ns\":1,\"max_ns\":2,\"samples\":10}\n{\"bench\":\"engine/x/1\",\"median_ns\":2.5e6,\"samples\":10}\n";
        let m = parse_jsonl(text);
        assert_eq!(m.len(), 2);
        assert_eq!(m["engine/filter_fused/100000"], 1_500_000.0);
        assert_eq!(m["engine/x/1"], 2_500_000.0);
    }

    #[test]
    fn baselines_parse_flat_map() {
        let text = r#"{
  "description": "x",
  "baselines": {
    "engine/filter_fused/100000": 1.23,
    "engine/group_by_typed_fused/100000": 0.5
  },
  "benches": { "other": { "a/b": { "before_ms": 1 } } }
}"#;
        let b = parse_baselines(text);
        assert_eq!(b.len(), 2);
        assert_eq!(b["engine/filter_fused/100000"], 1.23);
        assert_eq!(b["engine/group_by_typed_fused/100000"], 0.5);
    }

    #[test]
    fn pinned_but_unmeasured_ids_are_reported() {
        let pins = parse_baselines(r#"{"baselines": {"a/x/1": 1.0, "a/y/1": 2.0}}"#);
        let run = parse_jsonl("{\"bench\":\"a/x/1\",\"median_ns\":1000}\n");
        assert_eq!(unmeasured_pins(&pins, &run), ["a/y/1"]);
        let both = "{\"bench\":\"a/x/1\",\"median_ns\":1}\n{\"bench\":\"a/y/1\",\"median_ns\":1}\n";
        assert!(unmeasured_pins(&pins, &parse_jsonl(both)).is_empty());
    }

    #[test]
    fn duplicate_bench_lines_take_the_last() {
        let text = "{\"bench\":\"a\",\"median_ns\":1000}\n{\"bench\":\"a\",\"median_ns\":2000}\n";
        let m = parse_jsonl(text);
        assert_eq!(m["a"], 2000.0);
    }
}
