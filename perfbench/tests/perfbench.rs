//! Every workload at `--smoke` scale: the metrics `BENCHMARK.json` lists
//! are present with their units, no operation fails, two runs give the same
//! digest, and the traced run reproduces its reference with spans covering
//! at least 95 % of its wall time.

use std::process::Command;

use serde::Value;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Run {
    digest: String,
    result: Value,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., summary, last] = lines[..] else { panic!("{workload}: too little output: {stdout}") };
    let digest = summary
        .split_whitespace()
        .find_map(|field| field.strip_prefix("digest="))
        .expect("the summary line carries the digest")
        .to_string();
    Run { digest, result: serde_json::from_str(last).expect("the last line is JSON") }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn metric(run: &Run, name: &str) -> f64 {
    number(
        run.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .unwrap_or_else(|| panic!("metric {name} missing")),
    )
}

/// Asserts every metric of `list` in `BENCHMARK.json` is reported with its
/// unit, and the run passed its checks without a failed operation.
fn assert_complete(workload: &str, run: &Run, list: &str) {
    let manifest: Value =
        serde_json::from_str(&std::fs::read_to_string(MANIFEST).expect("manifest")).unwrap();
    let Some(Value::Seq(specs)) = manifest.get(list) else { panic!("{list} is not a list") };
    let metrics = run.result.get("metrics").expect("metrics object");
    assert_eq!(metrics.len(), specs.len(), "{workload}: exactly the {list} metrics");
    for spec in specs {
        let Some(Value::Str(name)) = spec.get("name") else { panic!("unnamed metric") };
        let reported = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(reported.get("unit"), spec.get("unit"), "{workload}: unit of {name}");
        assert!(number(reported.get("value").expect("value")).is_finite(), "{name}");
    }
    assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert_eq!(number(run.result.get("failed").expect("failed")), 0.0, "{workload}: fail_frac");
    assert!(number(run.result.get("attempted").expect("attempted")) >= 1.0);
}

fn check(workload: &str) {
    let first = run(workload, false);
    assert_complete(workload, &first, "end_to_end");
    for name in ["setup_s", "e2e_s", "ops_per_s", "peak_rss_mb"] {
        assert!(metric(&first, name) > 0.0, "{workload}: {name} must be positive");
    }
    let second = run(workload, false);
    assert_eq!(first.digest, second.digest, "{workload}: two runs, two digests");

    let traced = run(workload, true);
    assert_complete(workload, &traced, "per_layer");
    assert_eq!(traced.digest, first.digest, "{workload}: traced outputs differ");
    let coverage = metric(&traced, "trace.coverage");
    assert!(coverage >= 0.95, "{workload}: spans cover only {coverage:.3} of the traced wall");
}

#[test]
fn paper_sweep() {
    check("paper_sweep");
}

#[test]
fn policy_grid() {
    check("policy_grid");
}

#[test]
fn scenario_mix() {
    check("scenario_mix");
}

#[test]
fn online_decide() {
    check("online_decide");
}

#[test]
fn dist_sweep() {
    check("dist_sweep");
}

#[test]
fn unknown_workloads_and_missing_flags_fail_loudly() {
    let status = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("starts").status
    };
    assert_eq!(status(&["--workload", "nope", "--seed", "1"]).code(), Some(2));
    assert_eq!(status(&["--workload", "paper_sweep"]).code(), Some(2));
    assert_eq!(
        status(&["--workload", "paper_sweep", "--seed", "1", "--trace", "2"]).code(),
        Some(2)
    );
    assert_eq!(status(&["compare", "only-one.jsonl"]).code(), Some(2));
}
