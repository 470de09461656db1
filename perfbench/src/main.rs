//! `perfbench` — the end-to-end and per-layer benchmark of the ACTOR suite.
//!
//! ```text
//! perfbench [run] --workload W --seed S --seconds N --trace 0|1 [--smoke]
//! perfbench calibrate [--runs 5] [--out FILE]
//! perfbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run prints a summary line and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding every metric
//! `BENCHMARK.json` lists for the mode: `end_to_end` with `--trace 0`,
//! `per_layer` with `--trace 1`. It exits non-zero when an output check
//! fails. See `README.md` beside this package for the workloads and
//! metrics.

mod calibrate;
mod compare;
mod manifest;
mod recompose;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::os::unix::net::UnixStream;

use serde::Value;

use crate::manifest::Manifest;
use crate::workloads::{Params, Workload};

/// The seed whose output digests `expected_digests.json` records.
const CANONICAL_SEED: u64 = 2007;
const EXPECTED_DIGESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_digests.json");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.iter().any(|a| a == "--connect") {
        worker(&args)
    } else {
        match args.first().map(String::as_str) {
            Some("calibrate") => calibrate::main(&args[1..]),
            Some("compare") => compare::main(&args[1..]),
            Some("run") => run(&args[1..]),
            _ => run(&args),
        }
    };
    std::process::exit(code);
}

/// Worker mode, spawned by the `dist_sweep` daemon as
/// `perfbench --connect SOCKET --name NAME`: the same worker runtime the
/// `cluster_worker` binary runs.
fn worker(args: &[String]) -> i32 {
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let (Some(socket), Some(name)) = (value("--connect"), value("--name")) else {
        eprintln!("error: worker mode needs --connect SOCKET --name NAME");
        return 2;
    };
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot connect to {socket}: {e}");
            return 1;
        }
    };
    match cluster_daemon::run_worker(Box::new(stream), name) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: worker {name} failed: {e}");
            1
        }
    }
}

/// Parsed `run` arguments.
struct RunArgs {
    params: Params,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; workloads are: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunArgs {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            smoke,
        },
        trace: trace.unwrap_or(false),
    })
}

/// The digest `expected_digests.json` records for `workload`, if any.
fn expected_digest(workload: Workload) -> Result<Option<u64>, String> {
    let text = std::fs::read_to_string(EXPECTED_DIGESTS)
        .map_err(|e| format!("cannot read {EXPECTED_DIGESTS}: {e}"))?;
    let raw: Value = serde_json::from_str(&text).map_err(|e| format!("{EXPECTED_DIGESTS}: {e}"))?;
    match raw.get(workload.name()) {
        Some(Value::Str(hex)) => u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map(Some)
            .map_err(|e| format!("{EXPECTED_DIGESTS}: bad digest {hex:?}: {e}")),
        _ => Ok(None),
    }
}

fn run(args: &[String]) -> i32 {
    match try_run(args) {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Runs one workload and prints its result; returns whether every output
/// check passed.
fn try_run(args: &[String]) -> Result<bool, String> {
    let RunArgs { params: p, trace } = parse_run(args)?;
    let manifest = Manifest::load()?;
    // Worker sockets live under this package's `out/`, given relative to
    // it so the path stays short wherever the checkout is.
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .map_err(|e| format!("cannot enter the package directory: {e}"))?;
    std::fs::create_dir_all("out").map_err(|e| format!("cannot create out/: {e}"))?;
    std::env::set_var("TMPDIR", "out");

    let (metrics, attempted, mut failed, digest, mut problems) = if trace {
        let t = traced::run(&p)?;
        eprint!("{}", t.summary);
        (t.layers, t.attempted, t.problems.len() as u64, t.digest, t.problems)
    } else {
        let m = workloads::measure(&p)?;
        (m.metrics(), m.attempted(), m.failed(), m.digest(), m.problems)
    };
    if p.seed == CANONICAL_SEED && !p.smoke {
        match expected_digest(p.workload)? {
            Some(expected) if expected != digest => {
                failed += 1;
                problems.push(format!(
                    "digest {digest:#018x} differs from the expected {expected:#018x} for seed \
                     {CANONICAL_SEED}"
                ));
            }
            Some(_) => {}
            None => eprintln!("note: no expected digest recorded for {}", p.workload.name()),
        }
    }

    let listed = if trace { &manifest.per_layer } else { &manifest.end_to_end };
    let mut out = Vec::with_capacity(listed.len());
    for spec in listed {
        let (_, value, unit) =
            metrics.iter().find(|(name, ..)| *name == spec.name).ok_or_else(|| {
                format!("{} lists {:?}, which this run does not measure", manifest::PATH, spec.name)
            })?;
        if *unit != spec.unit {
            return Err(format!(
                "{:?} is measured in {unit}, {} says {}",
                spec.name,
                manifest::PATH,
                spec.unit
            ));
        }
        let entry = Value::Map(vec![
            ("value".into(), Value::Float(*value)),
            ("unit".into(), Value::Str(unit.to_string())),
        ]);
        out.push((spec.name.clone(), entry));
    }
    for problem in &problems {
        eprintln!("check failed: {problem}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "perfbench workload={} seed={} trace={} smoke={} digest={digest:#018x} attempted={attempted} \
         failed={failed}",
        p.workload.name(),
        p.seed,
        u8::from(trace),
        p.smoke
    );
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(out)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("the result serializes"));
    Ok(correct)
}
