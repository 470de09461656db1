//! `perfbench calibrate`: runs every workload several times, each run with
//! its own seed, and derives each end-to-end metric's regression bound from
//! the run-to-run spread (IQR / median). It writes the bounds into
//! `BENCHMARK.json` and adds the set's medians, quartiles and spreads to
//! `calibration.json` beside this package's manifest.
//!
//! The host's speed drifts over minutes, so one quiet set understates the
//! spread a later set on the same host may see. The record therefore keeps
//! every set calibrated under the same conditions (CPU model, CPU count and
//! run length; a record made under others is replaced, and deleting the
//! file starts over), and each bound comes from the widest spread of any
//! workload in any kept set.
//!
//! A bound is `3 × widest spread`, at least 5 %, rounded up to a whole
//! percent, and at most 24 %. `setup_s` may take 25 %, the most
//! `BENCHMARK.json` may hold, and is raised to one percent above every other
//! bound, so that work moved into set-up still shows. Where the cap holds a
//! bound below three spreads the record marks it `capped`: the metric is
//! gated with less margin against noise. A metric whose spread exceeds even
//! its cap is too noisy to gate, and calibration fails, leaving
//! `BENCHMARK.json` as it was (the record is still written). Every run's
//! result also goes to a JSONL file that `perfbench compare` reads.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::Command;
use std::time::Instant;

use serde::Value;

use crate::manifest::{self, number, Manifest};
use crate::stats::{median, quartiles, relative_spread};

/// No bound may exceed this share of the parent's median; only `setup_s`
/// may reach it, so its bound is the largest.
const MAX_BOUND: f64 = 0.25;
/// The cap of every other metric.
const MAX_OTHER_BOUND: f64 = 0.24;
/// No bound falls below this: a tighter one would flag noise as a
/// regression.
const MIN_BOUND: f64 = 0.05;
/// A bound is this many times the widest spread.
const SPREADS_PER_BOUND: f64 = 3.0;
/// Runs one full parent-vs-change comparison makes: 11 pairs per
/// workload, plus 4.
const SET_RUNS_FIXED: f64 = 4.0;
const SET_RUNS_PER_WORKLOAD: f64 = 22.0;
/// Time budget of one full comparison, builds included (s).
const SET_CAP_S: f64 = 3420.0;
/// The calibration record, tracked beside `BENCHMARK.json`'s bounds.
const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/calibration.json");
const RULE: &str = "bound = min(cap, max(5 %, 3 x widest IQR/median of any workload in any set)), \
                    rounded up to a whole percent; cap = 24 %, 25 % for setup_s, which is raised \
                    to one percent above every other bound; capped = the cap holds the bound \
                    below 3 spreads";

struct Options {
    runs: u64,
    out: String,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 5,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/out/calibration.jsonl").into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--runs" | "--out" => {
                let v = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
                if flag == "--out" {
                    o.out = v.clone();
                } else {
                    o.runs = v.parse().map_err(|_| format!("invalid --runs value {v:?}"))?;
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if o.runs < 2 {
        return Err("--runs must be at least 2 to estimate a spread".into());
    }
    Ok(o)
}

/// One recorded run, as `perfbench compare` reads it back.
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed the run used.
    pub seed: u64,
    /// The run's result object.
    pub result: Value,
}

impl Record {
    /// The value of one metric, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value").and_then(number)
    }

    /// Reads a JSONL file of records.
    pub fn load(path: &str) -> Result<Vec<Record>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
                let workload = match v.get("workload") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err(format!("{path}: a record lacks \"workload\"")),
                };
                let seed = match v.get("seed") {
                    Some(Value::UInt(u)) => *u,
                    _ => return Err(format!("{path}: a record lacks \"seed\"")),
                };
                let result = v.get("result").cloned().ok_or("a record lacks \"result\"")?;
                Ok(Record { workload, seed, result })
            })
            .collect()
    }
}

/// Runs one workload for `seconds` in a fresh process and returns its
/// result object.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{workload} seed {seed} printed no result (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed} failed its output checks: {last}"));
    }
    Ok(result)
}

/// One end-to-end metric's bound and the widest spread it comes from.
struct Calibrated {
    name: String,
    widest: f64,
    bound: f64,
    cap: f64,
}

impl Calibrated {
    /// The cap holds the bound below three spreads.
    fn capped(&self) -> bool {
        SPREADS_PER_BOUND * self.widest > self.bound
    }

    /// The spread exceeds the cap itself: no allowed bound can gate it.
    fn too_noisy(&self) -> bool {
        self.widest > self.cap
    }
}

/// The values of one end-to-end metric on one workload.
fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records.iter().filter(|r| r.workload == workload).filter_map(|r| r.metric(metric)).collect()
}

/// A set's metrics: per end-to-end metric, each workload's run count,
/// median, quartiles and spread.
fn summarize(manifest: &Manifest, records: &[Record]) -> Value {
    let metrics = manifest.end_to_end.iter().map(|spec| {
        let workloads = manifest.workloads.iter().map(|w| {
            let v = values(records, w, &spec.name);
            let [q1, _, q3] = quartiles(&v);
            Value::Map(vec![
                ("workload".into(), Value::Str(w.clone())),
                ("n".into(), Value::UInt(v.len() as u64)),
                ("median".into(), Value::Float(median(&v))),
                ("q1".into(), Value::Float(q1)),
                ("q3".into(), Value::Float(q3)),
                ("iqr_over_median".into(), Value::Float(relative_spread(&v))),
            ])
        });
        Value::Map(vec![
            ("name".into(), Value::Str(spec.name.clone())),
            ("workloads".into(), Value::Seq(workloads.collect())),
        ])
    });
    Value::Seq(metrics.collect())
}

/// The widest spread of metric `name` on any workload of any set.
fn widest_spread(sets: &[Value], name: &str) -> f64 {
    let mut widest = 0.0f64;
    for set in sets {
        let Some(Value::Seq(metrics)) = set.get("metrics") else { continue };
        for metric in metrics.iter().filter(|m| m.get("name") == Some(&Value::Str(name.into()))) {
            let Some(Value::Seq(workloads)) = metric.get("workloads") else { continue };
            for spread in workloads.iter().filter_map(|w| w.get("iqr_over_median")) {
                widest = widest.max(number(spread).unwrap_or(0.0));
            }
        }
    }
    widest
}

/// Derives every end-to-end metric's bound from the spreads in `sets`.
fn derive(manifest: &Manifest, sets: &[Value]) -> Vec<Calibrated> {
    let mut out: Vec<Calibrated> = manifest
        .end_to_end
        .iter()
        .map(|spec| {
            let widest = widest_spread(sets, &spec.name);
            // Rounded up to a whole percent, so the written bound is never
            // tighter than the derived one; the epsilon keeps a product like
            // 3 × 0.04 from rounding up a whole extra percent.
            let percent = (SPREADS_PER_BOUND * widest).max(MIN_BOUND) * 100.0;
            let cap = if spec.name == "setup_s" { MAX_BOUND } else { MAX_OTHER_BOUND };
            let bound = ((percent - 1e-9).ceil() / 100.0).min(cap);
            Calibrated { name: spec.name.clone(), widest, bound, cap }
        })
        .collect();
    let largest_other =
        out.iter().filter(|c| c.name != "setup_s").map(|c| c.bound).fold(0.0f64, f64::max);
    for c in out.iter_mut().filter(|c| c.name == "setup_s") {
        c.bound = c.bound.max(((largest_other * 100.0).round() + 1.0) / 100.0).min(MAX_BOUND);
    }
    out
}

/// The conditions a set was measured under; sets measured under other
/// conditions are not comparable.
fn conditions(manifest: &Manifest) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    Value::Map(vec![
        ("cpu_model".into(), Value::Str(cpu_model)),
        ("cpus".into(), Value::UInt(cpus)),
        ("run_seconds".into(), Value::UInt(manifest.run_seconds)),
    ])
}

/// The sets the record holds for `conditions`; none when there is no
/// record or it was made under other conditions.
fn earlier_sets(conditions: &Value) -> Result<Vec<Value>, String> {
    let text = match std::fs::read_to_string(RECORD) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {RECORD}: {e}")),
    };
    let record: Value = serde_json::from_str(&text).map_err(|e| format!("{RECORD}: {e}"))?;
    if record.get("conditions") != Some(conditions) {
        eprintln!("calibrate: {RECORD} was made under other conditions; starting a new record");
        return Ok(Vec::new());
    }
    match record.get("sets") {
        Some(Value::Seq(sets)) => Ok(sets.clone()),
        _ => Err(format!("{RECORD}: \"sets\" is not a list")),
    }
}

/// The calibration record: the conditions, the rule, every metric's bound,
/// and every set's per-workload spreads.
fn record(conditions: Value, calibrated: &[Calibrated], sets: Vec<Value>) -> Value {
    let bounds = calibrated.iter().map(|c| {
        Value::Map(vec![
            ("name".into(), Value::Str(c.name.clone())),
            ("widest_iqr_over_median".into(), Value::Float(c.widest)),
            ("three_spreads".into(), Value::Float(SPREADS_PER_BOUND * c.widest)),
            ("cap".into(), Value::Float(c.cap)),
            ("capped".into(), Value::Bool(c.capped())),
            ("bound".into(), Value::Float(c.bound)),
        ])
    });
    Value::Map(vec![
        ("conditions".into(), conditions),
        ("rule".into(), Value::Str(RULE.into())),
        ("bounds".into(), Value::Seq(bounds.collect())),
        ("sets".into(), Value::Seq(sets)),
    ])
}

fn calibrate(o: &Options) -> Result<(), String> {
    let manifest = Manifest::load()?;
    let conditions = conditions(&manifest);
    let mut sets = earlier_sets(&conditions)?;
    if let Some(dir) = std::path::Path::new(&o.out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let file = File::create(&o.out).map_err(|e| format!("cannot create {}: {e}", o.out))?;
    let mut jsonl = BufWriter::new(file);
    let started = Instant::now();
    let mut records = Vec::new();
    let mut run_walls: Vec<(String, f64)> = Vec::new();
    // Workloads alternate within each round so slow drift of the host
    // spreads over all of them alike.
    for seed in 1..=o.runs {
        for workload in &manifest.workloads {
            let run_started = Instant::now();
            let result = run_once(workload, seed, manifest.run_seconds)?;
            let wall_s = run_started.elapsed().as_secs_f64();
            eprintln!("calibrate: {workload} seed {seed}: {wall_s:.1} s");
            run_walls.push((workload.clone(), wall_s));
            let line = Value::Map(vec![
                ("workload".into(), Value::Str(workload.clone())),
                ("seed".into(), Value::UInt(seed)),
                ("wall_s".into(), Value::Float(wall_s)),
                ("result".into(), result.clone()),
            ]);
            writeln!(jsonl, "{}", serde_json::to_string(&line).expect("records serialize"))
                .map_err(|e| format!("cannot write {}: {e}", o.out))?;
            records.push(Record { workload: workload.clone(), seed, result });
        }
    }
    jsonl.flush().map_err(|e| format!("cannot write {}: {e}", o.out))?;
    let set_wall_s = started.elapsed().as_secs_f64();

    let mut estimate_s =
        SET_RUNS_FIXED * run_walls.iter().map(|(_, w)| w).sum::<f64>() / run_walls.len() as f64;
    for workload in &manifest.workloads {
        let walls: Vec<f64> =
            run_walls.iter().filter(|(w, _)| w == workload).map(|(_, s)| *s).collect();
        estimate_s += SET_RUNS_PER_WORKLOAD * walls.iter().sum::<f64>() / walls.len() as f64;
    }
    sets.push(Value::Map(vec![
        ("seeds".into(), Value::Seq((1..=o.runs).map(Value::UInt).collect())),
        ("set_wall_s".into(), Value::Float(set_wall_s)),
        ("full_comparison_estimate_s".into(), Value::Float(estimate_s)),
        ("metrics".into(), summarize(&manifest, &records)),
    ]));
    let calibrated = derive(&manifest, &sets);

    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "IQR/med"
    );
    for c in &calibrated {
        for workload in &manifest.workloads {
            let v = values(&records, workload, &c.name);
            let [q1, _, q3] = quartiles(&v);
            println!(
                "{workload:<14} {:<12} {:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}%",
                c.name,
                median(&v),
                100.0 * relative_spread(&v)
            );
        }
        let note = if c.too_noisy() {
            " — spread above the cap: too noisy to gate"
        } else if c.capped() {
            " — capped below 3 spreads: noisy"
        } else {
            ""
        };
        println!(
            "bound {}: {:.0} % (widest spread {:.2} % over {} set(s)){note}",
            c.name,
            100.0 * c.bound,
            100.0 * c.widest,
            sets.len()
        );
    }
    println!(
        "calibration set: {} runs in {set_wall_s:.0} s; one full comparison of {:.0} runs takes \
         ~{estimate_s:.0} s before builds ({}, cap {SET_CAP_S:.0} s)",
        run_walls.len(),
        SET_RUNS_FIXED + SET_RUNS_PER_WORKLOAD * manifest.workloads.len() as f64,
        if estimate_s < SET_CAP_S { "within" } else { "OVER" }
    );
    println!("runs recorded in {}", o.out);

    let text = serde_json::to_string_pretty(&record(conditions, &calibrated, sets))
        .expect("the record serializes");
    std::fs::write(RECORD, text + "\n").map_err(|e| format!("cannot write {RECORD}: {e}"))?;
    println!("spreads and bounds recorded in {RECORD}");

    let noisy: Vec<&str> =
        calibrated.iter().filter(|c| c.too_noisy()).map(|c| c.name.as_str()).collect();
    if !noisy.is_empty() {
        return Err(format!(
            "spread above the cap, too noisy to gate: {}; {} left unchanged",
            noisy.join(", "),
            manifest::PATH
        ));
    }
    write_bounds(&manifest, &calibrated)?;
    println!("bounds written to {}", manifest::PATH);
    Ok(())
}

/// Writes the calibrated bounds into `BENCHMARK.json`'s `end_to_end` list.
fn write_bounds(manifest: &Manifest, calibrated: &[Calibrated]) -> Result<(), String> {
    let Value::Map(mut root) = manifest.raw.clone() else {
        return Err(format!("{} is not an object", manifest::PATH));
    };
    for (key, value) in root.iter_mut() {
        let (true, Value::Seq(entries)) = (key == "end_to_end", value) else { continue };
        for entry in entries {
            let Value::Map(fields) = entry else { continue };
            let Some((_, Value::Str(name))) = fields.iter().find(|(k, _)| k == "name") else {
                continue;
            };
            let Some(c) = calibrated.iter().find(|c| &c.name == name) else { continue };
            let bound = c.bound;
            for (k, v) in fields.iter_mut() {
                if k == "bound" {
                    *v = Value::Float(bound);
                }
            }
        }
    }
    let text = serde_json::to_string_pretty(&Value::Map(root)).expect("the manifest serializes");
    std::fs::write(manifest::PATH, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", manifest::PATH))
}

/// Entry point of `perfbench calibrate`.
pub fn main(args: &[String]) -> i32 {
    match parse(args).and_then(|o| calibrate(&o)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MetricSpec;

    fn manifest() -> Manifest {
        let spec = |name: &str| MetricSpec {
            name: name.into(),
            unit: "s".into(),
            better: "lower".into(),
            bound: None,
        };
        Manifest {
            raw: Value::Null,
            run_seconds: 1,
            workloads: vec!["a".into(), "b".into()],
            end_to_end: vec![spec("setup_s"), spec("e2e_s")],
            per_layer: Vec::new(),
        }
    }

    /// A set of five runs per workload in which `e2e_s` on workload "b" has
    /// quartiles `100 ± half` around a median of 100 and everything else
    /// spreads by 1 %.
    fn set(half: f64) -> Value {
        let run = |workload: &str, setup_s: f64, e2e_s: f64| {
            let metric = |v: f64| Value::Map(vec![("value".into(), Value::Float(v))]);
            let metrics =
                vec![("setup_s".into(), metric(setup_s)), ("e2e_s".into(), metric(e2e_s))];
            let result = Value::Map(vec![("metrics".into(), Value::Map(metrics))]);
            Record { workload: workload.into(), seed: 0, result }
        };
        let mut records = Vec::new();
        for (quiet, e2e_b) in [
            (99.5, 100.0 - half),
            (99.5, 100.0 - half),
            (100.0, 100.0),
            (100.5, 100.0 + half),
            (100.5, 100.0 + half),
        ] {
            records.push(run("a", quiet, quiet));
            records.push(run("b", quiet, e2e_b));
        }
        Value::Map(vec![("metrics".into(), summarize(&manifest(), &records))])
    }

    #[test]
    fn bounds_are_three_spreads_and_setup_gets_the_largest() {
        let c = derive(&manifest(), &[set(2.0)]);
        assert_eq!(c[1].name, "e2e_s");
        assert!((c[1].widest - 0.04).abs() < 1e-12, "{}", c[1].widest);
        assert_eq!((c[1].bound, c[1].capped(), c[1].too_noisy()), (0.12, false, false));
        // setup_s's own 3 × 1 % would floor at 5 %; it is raised above 12 %.
        assert_eq!((c[0].name.as_str(), c[0].bound), ("setup_s", 0.13));
    }

    #[test]
    fn the_noisiest_set_sets_the_bound_and_the_cap_holds_it() {
        // A quiet set and one spreading by 10 %: three spreads exceed the
        // 24 % cap.
        let c = derive(&manifest(), &[set(2.0), set(5.0)]);
        assert_eq!((c[1].bound, c[1].capped(), c[1].too_noisy()), (0.24, true, false));
        assert_eq!(c[0].bound, 0.25);
        // 30 % spread: above the cap itself.
        assert!(derive(&manifest(), &[set(15.0)])[1].too_noisy());
    }
}
