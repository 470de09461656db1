//! `bench_check` — the CI bench-trajectory collector and regression gate.
//!
//! Reads the JSON artefacts the smoke bins just produced under `results/`
//! (`cluster_sweep.json`, `coordinated_capping.json`, `scenario_sweep.json`,
//! `decision_bench.json`, `fig_dvfs_dct.json`),
//! collects their quantitative headlines into
//! `results/BENCH_sweep.current.json` (uploaded by CI as the per-PR bench
//! trajectory), and compares them against the committed baseline
//! `results/BENCH_sweep.json`:
//!
//! * **ED² headlines** (keys ending `_ed2_pct`, lower is better) may not
//!   worsen by more than the tolerance (default **2.0** percentage points;
//!   override with `BENCH_CHECK_TOLERANCE_PTS`).
//! * **Sweep wall-clock / throughput** may not regress by more than the
//!   slowdown factor (default **1.5×**, i.e. 50 %; override with
//!   `BENCH_CHECK_MAX_SLOWDOWN`), with a 1 s absolute grace. On the
//!   millisecond-scale `--fast` smoke grid this catches per-cell cost
//!   blowups (e.g. accidentally re-training the model per cell turns the
//!   48-cell sweep into minutes), not worker-parallelism loss — a
//!   serialized-but-still-cheap smoke sweep stays under the grace, and an
//!   outright hang is the CI job timeout's problem.
//! * **Telemetry overhead per decision** (keys ending `_overhead_ns`) must
//!   stay below an *absolute* ceiling (default **150 ns**; override with
//!   `BENCH_CHECK_MAX_TRACE_OVERHEAD_NS`). This is the primary telemetry
//!   gate: the nanoseconds an attached ring sink adds to one decide are
//!   scale-invariant, so the gate keeps meaning as the decide path itself
//!   gets faster. The ring push costs ~80 ns on the reference host; a
//!   reintroduced per-event lock or allocation lands well past the
//!   ceiling.
//! * **Telemetry overhead ratios** (keys ending `_ratio`) must stay above
//!   an *absolute* floor (default **0.55**; override with
//!   `BENCH_CHECK_MIN_TRACED_RATIO`) — not baseline-relative, so a slowly
//!   eroding ratio cannot be laundered by re-blessing. The ratio is
//!   traced/untraced decisions/s and *shrinks as the decide gets faster*
//!   (the same ~80 ns ring push is a far bigger fraction of a ~170 ns
//!   interned-table decide than of the ~570 ns decide it replaced), which
//!   is why the absolute `_overhead_ns` ceiling above is the primary gate
//!   and the floor is a coarse backstop: a reintroduced per-event lock
//!   lands the ratio near 0.3 and still trips it. Hosts with slower
//!   decides (higher ratios) can tighten via the env override.
//! * **Decision throughput floors**: `decision_bench_decisions_per_sec`
//!   must stay above an absolute floor (default **5.2 M/s** — 3× the
//!   pre-optimization 1.74 M/s baseline; override with
//!   `BENCH_CHECK_MIN_DECISIONS_PER_SEC`) and
//!   `decision_bench_events_per_sec` / `..._events_per_sec_largest` above
//!   **312 k/s** (2× the pre-optimization 156 k/s; override with
//!   `BENCH_CHECK_MIN_EVENTS_PER_SEC`). These pin the PR-9 hot-path wins
//!   (batched ANN inference, interned decision tables, the arena-backed
//!   event loop) against gradual erosion; slower hosts override the envs.
//! * **Allocations per decision** (keys ending `_allocs_per_decision`,
//!   emitted when `decision_bench` runs with `--features alloc-count`)
//!   must stay below an absolute ceiling (default **2.0**; override with
//!   `BENCH_CHECK_MAX_ALLOCS_PER_DECISION`): the steady-state decide path
//!   is allocation-free except the decision's own `Binding`, and a
//!   reintroduced per-call menu rebuild shows up as tens of allocations.
//! * **Sweep cell count** must match exactly (coverage guard).
//!
//! The model-build wall clocks, `sweep_model_build_s` (`cluster_sweep`'s
//! in-process ANN training) and `scenario_model_build_s` (`scenario_sweep`'s
//! fleet build), are collected into the trajectory for the record. They
//! are not in the committed baseline and no rule above matches their keys,
//! so they gate nothing: a single run of a seconds-scale build is too noisy
//! for a bound until the gate measures run-to-run spread (ROADMAP item 1).
//!
//! Intentional changes: re-bless the baseline with
//! `cargo run --bin bench_check -- --write-baseline` and commit the updated
//! `results/BENCH_sweep.json`; `BENCH_CHECK_SKIP=1` disables the gate for a
//! one-off run. A missing input artefact skips its headlines with a
//! warning; a missing baseline fails loudly (run `--write-baseline` once).
//!
//! Exit code 0 = within tolerance, 1 = regression (or missing baseline).

use std::fs;
use std::process::ExitCode;

use serde::{Deserialize, Serialize, Value};

const RESULTS_DIR: &str = "results";
const BASELINE: &str = "results/BENCH_sweep.json";
const CURRENT: &str = "results/BENCH_sweep.current.json";
const DEFAULT_TOLERANCE_PTS: f64 = 2.0;
const DEFAULT_MAX_SLOWDOWN: f64 = 1.5;
const DEFAULT_MIN_TRACED_RATIO: f64 = 0.55;
const DEFAULT_MAX_TRACE_OVERHEAD_NS: f64 = 150.0;
const DEFAULT_MAX_ALLOCS_PER_DECISION: f64 = 2.0;
/// 3× the pre-optimization decide throughput (1.74 M/s before PR 9's
/// batched-inference + interned-table + arena work).
const DEFAULT_MIN_DECISIONS_PER_SEC: f64 = 5_200_000.0;
/// 2× the pre-optimization cluster event throughput (156 k/s).
const DEFAULT_MIN_EVENTS_PER_SEC: f64 = 312_000.0;

/// The collected bench trajectory: named scalar headlines, ordered.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Trajectory {
    headlines: Vec<(String, f64)>,
}

impl Trajectory {
    fn get(&self, key: &str) -> Option<f64> {
        self.headlines.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Loads a results JSON, warning (not failing) when absent — CI runs the
/// producing bins in the same job, but a local partial run is legitimate.
fn load(name: &str) -> Option<Value> {
    let path = format!("{RESULTS_DIR}/{name}");
    match fs::read_to_string(&path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("warning: {path} is not parseable JSON ({e}); skipping its headlines");
                None
            }
        },
        Err(_) => {
            eprintln!("warning: {path} not found; skipping its headlines");
            None
        }
    }
}

/// Collects the current trajectory from whatever artefacts exist.
fn collect() -> Trajectory {
    let mut headlines: Vec<(String, f64)> = Vec::new();
    let mut push = |key: &str, value: Option<f64>| {
        if let Some(v) = value {
            headlines.push((key.to_string(), v));
        } else {
            eprintln!("warning: headline {key} unavailable");
        }
    };

    if let Some(sweep) = load("cluster_sweep.json") {
        push("sweep_cells", sweep.get("cells").and_then(as_f64));
        push("sweep_wall_clock_s", sweep.get("wall_clock_s").and_then(as_f64));
        push("sweep_cells_per_sec", sweep.get("cells_per_sec").and_then(as_f64));
        // The ANN model build ahead of the sweep — collected, not gated
        // (see the module docs).
        push("sweep_model_build_s", sweep.get("model_build_s").and_then(as_f64));
        // Mean power-aware ED² vs FCFS across every (nodes, budget, seed)
        // group of the grid.
        let aware = sweep.get("policy_mean_ed2_vs_fcfs_pct").and_then(|pairs| match pairs {
            Value::Seq(items) => items.iter().find_map(|pair| match pair {
                Value::Seq(kv) if kv.len() == 2 && kv[0] == Value::Str("power-aware".into()) => {
                    as_f64(&kv[1])
                }
                _ => None,
            }),
            _ => None,
        });
        push("sweep_power_aware_vs_fcfs_ed2_pct", aware);
    }

    if let Some(coord) = load("coordinated_capping.json") {
        // The tight-budget coordinated-vs-independent delta: the headline
        // the coordinator exists for.
        let tight = coord.get("coordinated_vs_independent_ed2_pct").and_then(|pairs| match pairs {
            Value::Seq(items) => items.iter().find_map(|pair| match pair {
                Value::Seq(kv) if kv.len() == 2 && kv[0] == Value::Str("tight".into()) => {
                    as_f64(&kv[1])
                }
                _ => None,
            }),
            _ => None,
        });
        push("coordinated_vs_independent_tight_ed2_pct", tight);
    }

    if let Some(scenario) = load("scenario_sweep.json") {
        push("scenario_model_build_s", scenario.get("model_build_s").and_then(as_f64));
        // The scenario-engine acceptance headline: coordinated capping's
        // mean ED² delta vs independent power-aware-dvfs over the
        // heterogeneous (mixed-generation) cells of the scenario grid.
        push(
            "coordinated_vs_independent_hetero_ed2_pct",
            scenario.get("coordinated_vs_independent_hetero_ed2_pct").and_then(as_f64),
        );
        // The homogeneous reference rides along so a trajectory diff shows
        // whether a shift came from the coordinator or the fleet.
        push(
            "coordinated_vs_independent_uniform_ed2_pct",
            scenario.get("coordinated_vs_independent_uniform_ed2_pct").and_then(as_f64),
        );
    }

    if let Some(bench) = load("decision_bench.json") {
        push("decision_bench_decisions_per_sec", bench.get("decisions_per_sec").and_then(as_f64));
        push(
            "decision_bench_traced_decisions_per_sec",
            bench.get("traced_decisions_per_sec").and_then(as_f64),
        );
        // Telemetry overhead with a RingSink attached: traced / untraced
        // decisions/s, gated against the absolute ratio floor below.
        push("decision_bench_traced_ratio", bench.get("traced_ratio").and_then(as_f64));
        // The same overhead in absolute ns/decision — the scale-invariant
        // primary gate (ceiling, not floor).
        push("decision_bench_trace_overhead_ns", bench.get("trace_overhead_ns").and_then(as_f64));
        push("decision_bench_events_per_sec", bench.get("events_per_sec").and_then(as_f64));
        push(
            "decision_bench_events_per_sec_largest",
            bench.get("events_per_sec_largest").and_then(as_f64),
        );
        push("decision_bench_wall_clock_s", bench.get("wall_clock_s").and_then(as_f64));
        // Present only when decision_bench ran with --features alloc-count;
        // collected (and gated) whenever the artefact carries it.
        if let Some(allocs) = bench.get("allocs_per_decision").and_then(as_f64) {
            push("decision_bench_allocs_per_decision", Some(allocs));
        }
    }

    if let Some(dvfs) = load("fig_dvfs_dct.json") {
        // Mean joint-vs-DCT ED² delta over the NPB suites under the cap.
        let mean = dvfs.get("joint_vs_dct_ed2_pct").and_then(|pairs| match pairs {
            Value::Seq(items) => {
                let values: Vec<f64> = items
                    .iter()
                    .filter_map(|pair| match pair {
                        Value::Seq(kv) if kv.len() == 2 => as_f64(&kv[1]),
                        _ => None,
                    })
                    .collect();
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<f64>() / values.len() as f64)
                }
            }
            _ => None,
        });
        push("joint_vs_dct_mean_ed2_pct", mean);
    }

    Trajectory { headlines }
}

/// The wall-clock companion that gates a per-second throughput headline:
/// the rate is only meaningful once its measured section lasts ≥ 1 s.
fn throughput_wall_key(key: &str) -> Option<&'static str> {
    match key {
        "sweep_cells_per_sec" => Some("sweep_wall_clock_s"),
        "decision_bench_decisions_per_sec"
        | "decision_bench_traced_decisions_per_sec"
        | "decision_bench_events_per_sec"
        | "decision_bench_events_per_sec_largest" => Some("decision_bench_wall_clock_s"),
        _ => None,
    }
}

/// The absolute throughput floor pinned to a headline, if any — the PR-9
/// hot-path wins the gate must not let erode (see the module docs).
fn throughput_floor(key: &str) -> Option<f64> {
    match key {
        "decision_bench_decisions_per_sec" => {
            Some(env_f64("BENCH_CHECK_MIN_DECISIONS_PER_SEC", DEFAULT_MIN_DECISIONS_PER_SEC))
        }
        "decision_bench_events_per_sec" | "decision_bench_events_per_sec_largest" => {
            Some(env_f64("BENCH_CHECK_MIN_EVENTS_PER_SEC", DEFAULT_MIN_EVENTS_PER_SEC))
        }
        _ => None,
    }
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Compares `current` against `baseline`; returns the list of violations.
fn check(current: &Trajectory, baseline: &Trajectory) -> Vec<String> {
    let tolerance_pts = env_f64("BENCH_CHECK_TOLERANCE_PTS", DEFAULT_TOLERANCE_PTS);
    let max_slowdown = env_f64("BENCH_CHECK_MAX_SLOWDOWN", DEFAULT_MAX_SLOWDOWN);
    let mut violations = Vec::new();

    for (key, base) in &baseline.headlines {
        let Some(now) = current.get(key) else {
            violations.push(format!(
                "headline {key} is in the baseline but missing from the current run — did a \
                 smoke bin fail or stop emitting it?"
            ));
            continue;
        };
        if key.ends_with("_ed2_pct") {
            // Lower (more negative) is better; a rise is a regression.
            let worsened = now - base;
            if worsened > tolerance_pts {
                violations.push(format!(
                    "{key} worsened by {worsened:+.2} points ({base:+.2} -> {now:+.2}, \
                     tolerance {tolerance_pts})"
                ));
            }
        } else if key.ends_with("_wall_clock_s") {
            // The 1 s absolute grace keeps millisecond-scale smoke runs
            // from tripping on scheduler noise; what this catches is a
            // per-cell cost blowup (e.g. re-training the model per cell),
            // which blows through both bounds even on the smoke grid.
            if now > base * max_slowdown && now > base + 1.0 {
                violations.push(format!(
                    "{key} regressed {:.2}x ({base:.2} s -> {now:.2} s, allowed {max_slowdown}x)",
                    now / base
                ));
            }
        } else if key.ends_with("_overhead_ns") {
            // Absolute ceiling on the ns one attached sink adds to one
            // decide — the scale-invariant primary telemetry gate (the
            // ratio floor below is the coarse backstop).
            let ceiling =
                env_f64("BENCH_CHECK_MAX_TRACE_OVERHEAD_NS", DEFAULT_MAX_TRACE_OVERHEAD_NS);
            if now > ceiling {
                violations.push(format!(
                    "{key} is {now:.1} ns, above the {ceiling} ns ceiling — the attached sink \
                     costs the decide hot path too much per record"
                ));
            }
        } else if key.ends_with("_allocs_per_decision") {
            // Absolute ceiling: the steady-state decide path allocates only
            // the decision's own binding; a rebuilt per-call menu shows up
            // as tens of allocations per decide.
            let ceiling =
                env_f64("BENCH_CHECK_MAX_ALLOCS_PER_DECISION", DEFAULT_MAX_ALLOCS_PER_DECISION);
            if now > ceiling {
                violations.push(format!(
                    "{key} is {now:.2}, above the {ceiling} ceiling — the decide hot path \
                     re-grew per-call allocations"
                ));
            }
        } else if key.ends_with("_ratio") {
            // Absolute floor, not baseline-relative: the telemetry
            // overhead budget holds regardless of what was last blessed
            // (see the module docs for why the default floor is 0.55).
            let floor = env_f64("BENCH_CHECK_MIN_TRACED_RATIO", DEFAULT_MIN_TRACED_RATIO);
            if now < floor {
                violations.push(format!(
                    "{key} is {now:.3}, below the {floor} floor — telemetry overhead on the \
                     decide hot path exceeds the budget"
                ));
            }
        } else if let Some(wall_key) = throughput_wall_key(key) {
            // Throughput is noise below ~1 s of measured work; the
            // wall-clock gate above still catches pathological slowdowns.
            let base_wall = baseline.get(wall_key).unwrap_or(0.0);
            if base_wall >= 1.0 && now < base / max_slowdown {
                violations.push(format!(
                    "{key} regressed {:.2}x ({base:.1} -> {now:.1} per s, allowed \
                     {max_slowdown}x)",
                    base / now
                ));
            }
            // Absolute floors pin the PR-9 wins independent of what was
            // last blessed (and independent of the 1 s noise guard — a
            // floor miss by 10x is not timer noise).
            if let Some(floor) = throughput_floor(key) {
                if now < floor {
                    violations.push(format!(
                        "{key} is {now:.0} per s, below the absolute {floor:.0} floor \
                         (override BENCH_CHECK_MIN_*_PER_SEC on slower hosts)"
                    ));
                }
            }
        } else if key == "sweep_cells" && now != *base {
            violations.push(format!(
                "{key} changed ({base} -> {now}); grid coverage must change via \
                 --write-baseline"
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let write_baseline = std::env::args().skip(1).any(|a| a == "--write-baseline");
    let current = collect();

    println!("== bench trajectory ==");
    for (key, value) in &current.headlines {
        println!("  {key:<42} {value:+.3}");
    }
    let json = serde_json::to_string_pretty(&current).expect("trajectory serializes");
    if let Err(e) = fs::write(CURRENT, &json) {
        eprintln!("warning: could not write {CURRENT}: {e}");
    } else {
        println!("[wrote {CURRENT}]");
    }

    if write_baseline {
        fs::write(BASELINE, &json).expect("baseline must be writable under --write-baseline");
        println!("[wrote {BASELINE}] — commit it to bless this trajectory");
        return ExitCode::SUCCESS;
    }

    if std::env::var("BENCH_CHECK_SKIP").is_ok_and(|v| v == "1") {
        println!("BENCH_CHECK_SKIP=1: regression gate skipped");
        return ExitCode::SUCCESS;
    }

    let Ok(text) = fs::read_to_string(BASELINE) else {
        eprintln!(
            "error: no baseline at {BASELINE}; run `cargo run --bin bench_check -- \
             --write-baseline` after a green run and commit it"
        );
        return ExitCode::FAILURE;
    };
    let baseline: Trajectory = match serde_json::from_str(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: baseline {BASELINE} unparseable: {e}");
            return ExitCode::FAILURE;
        }
    };

    let violations = check(&current, &baseline);
    if violations.is_empty() {
        println!("bench-check: all headlines within tolerance of the baseline");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-check: {} regression(s) vs {BASELINE}:", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        eprintln!(
            "intentional? bless with `cargo run --bin bench_check -- --write-baseline` and \
             commit, or set BENCH_CHECK_TOLERANCE_PTS / BENCH_CHECK_MAX_SLOWDOWN / \
             BENCH_CHECK_SKIP=1"
        );
        ExitCode::FAILURE
    }
}
