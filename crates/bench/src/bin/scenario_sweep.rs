//! `scenario_sweep` — the heterogeneous fault-injected re-run of the
//! coordinated-capping scoreboard.
//!
//! Sweeps independent (`power-aware-dvfs`) vs coordinated
//! (`power-aware-coordinated`) capping across the scenario axes: machine
//! mixes (`uniform` / `mixed` / `legacy`), fault scenarios (`none` /
//! `crash`), and arrival processes (`poisson` / `bursty`), at tight and
//! medium budgets. Every node's budget is priced against its own
//! generation's idle floor ([`cluster_sched::budget_for_mix`]), and every
//! cell simulates the mix's actual hardware through a per-generation
//! [`cluster_sched::FleetModel`].
//!
//! The headline, `coordinated_vs_independent_hetero_ed2_pct`, is the mean
//! coordinated-vs-independent ED² delta over the *heterogeneous* cells —
//! where per-node redistribution has generation asymmetry to exploit, its
//! lead should widen past the homogeneous (`uniform`) delta, which rides
//! along as `coordinated_vs_independent_uniform_ed2_pct`. `bench_check`
//! gates the heterogeneous headline. A `--grid` naming only one side of
//! the machines= axis still runs (per-mix deltas and artefacts intact);
//! the headline fields are simply `null`.
//!
//! Flags (shared bench harness): `--fast` (reduced ANN training + light
//! workload), `--jobs N`, `--grid SPEC` (e.g.
//! `machines=uniform,mixed;faults=storm;arrivals=tenants`), `--seed N`
//! (ANN training seed), `--trace PATH` (JSONL telemetry, including the new
//! `node_failed`/`node_recovered`/`slo_violated` events).

use std::sync::Arc;
use std::time::Instant;

use actor_bench::sweep_out::{cells_output, score_policies};
use actor_bench::Harness;
use actor_core::report::{fmt3, Table};
use cluster_sched::{light_workload, run_sweep_fleet, ClusterReport, FleetModel, SweepSpec};
use npb_workloads::BenchmarkId;
use serde::{Deserialize, Serialize};

const INDEPENDENT: &str = "power-aware-dvfs";
const COORDINATED: &str = "power-aware-coordinated";

/// One (mix, faults, arrivals, budget, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioEntry {
    machines: String,
    faults: String,
    arrivals: String,
    budget_label: String,
    budget_fraction: f64,
    power_budget_w: f64,
    policy: String,
    cluster_ed2_j_s2: f64,
    makespan_s: f64,
    total_energy_j: f64,
    node_failures: usize,
    killed_jobs: usize,
    deadline_misses: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioOutput {
    nodes: usize,
    workload_seed: u64,
    /// Wall-clock of the fleet build (s): every generation's leave-one-out
    /// ANN training. Varies run to run, like the sweep timing.
    model_build_s: f64,
    entries: Vec<ScenarioEntry>,
    /// Coordinated ED² vs independent per machine mix, averaged over the
    /// (budget × faults × arrivals) cells of that mix (%; negative =
    /// coordination wins).
    coordinated_vs_independent_ed2_pct: Vec<(String, f64)>,
    /// The gated headline: the mean delta over every heterogeneous mix.
    /// `None` when the grid names no heterogeneous mix.
    coordinated_vs_independent_hetero_ed2_pct: Option<f64>,
    /// The homogeneous reference delta. `None` when the grid names no
    /// uniform mix.
    coordinated_vs_independent_uniform_ed2_pct: Option<f64>,
    /// Headline minus reference: negative = the coordinated lead *widens*
    /// on mixed-generation clusters (the scenario engine's acceptance).
    /// `None` unless the grid has both a uniform and a heterogeneous mix.
    hetero_lead_delta_pct: Option<f64>,
}

fn main() {
    let harness = Harness::from_env();
    let jobs = harness.args.jobs_or_auto();
    let mut exp = harness.experiment();

    let mut spec = SweepSpec::scenario_default();
    if harness.args.fast {
        spec.workload = light_workload;
    }
    if let Some(grid) = &harness.args.grid {
        spec = spec.with_grid(grid).unwrap_or_else(|e| panic!("{e}"));
    }
    for policy in [INDEPENDENT, COORDINATED] {
        assert!(
            spec.policies.iter().any(|p| p == policy),
            "scenario_sweep compares {INDEPENDENT} vs {COORDINATED}; the grid must keep both \
             (policies: {:?})",
            spec.policies
        );
    }

    let mixes = spec.mixes().unwrap_or_else(|e| panic!("{e}"));
    eprintln!(
        "building the fleet model ({} machine generation(s), leave-one-out ANN training over \
         the NPB suite)...",
        mixes.iter().flat_map(|m| m.generations()).collect::<std::collections::BTreeSet<_>>().len()
    );
    let started = Instant::now();
    let fleet = Arc::new(
        FleetModel::build(&harness.args.config(), &BenchmarkId::ALL, &mixes)
            .unwrap_or_else(|e| panic!("fleet model construction failed: {e}")),
    );
    let model_build_s = started.elapsed().as_secs_f64();
    eprintln!("fleet model built in {model_build_s:.2} s");

    eprintln!("running {} sweep cells on {jobs} worker thread(s)...", spec.len());
    let run = run_sweep_fleet(&spec, &fleet, jobs, harness.telemetry_sink(), |outcome, _, _| {
        let (p, r) = (&outcome.cell.point, &outcome.report);
        eprintln!(
            "  {:<7} | {:<10} | {:<7} | {:<6} | {:<23} -> ED2 {:.3e} J.s2, {} failure(s), \
             {} kill(s)",
            p.machines,
            p.faults,
            p.arrivals,
            p.budget_label,
            p.policy,
            r.cluster_ed2(),
            r.node_failures,
            r.killed_jobs,
        );
    })
    .unwrap_or_else(|e| panic!("sweep failed: {e}"));
    eprintln!(
        "sweep: {} cells in {:.1} s on {} worker thread(s) ({:.2} cells/s)",
        run.outcomes.len(),
        run.wall_clock_s,
        run.jobs,
        run.cells_per_sec(),
    );

    // Per-mix coordinated-vs-independent deltas: within each (budget,
    // faults, arrivals) group of a mix, both policies ran on the same
    // hardware, traffic and fault schedule.
    let mut entries = Vec::new();
    let mut table = Table::new(vec![
        "machines",
        "faults",
        "arrivals",
        "budget",
        "policy",
        "ED2 MJ.s2",
        "fails",
        "kills",
        "vs indep.",
    ]);
    let mut per_mix: Vec<(String, f64)> = Vec::new();
    for mix in &spec.machine_mixes {
        let mut deltas = Vec::new();
        for faults in &spec.faults {
            for arrivals in &spec.arrivals {
                for (budget_label, fraction) in &spec.budgets {
                    let group: Vec<(&str, &ClusterReport)> = run
                        .outcomes
                        .iter()
                        .filter(|o| {
                            let p = &o.cell.point;
                            p.machines == *mix
                                && p.faults == *faults
                                && p.arrivals == *arrivals
                                && p.budget_label == *budget_label
                        })
                        .map(|o| (o.cell.point.policy.as_str(), &o.report))
                        .collect();
                    let independent_ed2 = group
                        .iter()
                        .find(|(p, _)| *p == INDEPENDENT)
                        .map(|(_, r)| r.cluster_ed2())
                        .expect("independent baseline ran in every group");
                    for (policy, r) in &group {
                        let vs = (r.cluster_ed2() / independent_ed2 - 1.0) * 100.0;
                        table.push_row(vec![
                            mix.clone(),
                            faults.clone(),
                            arrivals.clone(),
                            budget_label.clone(),
                            (*policy).to_string(),
                            fmt3(r.cluster_ed2() / 1e6),
                            r.node_failures.to_string(),
                            r.killed_jobs.to_string(),
                            format!("{vs:+.1}%"),
                        ]);
                        entries.push(ScenarioEntry {
                            machines: mix.clone(),
                            faults: faults.clone(),
                            arrivals: arrivals.clone(),
                            budget_label: budget_label.clone(),
                            budget_fraction: *fraction,
                            power_budget_w: r.power_budget_w,
                            policy: (*policy).to_string(),
                            cluster_ed2_j_s2: r.cluster_ed2(),
                            makespan_s: r.makespan_s,
                            total_energy_j: r.total_energy_j,
                            node_failures: r.node_failures,
                            killed_jobs: r.killed_jobs,
                            deadline_misses: r.deadline_misses(),
                        });
                    }
                    let coordinated_ed2 = group
                        .iter()
                        .find(|(p, _)| *p == COORDINATED)
                        .map(|(_, r)| r.cluster_ed2())
                        .expect("coordinated policy ran in every group");
                    deltas.push((coordinated_ed2 / independent_ed2 - 1.0) * 100.0);
                }
            }
        }
        per_mix.push((mix.clone(), deltas.iter().sum::<f64>() / deltas.len() as f64));
    }

    // Mixes other than "uniform" count as heterogeneous here — including
    // "modern", a *different* homogeneous cluster, whose delta still
    // answers "does coordination pay off away from the reference fleet?".
    let mean_over = |hetero: bool| {
        let vals: Vec<f64> = per_mix
            .iter()
            .filter(|(mix, _)| (mix != "uniform") == hetero)
            .map(|(_, d)| *d)
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    };
    let hetero = mean_over(true);
    let uniform = mean_over(false);

    exp.emit(
        "scenario_sweep",
        "Coordinated vs independent capping across mixes, faults and arrivals",
        &table,
    );
    for (mix, pct) in &per_mix {
        exp.note(&format!("{mix}: coordinated ED2 {pct:+.1}% vs independent"));
    }
    match (hetero, uniform) {
        (Some(h), Some(u)) => exp.note(&format!(
            "heterogeneous mean {h:+.1}% vs uniform {u:+.1}% — the coordinated lead \
             {} {:+.1} pts on mixed-generation clusters",
            if h < u { "widens by" } else { "narrows by" },
            h - u,
        )),
        _ => exp.note(
            "single-sided grid: the hetero-vs-uniform headline needs both a uniform and a \
             heterogeneous mix on the machines= axis (the per-mix deltas above still hold)",
        ),
    }

    // The policy scoreboard over the whole scenario grid (meaningful when
    // a `--grid policies=...` override re-adds fcfs/backfill/power-aware).
    let (means, _) = score_policies(&run.outcomes);
    for (policy, mean) in &means {
        if policy != "fcfs" {
            exp.note(&format!("{policy}: mean cluster ED2 {mean:+.1}% vs fcfs"));
        }
    }

    let output = ScenarioOutput {
        nodes: *spec.nodes.first().expect("the grid has a node count"),
        workload_seed: *spec.seeds.first().expect("the grid has a workload seed"),
        model_build_s,
        entries,
        coordinated_vs_independent_ed2_pct: per_mix,
        coordinated_vs_independent_hetero_ed2_pct: hetero,
        coordinated_vs_independent_uniform_ed2_pct: uniform,
        hetero_lead_delta_pct: hetero.zip(uniform).map(|(h, u)| h - u),
    };
    let json = serde_json::to_string_pretty(&output).expect("sweep serializes");
    exp.artifact("scenario_sweep.json", &json);
    // The timing-free cells artefact: byte-identical across every `--jobs N`.
    let cells_json =
        serde_json::to_string_pretty(&cells_output(&run.outcomes)).expect("cells serialize");
    exp.artifact("scenario_sweep_cells.json", &cells_json);
}
