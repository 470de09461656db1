//! Coordinated vs independent multi-node capping, across power budgets.
//!
//! Sweeps the cluster budget from tight to ample on an 8-node cluster and
//! runs the same NPB job stream under the independent joint policy
//! (`power-aware-dvfs`: each job is throttled against a static share of the
//! headroom at assignment time) and the coordinated policy
//! (`power-aware-coordinated`: a cluster-level [`cluster_sched::CapCoordinator`]
//! observes per-node draw at every discrete event and redistributes the
//! budget so memory-bound slack funds compute-bound boost). The DCT-only
//! `power-aware` policy rides along as the reference point.
//!
//! Runs on the parallel sweep engine (`cluster_sched::sweep`): one shared
//! ANN-trained workload model, all (budget × policy) cells concurrent on
//! `--jobs N` worker threads, deterministic cell-ordered output.
//!
//! Prints a per-budget table, notes the headline tight-budget delta, and
//! writes the whole sweep as JSON to `results/coordinated_capping.json`.
//! Pass `--fast` for the reduced ANN training configuration, and
//! `--trace PATH` for JSONL telemetry (one record per controller decision,
//! cluster event and completed sweep cell).

use std::sync::Arc;

use actor_bench::Harness;
use actor_core::report::{fmt3, Table};
use cluster_sched::{run_sweep_fleet, ClusterReport, SweepSpec};
use serde::{Deserialize, Serialize};

const NODES: usize = 8;

/// One (budget, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepEntry {
    budget_label: String,
    budget_fraction: f64,
    power_budget_w: f64,
    policy: String,
    cluster_ed2_j_s2: f64,
    makespan_s: f64,
    total_energy_j: f64,
    avg_wait_s: f64,
    throttle_fraction: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepOutput {
    nodes: usize,
    workload_seed: u64,
    entries: Vec<SweepEntry>,
    /// Coordinated ED² relative to independent `power-aware-dvfs`, per
    /// budget label (%). Negative = coordination wins.
    coordinated_vs_independent_ed2_pct: Vec<(String, f64)>,
}

fn main() {
    let harness = Harness::from_env();
    harness.args.reject_unhonoured_flags(&[]);
    let jobs = harness.args.jobs_or_auto();
    if harness.args.grid.is_some() {
        // This bin's per-budget deltas assume the historical fixed grid;
        // arbitrary grids belong to `cluster_sweep`.
        eprintln!("warning: --grid is not supported by coordinated_capping (use cluster_sweep); running the default grid");
    }
    let mut exp = harness.experiment();

    let spec = SweepSpec::coordinated_default();
    eprintln!("building the workload model (leave-one-out ANN training over the NPB suite)...");
    let mixes = spec.mixes().unwrap_or_else(|e| panic!("{e}"));
    let fleet = Arc::new(exp.fleet_model(&mixes).expect("fleet model construction failed"));

    eprintln!("running {} sweep cells on {jobs} worker thread(s)...", spec.len());
    let run =
        run_sweep_fleet(&spec, &fleet, jobs, harness.telemetry_sink(), |outcome, _done, _total| {
            let (p, r) = (&outcome.cell.point, &outcome.report);
            eprintln!(
                "  {:<6} ({:.0} W) | {:<23} -> makespan {:.0} s, ED2 {:.3e} J.s2",
                p.budget_label,
                r.power_budget_w,
                p.policy,
                r.makespan_s,
                r.cluster_ed2(),
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

    let mut entries: Vec<SweepEntry> = Vec::new();
    let mut table =
        Table::new(vec!["budget", "policy", "makespan s", "energy kJ", "ED2 MJ.s2", "vs indep."]);
    let mut deltas: Vec<(String, f64)> = Vec::new();
    for (budget_label, fraction) in &spec.budgets {
        let tier: Vec<(&str, &ClusterReport)> = run
            .outcomes
            .iter()
            .filter(|o| o.cell.point.budget_label == *budget_label)
            .map(|o| (o.cell.point.policy.as_str(), &o.report))
            .collect();
        let independent_ed2 = tier
            .iter()
            .find(|(p, _)| *p == "power-aware-dvfs")
            .map(|(_, r)| r.cluster_ed2())
            .expect("independent baseline ran");
        for (_, report) in &tier {
            let vs = (report.cluster_ed2() / independent_ed2 - 1.0) * 100.0;
            table.push_row(vec![
                budget_label.to_string(),
                report.policy.clone(),
                fmt3(report.makespan_s),
                fmt3(report.total_energy_j / 1e3),
                fmt3(report.cluster_ed2() / 1e6),
                format!("{vs:+.1}%"),
            ]);
            entries.push(SweepEntry {
                budget_label: budget_label.to_string(),
                budget_fraction: *fraction,
                power_budget_w: report.power_budget_w,
                policy: report.policy.clone(),
                cluster_ed2_j_s2: report.cluster_ed2(),
                makespan_s: report.makespan_s,
                total_energy_j: report.total_energy_j,
                avg_wait_s: report.avg_wait_s(),
                throttle_fraction: report.throttle_fraction(),
            });
        }
        let coordinated_ed2 = tier
            .iter()
            .find(|(p, _)| *p == "power-aware-coordinated")
            .map(|(_, r)| r.cluster_ed2())
            .expect("coordinated policy ran");
        deltas.push((budget_label.to_string(), (coordinated_ed2 / independent_ed2 - 1.0) * 100.0));
    }

    exp.emit(
        "coordinated_capping",
        "Coordinated vs independent capping, 8 nodes across budgets",
        &table,
    );
    for (label, pct) in &deltas {
        exp.note(&format!(
            "{NODES} nodes @ {label}: coordinated capping ED2 is {pct:+.1}% vs independent \
             power-aware-dvfs ({})",
            if *pct < 0.0 { "redistribution wins" } else { "independent holds" },
        ));
    }

    let output = SweepOutput {
        nodes: NODES,
        workload_seed: *spec.seeds.first().expect("the default grid has a workload seed"),
        entries,
        coordinated_vs_independent_ed2_pct: deltas,
    };
    let json = serde_json::to_string_pretty(&output).expect("sweep serializes");
    exp.artifact("coordinated_capping.json", &json);
}
