//! Cluster extension — sweep node count × power budget × scheduling policy
//! and report per-job and cluster-level time/power/energy/ED².
//!
//! The cluster runs the full NPB mix under a shared power envelope; the
//! `power-aware` policy consumes the workload model's ANN decisions through
//! the `PowerPerfController` trait to throttle job phases into the available
//! headroom, and is expected to beat `fcfs` on cluster ED² at the tightest
//! budget. Prints tables to stdout, writes CSVs under `results/`, and emits
//! the whole sweep (reports + rendered tables) as JSON to
//! `results/cluster_power_cap.json`.
//!
//! The sweep runs on the parallel sweep engine (`cluster_sched::sweep`):
//! the ANN-trained workload model is built once and shared across all
//! cells, which execute concurrently on `--jobs N` worker threads
//! (default: all cores) — or, under `--processes N`, on N local worker
//! *processes* dispatched by the cluster daemon, each rebuilding the model
//! from the wire-carried config. Results stream back in completion order
//! but the persisted tables and JSON are always in deterministic cell
//! order — byte-identical for any worker count in either mode.
//!
//! Pass `--fast` to use the reduced ANN training configuration, and
//! `--dvfs` (alias `--freq-ladder`) to add the joint DVFS+DCT policy
//! (`power-aware-dvfs`) *and* the coordinated policy
//! (`power-aware-coordinated`, which redistributes the cluster budget
//! across jobs at every event) to the sweep — the JSON then also reports
//! the headline 8-node tight-budget ED² deltas of joint control vs
//! DCT-only and of coordinated vs independent capping. Pass `--trace PATH`
//! for JSONL telemetry: one record per controller decision, cluster event,
//! completed sweep cell and progress note.

use actor_bench::{FileReporter, Harness};
use actor_core::report::{fmt3, StreamingReporter};
use cluster_sched::{
    budget_from_fraction, cluster_summary_headers, cluster_summary_row, job_table, ClusterReport,
    SweepCellOutcome, SweepSpec,
};
use serde::{Deserialize, Serialize};

/// One cell of the sweep, JSON-serializable with its rendered tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepEntry {
    nodes: usize,
    budget_label: String,
    budget_fraction: f64,
    policy: String,
    cluster_ed2_j_s2: f64,
    avg_wait_s: f64,
    deadline_misses: usize,
    throttle_fraction: f64,
    report: ClusterReport,
    job_table_csv: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepOutput {
    workload_seed: u64,
    entries: Vec<SweepEntry>,
    summary_table_csv: String,
    /// 8-node tight-budget ED² of joint DVFS+DCT control relative to the
    /// DCT-only power-aware policy (%); `null` unless the sweep ran with
    /// `--dvfs`.
    dvfs_joint_vs_dct_ed2_pct: Option<f64>,
    /// 8-node tight-budget ED² of coordinated capping relative to the
    /// independent `power-aware-dvfs` baseline (%); `null` unless the sweep
    /// ran with `--dvfs`. Negative = the coordinator wins.
    coordinated_vs_independent_ed2_pct: Option<f64>,
}

fn main() {
    let dvfs = std::env::args().skip(1).any(|a| a == "--dvfs" || a == "--freq-ladder");
    let harness = Harness::from_env();
    harness.args.reject_unhonoured_flags(&["--processes"]);
    if harness.args.grid.is_some() {
        // This bin's headline tables assume the historical fixed grid;
        // arbitrary grids belong to `cluster_sweep`.
        eprintln!("warning: --grid is not supported by cluster_power_cap (use cluster_sweep); running the default grid");
    }
    let idle_w = harness.experiment().machine().params().power.system_idle_w;

    let spec = SweepSpec::power_cap_default(dvfs);
    let mut streaming = StreamingReporter::new(
        Box::new(FileReporter::default()),
        "cluster_power_cap",
        "Cluster power-cap sweep: all runs",
        cluster_summary_headers(),
        spec.len(),
    );
    if let Some(sink) = harness.telemetry_sink() {
        streaming = streaming.with_telemetry(sink);
    }
    let on_cell = |outcome: &SweepCellOutcome, _done: usize, _total: usize| {
        let (p, r) = (&outcome.cell.point, &outcome.report);
        eprintln!(
            "  {} nodes | {:<6} ({:.0} W) | {:<11} -> makespan {:.0} s, ED2 {:.3e} J.s2",
            p.nodes,
            p.budget_label,
            r.power_budget_w,
            p.policy,
            r.makespan_s,
            r.cluster_ed2(),
        );
        streaming.row(outcome.cell.index, cluster_summary_row(r));
    };
    let run = harness.run_sweep(&spec, "default", on_cell).run;
    let mut reporter = streaming.finish();
    reporter.note(&format!(
        "sweep: {} cells in {:.1} s on {} worker(s) ({:.2} cells/s)",
        run.outcomes.len(),
        run.wall_clock_s,
        run.jobs,
        run.cells_per_sec(),
    ));

    let entries: Vec<SweepEntry> = run
        .outcomes
        .iter()
        .map(|o| SweepEntry {
            nodes: o.cell.point.nodes,
            budget_label: o.cell.point.budget_label.clone(),
            budget_fraction: o.cell.point.budget_fraction,
            policy: o.cell.point.policy.clone(),
            cluster_ed2_j_s2: o.report.cluster_ed2(),
            avg_wait_s: o.report.avg_wait_s(),
            deadline_misses: o.report.deadline_misses(),
            throttle_fraction: o.report.throttle_fraction(),
            job_table_csv: job_table(&o.report).to_csv(),
            report: o.report.clone(),
        })
        .collect();
    let reports: Vec<&ClusterReport> = run.reports();

    // The headline comparison: 8 nodes, tightest budget.
    let mut headline = actor_core::report::Table::new(vec![
        "policy",
        "makespan s",
        "energy kJ",
        "cluster ED2 MJ.s2",
        "vs fcfs",
    ]);
    let tight_8: Vec<&ClusterReport> = reports
        .iter()
        .filter(|r| r.nodes == 8 && r.power_budget_w < budget_from_fraction(8, idle_w, 160.0, 0.5))
        .copied()
        .collect();
    let fcfs_ed2 = tight_8
        .iter()
        .find(|r| r.policy == "fcfs")
        .map(|r| r.cluster_ed2())
        .expect("fcfs ran at the tight tier");
    for r in &tight_8 {
        headline.push_row(vec![
            r.policy.clone(),
            fmt3(r.makespan_s),
            fmt3(r.total_energy_j / 1e3),
            fmt3(r.cluster_ed2() / 1e6),
            format!("{:+.1}%", (r.cluster_ed2() / fcfs_ed2 - 1.0) * 100.0),
        ]);
    }
    reporter.table("cluster_power_cap_tight8", "8 nodes, tight budget: the headline", &headline);

    // Under --dvfs: the joint-control and coordination headlines.
    let (dvfs_joint_vs_dct_ed2_pct, coordinated_vs_independent_ed2_pct) = if dvfs {
        let aware = tight_8.iter().find(|r| r.policy == "power-aware").expect("DCT-only ran");
        let joint =
            tight_8.iter().find(|r| r.policy == "power-aware-dvfs").expect("joint policy ran");
        let coordinated = tight_8
            .iter()
            .find(|r| r.policy == "power-aware-coordinated")
            .expect("coordinated policy ran");
        let joint_pct = (joint.cluster_ed2() / aware.cluster_ed2() - 1.0) * 100.0;
        reporter.note(&format!(
            "8 nodes @ tight budget: joint DVFS+DCT ED2 is {joint_pct:+.1}% vs DCT-only \
             power-aware",
        ));
        let coord_pct = (coordinated.cluster_ed2() / joint.cluster_ed2() - 1.0) * 100.0;
        reporter.note(&format!(
            "8 nodes @ tight budget: coordinated capping ED2 is {coord_pct:+.1}% vs independent \
             power-aware-dvfs ({})",
            if coord_pct < 0.0 { "redistribution wins" } else { "UNEXPECTED" },
        ));
        (Some(joint_pct), Some(coord_pct))
    } else {
        (None, None)
    };

    let mut summary_table = actor_core::report::Table::new(cluster_summary_headers());
    for o in &run.outcomes {
        summary_table.push_row(cluster_summary_row(&o.report));
    }
    let output = SweepOutput {
        workload_seed: *spec.seeds.first().expect("the default grid has a workload seed"),
        entries,
        summary_table_csv: summary_table.to_csv(),
        dvfs_joint_vs_dct_ed2_pct,
        coordinated_vs_independent_ed2_pct,
    };
    let json = serde_json::to_string_pretty(&output).expect("sweep serializes");
    reporter.artifact("cluster_power_cap.json", &json);

    let aware_ed2 = tight_8
        .iter()
        .find(|r| r.policy == "power-aware")
        .map(|r| r.cluster_ed2())
        .expect("power-aware ran at the tight tier");
    reporter.note(&format!(
        "8 nodes @ tight budget: power-aware ED2 is {:+.1}% vs FCFS ({})",
        (aware_ed2 / fcfs_ed2 - 1.0) * 100.0,
        if aware_ed2 < fcfs_ed2 { "prediction-based throttling wins" } else { "UNEXPECTED" },
    ));
}
