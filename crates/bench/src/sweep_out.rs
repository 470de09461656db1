//! Shared presentation of policy-search sweep results: the compact cell
//! records, the policy scoreboard, and the JSON artefacts — used by
//! `cluster_sweep` (in-process and `--processes` modes) and the
//! `cluster_daemon` bin, so every execution mode renders **byte-identical**
//! artefacts from the same outcomes.

use std::collections::BTreeMap;

use cluster_sched::{light_workload, SweepCellOutcome, SweepRun, SweepSpec};
use serde::{Deserialize, Serialize};

/// One compact cell record (the full `ClusterReport`s would make a
/// 1000-cell artefact enormous).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEntry {
    /// Cell index in expansion order.
    pub index: usize,
    /// Cluster size.
    pub nodes: usize,
    /// Budget tier label.
    pub budget_label: String,
    /// Budget as a fraction of the dynamic power range.
    pub budget_fraction: f64,
    /// Scheduling policy.
    pub policy: String,
    /// Machine-mix name.
    pub machines: String,
    /// Fault-scenario name.
    pub faults: String,
    /// Arrival-process name.
    pub arrivals: String,
    /// Workload seed.
    pub seed: u64,
    /// Cluster energy × makespan² (the headline metric).
    pub cluster_ed2_j_s2: f64,
    /// Makespan (s).
    pub makespan_s: f64,
    /// Total energy (J).
    pub total_energy_j: f64,
    /// Mean job wait (s).
    pub avg_wait_s: f64,
    /// Fraction of decisions that throttled below the ideal configuration.
    pub throttle_fraction: f64,
    /// Budget violations observed.
    pub cap_violations: usize,
    /// Node crash events injected by the fault scenario.
    pub node_failures: usize,
    /// Jobs terminated unfinished under `FaultPolicy::Kill`.
    pub killed_jobs: usize,
}

/// The full `cluster_sweep.json` artefact: cells plus scoreboard plus
/// timing. The timing fields (`model_build_s`, `jobs`, `wall_clock_s`,
/// `cells_per_sec`) vary run to run — byte-identity across execution modes
/// is the job of [`CellsOutput`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutput {
    /// Completed cells.
    pub cells: usize,
    /// Wall-clock of the in-process model build (s): the leave-one-out
    /// ANN training that precedes the sweep. `None` when worker processes
    /// built their own models.
    pub model_build_s: Option<f64>,
    /// Worker threads (or processes) used.
    pub jobs: usize,
    /// Wall-clock of the execute phase (s).
    pub wall_clock_s: f64,
    /// Throughput headline.
    pub cells_per_sec: f64,
    /// Every cell, in index order.
    pub entries: Vec<CellEntry>,
    /// Per policy: mean ED² relative to FCFS over every (nodes, budget,
    /// seed) group that ran both (%; negative = beats FCFS). Empty when the
    /// grid has no `fcfs` reference cells.
    pub policy_mean_ed2_vs_fcfs_pct: Vec<(String, f64)>,
    /// Per policy: number of (nodes, budget, seed) groups it won outright
    /// (lowest ED² in the group).
    pub policy_wins: Vec<(String, usize)>,
}

/// The deterministic artefact (`*_cells.json`): everything in
/// [`SweepOutput`] except timing. Byte-identical for the same grid and
/// seed across serial, `--jobs N`, `--processes N`, and daemon modes — the
/// distributed CI smoke test diffs exactly this file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellsOutput {
    /// Completed cells.
    pub cells: usize,
    /// Every cell, in index order.
    pub entries: Vec<CellEntry>,
    /// See [`SweepOutput::policy_mean_ed2_vs_fcfs_pct`].
    pub policy_mean_ed2_vs_fcfs_pct: Vec<(String, f64)>,
    /// See [`SweepOutput::policy_wins`].
    pub policy_wins: Vec<(String, usize)>,
}

/// The default ~1000-cell policy-search grid, or the 48-cell smoke grid
/// under `--fast`. Both use the `"light"` workload shape (breadth over
/// depth), so the grid can be served to remote workers by name.
pub fn default_spec(fast: bool) -> SweepSpec {
    let mut spec = if fast {
        SweepSpec {
            nodes: vec![2, 4],
            budgets: vec![("tight".into(), 0.45), ("ample".into(), 1.0)],
            policies: vec!["fcfs".into(), "power-aware".into(), "power-aware-dvfs".into()],
            seeds: (2007..2011).collect(),
            ..SweepSpec::default()
        }
    } else {
        SweepSpec {
            nodes: vec![2, 4, 6, 8],
            budgets: vec![
                ("tight".into(), 0.45),
                ("snug".into(), 0.55),
                ("medium".into(), 0.7),
                ("ample".into(), 1.0),
            ],
            policies: cluster_sched::POLICY_NAMES.iter().map(|s| s.to_string()).collect(),
            seeds: (2007..2020).collect(),
            ..SweepSpec::default()
        }
    };
    // Policy search wants breadth over depth: a light per-cell workload
    // keeps a four-digit grid interactive.
    spec.workload = light_workload;
    spec
}

/// Per-policy mean ED² vs FCFS (%), ordered by policy name.
pub type PolicyMeans = Vec<(String, f64)>;
/// Per-policy outright group-win counts, ordered by policy name.
pub type PolicyWins = Vec<(String, usize)>;

/// Scores policies across (nodes, budget, seed) groups: mean ED² vs the
/// group's FCFS reference, and outright group wins.
pub fn score_policies(outcomes: &[SweepCellOutcome]) -> (PolicyMeans, PolicyWins) {
    // The fraction (as bits, for Ord) joins the label in the key: `--grid`
    // overrides may reuse a label for distinct tiers, and two different
    // budgets must never share one scoring group or FCFS reference. The
    // scenario axes are part of the key too — a faulty bursty cell must
    // never be scored against a healthy Poisson FCFS reference.
    type GroupKey = (usize, String, u64, String, String, String, u64);
    let mut groups: BTreeMap<GroupKey, Vec<(&str, f64)>> = BTreeMap::new();
    for o in outcomes {
        let p = &o.cell.point;
        groups
            .entry((
                p.nodes,
                p.budget_label.clone(),
                p.budget_fraction.to_bits(),
                p.machines.clone(),
                p.faults.clone(),
                p.arrivals.clone(),
                p.seed,
            ))
            .or_default()
            .push((p.policy.as_str(), o.report.cluster_ed2()));
    }
    let mut vs_fcfs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut wins: BTreeMap<&str, usize> = BTreeMap::new();
    for members in groups.values() {
        if let Some(&(_, fcfs_ed2)) = members.iter().find(|(p, _)| *p == "fcfs") {
            for &(policy, ed2) in members {
                vs_fcfs.entry(policy).or_default().push((ed2 / fcfs_ed2 - 1.0) * 100.0);
            }
        }
        if let Some(&(winner, _)) = members.iter().min_by(|(_, a), (_, b)| a.total_cmp(b)) {
            *wins.entry(winner).or_default() += 1;
        }
    }
    let means = vs_fcfs
        .into_iter()
        .map(|(p, v)| (p.to_string(), v.iter().sum::<f64>() / v.len() as f64))
        .collect();
    let wins = wins.into_iter().map(|(p, n)| (p.to_string(), n)).collect();
    (means, wins)
}

/// The compact record of one outcome.
pub fn cell_entry(o: &SweepCellOutcome) -> CellEntry {
    CellEntry {
        index: o.cell.index,
        nodes: o.cell.point.nodes,
        budget_label: o.cell.point.budget_label.clone(),
        budget_fraction: o.cell.point.budget_fraction,
        policy: o.cell.point.policy.clone(),
        machines: o.cell.point.machines.clone(),
        faults: o.cell.point.faults.clone(),
        arrivals: o.cell.point.arrivals.clone(),
        seed: o.cell.point.seed,
        cluster_ed2_j_s2: o.report.cluster_ed2(),
        makespan_s: o.report.makespan_s,
        total_energy_j: o.report.total_energy_j,
        avg_wait_s: o.report.avg_wait_s(),
        throttle_fraction: o.report.throttle_fraction(),
        cap_violations: o.report.cap_violations,
        node_failures: o.report.node_failures,
        killed_jobs: o.report.killed_jobs,
    }
}

/// The deterministic (timing-free) artefact for a set of outcomes.
pub fn cells_output(outcomes: &[SweepCellOutcome]) -> CellsOutput {
    let (means, wins) = score_policies(outcomes);
    CellsOutput {
        cells: outcomes.len(),
        entries: outcomes.iter().map(cell_entry).collect(),
        policy_mean_ed2_vs_fcfs_pct: means,
        policy_wins: wins,
    }
}

/// The full artefact, timing included; `model_build_s` as for
/// [`SweepOutput::model_build_s`].
pub fn sweep_output(run: &SweepRun, model_build_s: Option<f64>) -> SweepOutput {
    let (means, wins) = score_policies(&run.outcomes);
    SweepOutput {
        cells: run.outcomes.len(),
        model_build_s,
        jobs: run.jobs,
        wall_clock_s: run.wall_clock_s,
        cells_per_sec: run.cells_per_sec(),
        entries: run.outcomes.iter().map(cell_entry).collect(),
        policy_mean_ed2_vs_fcfs_pct: means,
        policy_wins: wins,
    }
}

/// The streamed per-cell table headers shared by the sweep and daemon
/// bins.
pub fn sweep_table_headers() -> Vec<&'static str> {
    vec!["cell", "nodes", "budget", "policy", "seed", "makespan s", "energy kJ", "ED2 MJ.s2"]
}

/// One streamed table row for an outcome, matching
/// [`sweep_table_headers`].
pub fn sweep_table_row(o: &SweepCellOutcome) -> Vec<String> {
    use actor_core::report::fmt3;
    let (p, r) = (&o.cell.point, &o.report);
    vec![
        o.cell.index.to_string(),
        p.nodes.to_string(),
        p.budget_label.clone(),
        p.policy.clone(),
        p.seed.to_string(),
        fmt3(r.makespan_s),
        fmt3(r.total_energy_j / 1e3),
        fmt3(r.cluster_ed2() / 1e6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_specs_use_the_named_light_shape() {
        for fast in [true, false] {
            let spec = default_spec(fast);
            spec.validate().unwrap();
            // The shape must be resolvable by name on a remote worker.
            assert_eq!(
                cluster_sched::workload_shape_by_name("light").map(|f| f as *const ()),
                Some(spec.workload as *const ()),
                "default_spec must keep the wire-nameable light shape"
            );
        }
        assert_eq!(default_spec(true).len(), 48);
    }
}
