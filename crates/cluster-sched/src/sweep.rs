//! The parallel sweep engine: a cartesian grid of cluster experiments run
//! concurrently on scoped worker threads.
//!
//! The cluster sweeps (`cluster_power_cap`, `coordinated_capping`, the
//! policy-search `cluster_sweep` grid, the `scenario_sweep` hazard grids)
//! are embarrassingly parallel: every
//! (nodes × budget × policy × machines × faults × arrivals × seed) cell is
//! an independent discrete-event simulation against the same immutable
//! [`FleetModel`]. The engine expands a [`SweepSpec`] into ordered
//! [`SweepCell`]s, shares the fleet by `Arc` (built once — thousands of
//! cells never re-train the ANN ensembles), lets `jobs` scoped workers
//! claim cells in index order, and streams results back over a channel to
//! the calling thread in completion order while preserving a deterministic
//! *report* order: [`run_sweep_fleet`] returns outcomes sorted by cell
//! index, so rendered CSV/JSON is bit-identical regardless of worker count
//! or completion order (`actor_core::report::StreamingReporter` is the
//! matching presentation adapter).
//!
//! A panicking cell does not poison the engine: the cell boundary
//! ([`run_cell`]) catches the unwind, the worker carries on with the next
//! cell, and the sweep surfaces the lowest-index panic as
//! [`SweepError::Panicked`].

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use actor_core::telemetry::{with_cell, SharedSink, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::cluster::{simulate_fleet, ClusterReport, ClusterSpec};
use crate::error::ClusterError;
use crate::fleet::{budget_for_mix, mix_by_name, FleetModel, MACHINE_MIX_NAMES};
use crate::job::WorkloadSpec;
use crate::policy::{policy_by_name_fleet, POLICY_NAMES};
use crate::scenario::{
    arrival_process_by_name, fault_scenario_by_name, ARRIVAL_PROCESS_NAMES, FAULT_SCENARIO_NAMES,
};

/// The per-node dynamic power ceiling used to translate budget fractions
/// into watts — the historical constant of every cluster bin.
pub const DEFAULT_MAX_NODE_W: f64 = 160.0;

/// The workload-shaping rule the cluster bins have always used: job count
/// and arrival rate scale with the cluster, and job width is capped at half
/// the cluster so the tight budget tier stays feasible for strict FCFS (a
/// full-width four-core BT would need ~0.83 of the dynamic range to
/// itself).
pub fn default_workload(nodes: usize) -> WorkloadSpec {
    WorkloadSpec {
        num_jobs: 8 * nodes.max(3),
        mean_interarrival_s: 12.0 / nodes as f64,
        node_counts: if nodes >= 8 {
            vec![1, 1, 2, 4]
        } else if nodes >= 4 {
            vec![1, 1, 2]
        } else {
            vec![1]
        },
        ..Default::default()
    }
}

/// A light workload for huge policy-search grids: a handful of jobs per
/// cell so a ~1000-cell grid stays interactive, same width rule as
/// [`default_workload`].
pub fn light_workload(nodes: usize) -> WorkloadSpec {
    WorkloadSpec { num_jobs: (2 * nodes).clamp(4, 16), ..default_workload(nodes) }
}

/// The four-benchmark test workload the cross-crate suites sweep with: six
/// jobs per cell drawing only CG/IS/MG/BT, so it pairs with a model trained
/// on those four benchmarks (`ActorConfig::fast`, `corpus_replicas: 2`)
/// instead of the full NAS suite the bins use.
pub fn quad_test_workload(nodes: usize) -> WorkloadSpec {
    use npb_workloads::BenchmarkId;
    WorkloadSpec {
        num_jobs: 6,
        mean_interarrival_s: 12.0 / nodes as f64,
        benchmarks: vec![BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt],
        node_counts: if nodes >= 4 { vec![1, 1, 2] } else { vec![1] },
        ..Default::default()
    }
}

/// The workload shapes a sweep can name *on the wire*: a
/// [`SweepSpec::workload`] is a function pointer, which cannot cross a
/// process boundary, so the distributed cluster daemon ships one of these
/// names and workers rebuild the `fn` through [`workload_shape_by_name`].
pub const WORKLOAD_SHAPE_NAMES: [&str; 3] = ["default", "light", "quad-test"];

/// Resolves a named workload shape ([`WORKLOAD_SHAPE_NAMES`]) back to its
/// function: `"default"` → [`default_workload`], `"light"` →
/// [`light_workload`], `"quad-test"` → [`quad_test_workload`].
pub fn workload_shape_by_name(name: &str) -> Option<fn(usize) -> WorkloadSpec> {
    match name {
        "default" => Some(default_workload),
        "light" => Some(light_workload),
        "quad-test" => Some(quad_test_workload),
        _ => None,
    }
}

/// One point of the sweep grid (a cell before it is given its index).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Cluster size.
    pub nodes: usize,
    /// Budget tier label (reporting only).
    pub budget_label: String,
    /// Budget as a fraction of the cluster's dynamic power range.
    pub budget_fraction: f64,
    /// Scheduling policy name (see [`POLICY_NAMES`]).
    pub policy: String,
    /// Machine mix name (see [`MACHINE_MIX_NAMES`]); `"uniform"` is the
    /// historical all-reference cluster.
    pub machines: String,
    /// Fault scenario name (see [`FAULT_SCENARIO_NAMES`]); `"none"` is the
    /// historical healthy cluster.
    pub faults: String,
    /// Arrival process name (see [`ARRIVAL_PROCESS_NAMES`]); `"poisson"` is
    /// the historical steady stream.
    pub arrivals: String,
    /// Workload generation seed.
    pub seed: u64,
}

/// One expanded, ordered cell of the sweep. `index` is the cell's position
/// in the deterministic expansion order — the order every report uses, no
/// matter which worker finishes first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// The grid point.
    pub point: SweepPoint,
}

/// The description every cell error, in-process or distributed, starts
/// with: the cell's index and grid coordinates.
impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.point;
        write!(
            f,
            "sweep cell {} ({} nodes, {} budget, {}, machines {}, faults {}, arrivals {}, seed {})",
            self.index, p.nodes, p.budget_label, p.policy, p.machines, p.faults, p.arrivals, p.seed
        )
    }
}

/// A cartesian sweep grid plus explicit extra cells.
///
/// Expansion order is `nodes → budgets → policies → machines → faults →
/// arrivals → seeds` (the historical nested-loop order of the cluster bins,
/// with the scenario axes innermost before seeds), with `extra` points
/// appended afterwards in their given order.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Node-count axis.
    pub nodes: Vec<usize>,
    /// Budget axis: `(label, fraction of the dynamic power range)`.
    pub budgets: Vec<(String, f64)>,
    /// Policy axis (names accepted by [`policy_by_name_fleet`]).
    pub policies: Vec<String>,
    /// Machine-mix axis (names accepted by [`mix_by_name`]).
    pub machine_mixes: Vec<String>,
    /// Fault-scenario axis (names accepted by
    /// [`fault_scenario_by_name`]).
    pub faults: Vec<String>,
    /// Arrival-process axis (names accepted by
    /// [`arrival_process_by_name`]).
    pub arrivals: Vec<String>,
    /// Workload-seed axis.
    pub seeds: Vec<u64>,
    /// Explicit cells appended after the grid (for targeted re-runs and
    /// irregular grids).
    pub extra: Vec<SweepPoint>,
    /// Per-node dynamic power ceiling (W) for fraction → watts conversion.
    pub max_node_w: f64,
    /// Workload shape per node count. A plain `fn` so specs stay `Clone`
    /// and comparable; the default is [`default_workload`].
    pub workload: fn(usize) -> WorkloadSpec,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self {
            nodes: vec![8],
            budgets: vec![("tight".into(), 0.45)],
            policies: vec!["power-aware".into()],
            machine_mixes: vec!["uniform".into()],
            faults: vec!["none".into()],
            arrivals: vec!["poisson".into()],
            seeds: vec![2007],
            extra: Vec::new(),
            max_node_w: DEFAULT_MAX_NODE_W,
            workload: default_workload,
        }
    }
}

impl SweepSpec {
    /// The default grid of the `cluster_power_cap` binary: 2/4/8 nodes ×
    /// tight/medium/ample × the DCT-only policies, seed 2007; `dvfs` adds
    /// the joint and coordinated policies exactly like the bin's `--dvfs`
    /// flag.
    pub fn power_cap_default(dvfs: bool) -> Self {
        let mut policies = vec!["fcfs".to_string(), "backfill".into(), "power-aware".into()];
        if dvfs {
            policies.push("power-aware-dvfs".into());
            policies.push("power-aware-coordinated".into());
        }
        Self {
            nodes: vec![2, 4, 8],
            budgets: vec![("tight".into(), 0.45), ("medium".into(), 0.7), ("ample".into(), 1.0)],
            policies,
            seeds: vec![2007],
            ..Self::default()
        }
    }

    /// The default grid of the `coordinated_capping` binary: 8 nodes ×
    /// tight/snug/medium/ample × the three power-aware policies, seed 2007.
    pub fn coordinated_default() -> Self {
        Self {
            nodes: vec![8],
            budgets: vec![
                ("tight".into(), 0.45),
                ("snug".into(), 0.55),
                ("medium".into(), 0.7),
                ("ample".into(), 1.0),
            ],
            policies: vec![
                "power-aware".into(),
                "power-aware-dvfs".into(),
                "power-aware-coordinated".into(),
            ],
            seeds: vec![2007],
            ..Self::default()
        }
    }

    /// The default grid of the `scenario_sweep` binary: independent vs
    /// coordinated capping across machine mixes, fault scenarios and
    /// hostile arrival streams — the heterogeneous+faulty re-run of the
    /// scoreboard.
    pub fn scenario_default() -> Self {
        Self {
            nodes: vec![8],
            budgets: vec![("tight".into(), 0.45), ("medium".into(), 0.7)],
            policies: vec!["power-aware-dvfs".into(), "power-aware-coordinated".into()],
            machine_mixes: vec!["uniform".into(), "mixed".into(), "legacy".into()],
            faults: vec!["none".into(), "crash".into()],
            arrivals: vec!["poisson".into(), "bursty".into()],
            seeds: vec![2007],
            ..Self::default()
        }
    }

    /// Expands the DVFS on/off axis into the policy axis: with `off` only,
    /// the base names; with `on`, each policy that has a joint DVFS+DCT
    /// variant contributes it ("power-aware" → "power-aware-dvfs";
    /// policies that are already DVFS-aware or have no frequency axis are
    /// contributed once, by the `off` arm, so no cell is duplicated).
    pub fn dvfs_axis(base: &[&str], on: &[bool]) -> Vec<String> {
        let mut out = Vec::new();
        for &dvfs in on {
            for &name in base {
                let effective = match (name, dvfs) {
                    ("power-aware", true) => Some("power-aware-dvfs"),
                    (_, true) => None, // no DVFS variant: covered by the off arm
                    (name, false) => Some(name),
                };
                if let Some(e) = effective {
                    if !out.contains(&e.to_string()) {
                        out.push(e.to_string());
                    }
                }
            }
        }
        out
    }

    /// Validates the axes: every axis non-empty, every policy/mix/fault/
    /// arrival name known, every budget fraction in (0, 1], node counts
    /// positive.
    pub fn validate(&self) -> Result<(), SweepError> {
        let empty = |name: &'static str| SweepError::InvalidGrid {
            reason: format!("axis {name:?} is empty — the grid has no cells"),
        };
        if self.nodes.is_empty() && self.extra.is_empty() {
            return Err(empty("nodes"));
        }
        if !self.nodes.is_empty() {
            if self.budgets.is_empty() {
                return Err(empty("budgets"));
            }
            if self.policies.is_empty() {
                return Err(empty("policies"));
            }
            if self.machine_mixes.is_empty() {
                return Err(empty("machines"));
            }
            if self.faults.is_empty() {
                return Err(empty("faults"));
            }
            if self.arrivals.is_empty() {
                return Err(empty("arrivals"));
            }
            if self.seeds.is_empty() {
                return Err(empty("seeds"));
            }
        }
        let check_point =
            |nodes: usize, fraction: f64, policy: &str, mix: &str, fault: &str, arr: &str| {
                if nodes == 0 {
                    return Err(SweepError::InvalidGrid {
                        reason: "node counts must be positive".into(),
                    });
                }
                if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
                    return Err(SweepError::InvalidGrid {
                        reason: format!("budget fraction {fraction} outside (0, 1]"),
                    });
                }
                if !POLICY_NAMES.contains(&policy) {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown policy {policy:?}; valid policies are: {}",
                            POLICY_NAMES.join(", ")
                        ),
                    });
                }
                if mix_by_name(mix).is_none() {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown machine mix {mix:?}; valid mixes are: {}",
                            MACHINE_MIX_NAMES.join(", ")
                        ),
                    });
                }
                if fault_scenario_by_name(fault).is_none() {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown fault scenario {fault:?}; valid scenarios are: {}",
                            FAULT_SCENARIO_NAMES.join(", ")
                        ),
                    });
                }
                if arrival_process_by_name(arr).is_none() {
                    return Err(SweepError::InvalidGrid {
                        reason: format!(
                            "unknown arrival process {arr:?}; valid processes are: {}",
                            ARRIVAL_PROCESS_NAMES.join(", ")
                        ),
                    });
                }
                Ok(())
            };
        for &nodes in &self.nodes {
            for (_, fraction) in &self.budgets {
                for policy in &self.policies {
                    for mix in &self.machine_mixes {
                        for fault in &self.faults {
                            for arr in &self.arrivals {
                                check_point(nodes, *fraction, policy, mix, fault, arr)?;
                            }
                        }
                    }
                }
            }
        }
        for p in &self.extra {
            check_point(
                p.nodes,
                p.budget_fraction,
                &p.policy,
                &p.machines,
                &p.faults,
                &p.arrivals,
            )?;
        }
        Ok(())
    }

    /// Number of cells the spec expands to.
    pub fn len(&self) -> usize {
        self.nodes.len()
            * self.budgets.len()
            * self.policies.len()
            * self.machine_mixes.len()
            * self.faults.len()
            * self.arrivals.len()
            * self.seeds.len()
            + self.extra.len()
    }

    /// Whether the spec expands to no cells at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into ordered cells (`nodes → budgets → policies →
    /// machines → faults → arrivals → seeds`, then `extra`).
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for &nodes in &self.nodes {
            for (budget_label, budget_fraction) in &self.budgets {
                for policy in &self.policies {
                    for machines in &self.machine_mixes {
                        for faults in &self.faults {
                            for arrivals in &self.arrivals {
                                for &seed in &self.seeds {
                                    cells.push(SweepPoint {
                                        nodes,
                                        budget_label: budget_label.clone(),
                                        budget_fraction: *budget_fraction,
                                        policy: policy.clone(),
                                        machines: machines.clone(),
                                        faults: faults.clone(),
                                        arrivals: arrivals.clone(),
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells.extend(self.extra.iter().cloned());
        cells.into_iter().enumerate().map(|(index, point)| SweepCell { index, point }).collect()
    }

    /// The machine mixes the grid touches (axis plus extras), resolved —
    /// exactly what a [`FleetModel::build`] for this sweep must cover.
    pub fn mixes(&self) -> Result<Vec<crate::fleet::MachineMix>, SweepError> {
        let mut names: Vec<&str> = Vec::new();
        for name in self.machine_mixes.iter().chain(self.extra.iter().map(|p| &p.machines)) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                mix_by_name(name).ok_or_else(|| SweepError::InvalidGrid {
                    reason: format!(
                        "unknown machine mix {name:?}; valid mixes are: {}",
                        MACHINE_MIX_NAMES.join(", ")
                    ),
                })
            })
            .collect()
    }

    /// The distinct machine-mix *names* the grid touches, in
    /// first-appearance order — what a sweep daemon ships on the wire so
    /// workers rebuild a covering fleet.
    pub fn mix_names(&self) -> Result<Vec<String>, SweepError> {
        Ok(self.mixes()?.into_iter().map(|m| m.name).collect())
    }

    /// Parses a `--grid` command-line override: semicolon-separated
    /// `axis=values` clauses over the default axes, e.g.
    ///
    /// ```text
    /// nodes=2,4,8;budgets=tight:0.45,ample:1.0;policies=fcfs,power-aware;seeds=1..9
    /// ```
    ///
    /// * `nodes` — comma-separated counts.
    /// * `budgets` — comma-separated `label:fraction` pairs.
    /// * `policies` — comma-separated policy names.
    /// * `machines` — comma-separated machine-mix names
    ///   ([`MACHINE_MIX_NAMES`]).
    /// * `faults` — comma-separated fault-scenario names
    ///   ([`FAULT_SCENARIO_NAMES`]).
    /// * `arrivals` — comma-separated arrival-process names
    ///   ([`ARRIVAL_PROCESS_NAMES`]).
    /// * `seeds` — comma-separated values; `a..b` spans the half-open range.
    /// * `dvfs` — `on`, `off` or `both`: rewrites the policy axis through
    ///   [`Self::dvfs_axis`] (apply after `policies`).
    ///
    /// Unspecified axes keep the values `self` already has.
    pub fn with_grid(mut self, grid: &str) -> Result<Self, SweepError> {
        let invalid = |reason: String| SweepError::InvalidGrid { reason };
        for clause in grid.split(';').filter(|c| !c.trim().is_empty()) {
            let (axis, values) = clause
                .split_once('=')
                .ok_or_else(|| invalid(format!("clause {clause:?} is not axis=values")))?;
            let values = values.trim();
            match axis.trim() {
                "nodes" => {
                    self.nodes = values
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse::<usize>()
                                .map_err(|_| invalid(format!("bad node count {v:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "budgets" => {
                    self.budgets = values
                        .split(',')
                        .map(|pair| {
                            let (label, fraction) = pair
                                .trim()
                                .split_once(':')
                                .ok_or_else(|| invalid(format!("{pair:?} is not label:frac")))?;
                            let f = fraction
                                .parse::<f64>()
                                .map_err(|_| invalid(format!("bad fraction {fraction:?}")))?;
                            Ok((label.to_string(), f))
                        })
                        .collect::<Result<_, SweepError>>()?;
                }
                "policies" => {
                    self.policies = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "machines" => {
                    self.machine_mixes = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "faults" => {
                    self.faults = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "arrivals" => {
                    self.arrivals = values.split(',').map(|v| v.trim().to_string()).collect();
                }
                "seeds" => {
                    let mut seeds = Vec::new();
                    for v in values.split(',') {
                        let v = v.trim();
                        if let Some((a, b)) = v.split_once("..") {
                            let a =
                                a.parse::<u64>().map_err(|_| invalid(format!("bad seed {a:?}")))?;
                            let b =
                                b.parse::<u64>().map_err(|_| invalid(format!("bad seed {b:?}")))?;
                            if a >= b {
                                return Err(invalid(format!("empty seed range {v:?}")));
                            }
                            seeds.extend(a..b);
                        } else {
                            seeds.push(
                                v.parse::<u64>().map_err(|_| invalid(format!("bad seed {v:?}")))?,
                            );
                        }
                    }
                    self.seeds = seeds;
                }
                "dvfs" => {
                    let on: &[bool] = match values {
                        "on" => &[true],
                        "off" => &[false],
                        "both" => &[false, true],
                        other => {
                            return Err(invalid(format!(
                                "dvfs must be on, off or both, got {other:?}"
                            )))
                        }
                    };
                    let base: Vec<&str> = self.policies.iter().map(String::as_str).collect();
                    self.policies = Self::dvfs_axis(&base, on);
                }
                other => return Err(invalid(format!("unknown axis {other:?}"))),
            }
        }
        self.validate()?;
        Ok(self)
    }
}

/// One completed cell: the grid point plus its simulated cluster report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The simulation result.
    pub report: ClusterReport,
}

/// The result of a whole sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRun {
    /// Every cell's outcome, sorted by cell index (deterministic report
    /// order, independent of worker count).
    pub outcomes: Vec<SweepCellOutcome>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock duration of the execute phase (s).
    pub wall_clock_s: f64,
}

impl SweepRun {
    /// Throughput headline: completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_clock_s > 0.0 {
            self.outcomes.len() as f64 / self.wall_clock_s
        } else {
            f64::INFINITY
        }
    }

    /// The reports alone, in cell order.
    pub fn reports(&self) -> Vec<&ClusterReport> {
        self.outcomes.iter().map(|o| &o.report).collect()
    }
}

/// Sweep failures: an invalid grid, a failing cell, or a panicking cell.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepError {
    /// The grid specification is malformed.
    InvalidGrid {
        /// What was wrong.
        reason: String,
    },
    /// A cell's simulation failed; the lowest-index failure is reported.
    Cell {
        /// The failing cell.
        cell: Box<SweepCell>,
        /// Why it failed.
        source: ClusterError,
    },
    /// A cell panicked; the lowest-index panic is reported, ahead of any
    /// [`SweepError::Cell`] failure.
    Panicked {
        /// The panicking cell.
        cell: Box<SweepCell>,
        /// The panic text ([`panic_message`]).
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidGrid { reason } => write!(f, "invalid sweep grid: {reason}"),
            SweepError::Cell { cell, source } => write!(f, "{cell} failed: {source}"),
            SweepError::Panicked { cell, message } => write!(f, "{cell} panicked: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The per-cell trace record: the cell's grid coordinates plus the two
/// headline results every downstream aggregation starts from. The sweep
/// join and the distributed daemon both emit it, so their traces match.
pub fn sweep_cell_event(outcome: &SweepCellOutcome) -> TraceEvent {
    let point = &outcome.cell.point;
    TraceEvent::SweepCell {
        index: outcome.cell.index,
        nodes: point.nodes,
        budget: point.budget_label.clone(),
        policy: point.policy.clone(),
        seed: point.seed,
        makespan_s: outcome.report.makespan_s,
        total_energy_j: outcome.report.total_energy_j,
    }
}

/// Renders a caught panic payload (panics usually carry a `&str` or
/// `String` message) — the text both the sweep and the distributed worker
/// report for a panicking cell.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one cell against the shared fleet — exactly what each in-process
/// sweep worker does, exported so remote workers (the distributed
/// `cluster_worker`) execute cells through the *same* code path and stay
/// byte-identical with [`run_sweep_fleet`].
///
/// The cell's machine-mix, fault-scenario and arrival-process names are
/// resolved here, and the budget is priced with
/// [`budget_for_mix`] against the cell's own
/// mix — each node's idle floor is its own generation's, never a hardcoded
/// reference machine. A mix naming a generation the fleet was not built
/// with fails loudly inside [`simulate_fleet`].
///
/// `workload` is the spec's shape function (a remote worker rebuilds it via
/// [`workload_shape_by_name`]) and `max_node_w` the spec's per-node dynamic
/// ceiling.
pub fn execute_cell(
    fleet: &FleetModel,
    workload: fn(usize) -> WorkloadSpec,
    max_node_w: f64,
    cell: &SweepCell,
    telemetry: Option<&SharedSink>,
) -> Result<ClusterReport, ClusterError> {
    let point = &cell.point;
    let invalid = |reason: String| ClusterError::InvalidSpec { reason };
    let machines = mix_by_name(&point.machines).ok_or_else(|| {
        invalid(format!(
            "unknown machine mix {:?}; valid mixes are: {}",
            point.machines,
            MACHINE_MIX_NAMES.join(", ")
        ))
    })?;
    let faults = fault_scenario_by_name(&point.faults).ok_or_else(|| {
        invalid(format!(
            "unknown fault scenario {:?}; valid scenarios are: {}",
            point.faults,
            FAULT_SCENARIO_NAMES.join(", ")
        ))
    })?;
    let arrivals = arrival_process_by_name(&point.arrivals).ok_or_else(|| {
        invalid(format!(
            "unknown arrival process {:?}; valid processes are: {}",
            point.arrivals,
            ARRIVAL_PROCESS_NAMES.join(", ")
        ))
    })?;
    let mut workload = workload(point.nodes);
    workload.arrivals = arrivals;
    let cluster_spec = ClusterSpec {
        nodes: point.nodes,
        power_budget_w: budget_for_mix(point.nodes, &machines, max_node_w, point.budget_fraction),
        machines,
        faults,
        workload,
        seed: point.seed,
    };
    let mut policy = policy_by_name_fleet(&point.policy, fleet)?;
    simulate_fleet(&cluster_spec, fleet, policy.as_mut(), telemetry.cloned())
}

/// Runs one cell through [`execute_cell`] behind the cell boundary that
/// [`run_sweep_fleet`]'s workers and the distributed `cluster_worker`
/// share: the cell's index is the executing thread's current cell
/// ([`actor_core::telemetry::with_cell`]), so a `SpanSink` stamps every
/// event the cell emits with it, and a panic comes back as `Err` with its
/// text ([`panic_message`]).
pub fn run_cell(
    fleet: &FleetModel,
    workload: fn(usize) -> WorkloadSpec,
    max_node_w: f64,
    cell: &SweepCell,
    telemetry: Option<&SharedSink>,
) -> Result<Result<ClusterReport, ClusterError>, String> {
    with_cell(cell.index as u64, || {
        catch_unwind(AssertUnwindSafe(|| {
            execute_cell(fleet, workload, max_node_w, cell, telemetry)
        }))
        .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// Executes every cell of `spec` against the shared `fleet` on `jobs`
/// scoped worker threads (at least one).
///
/// Workers claim cells in index order from one shared cursor and send each
/// result to the calling thread, which owns all output: `on_cell(outcome,
/// done, total)` streams successes in *completion* order as they arrive —
/// progress narration, incremental CSV rows — where `done` counts every
/// finished cell, failed or panicked ones included. With a telemetry sink,
/// every worker traces its cells' cluster events and controller decisions
/// through it, each under its cell's index ([`run_cell`]), and the calling
/// thread emits one [`TraceEvent::SweepCell`] per completed cell, in
/// completion order. The returned [`SweepRun`] is
/// always sorted by cell index, so anything rendered from it is
/// bit-identical across worker counts; pair with
/// `actor_core::report::StreamingReporter` for the presentation side.
///
/// Every cell runs even when some fail: a panicking cell is caught at the
/// cell boundary ([`run_cell`]) and reported as [`SweepError::Panicked`]
/// (lowest index first), which takes precedence over the lowest-index
/// [`SweepError::Cell`] failure.
///
/// The fleet is `Arc`-shared immutably: one ANN training pass per
/// generation serves every cell, each model's cap tables are built once by
/// whichever cell first needs them, and each cell constructs its own policy
/// (policies are stateful) from the shared decision tables. The fleet must
/// cover every machine mix the grid names ([`SweepSpec::mixes`] lists
/// them); a missing generation is a loud per-cell error, never a silent
/// fallback to the reference machine.
pub fn run_sweep_fleet(
    spec: &SweepSpec,
    fleet: &Arc<FleetModel>,
    jobs: usize,
    telemetry: Option<SharedSink>,
    mut on_cell: impl FnMut(&SweepCellOutcome, usize, usize),
) -> Result<SweepRun, SweepError> {
    spec.validate()?;
    let cells = spec.expand();
    let total = cells.len();
    let jobs = jobs.max(1);
    let started = Instant::now();

    let mut outcomes: Vec<SweepCellOutcome> = Vec::with_capacity(total);
    let mut failures: Vec<(usize, ClusterError)> = Vec::new();
    let mut panics: Vec<(usize, String)> = Vec::new();
    // The cursor only hands out distinct indices (`Relaxed` suffices):
    // `cells` is complete before any worker spawns, and results return
    // over the channel.
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        // The receiver lives in this closure, so a panicking `on_cell`
        // drops it on the way out and the workers stop at their next send.
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..jobs {
            let (tx, cells, next, telemetry) = (tx.clone(), &cells, &next, telemetry.as_ref());
            scope.spawn(move || {
                while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let result = run_cell(fleet, spec.workload, spec.max_node_w, cell, telemetry);
                    // A send failure means the join loop is gone; stop.
                    if tx.send((cell.index, result)).is_err() {
                        break;
                    }
                }
            });
        }
        // The join loop holds no sender: once every worker has run out of
        // cells, the channel disconnects and the loop ends.
        drop(tx);
        let mut done = 0usize;
        while let Ok((index, result)) = rx.recv() {
            done += 1;
            match result {
                Ok(Ok(report)) => {
                    let outcome = SweepCellOutcome { cell: cells[index].clone(), report };
                    if let Some(sink) = &telemetry {
                        sink.record(&sweep_cell_event(&outcome));
                    }
                    on_cell(&outcome, done, total);
                    outcomes.push(outcome);
                }
                Ok(Err(source)) => failures.push((index, source)),
                Err(message) => panics.push((index, message)),
            }
        }
    });

    let cell = |index: usize| Box::new(cells[index].clone());
    if let Some((index, message)) = panics.into_iter().min_by_key(|(index, _)| *index) {
        return Err(SweepError::Panicked { cell: cell(index), message });
    }
    if let Some((index, source)) = failures.into_iter().min_by_key(|(index, _)| *index) {
        return Err(SweepError::Cell { cell: cell(index), source });
    }
    outcomes.sort_by_key(|o| o.cell.index);
    Ok(SweepRun { outcomes, jobs, wall_clock_s: started.elapsed().as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(nodes: usize, policy: &str, seed: u64) -> SweepPoint {
        SweepPoint {
            nodes,
            budget_label: "odd".into(),
            budget_fraction: 0.6,
            policy: policy.into(),
            machines: "uniform".into(),
            faults: "none".into(),
            arrivals: "poisson".into(),
            seed,
        }
    }

    #[test]
    fn expansion_order_is_the_historical_nested_loop() {
        let spec = SweepSpec {
            nodes: vec![2, 4],
            budgets: vec![("tight".into(), 0.45), ("ample".into(), 1.0)],
            policies: vec!["fcfs".into(), "power-aware".into()],
            seeds: vec![1, 2],
            extra: vec![point(8, "backfill", 99)],
            ..SweepSpec::default()
        };
        assert_eq!(spec.len(), 17);
        assert!(!spec.is_empty());
        let cells = spec.expand();
        assert_eq!(cells.len(), 17);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // nodes is the outermost axis, seeds the innermost.
        assert_eq!((cells[0].point.nodes, cells[0].point.seed), (2, 1));
        assert_eq!((cells[1].point.nodes, cells[1].point.seed), (2, 2));
        assert_eq!(cells[2].point.policy, "power-aware");
        assert_eq!(cells[4].point.budget_label, "ample");
        assert_eq!(cells[8].point.nodes, 4);
        assert_eq!(cells[16].point.budget_label, "odd");
    }

    #[test]
    fn scenario_axes_expand_between_policies_and_seeds() {
        let spec = SweepSpec {
            machine_mixes: vec!["uniform".into(), "mixed".into()],
            faults: vec!["none".into(), "crash".into()],
            arrivals: vec!["poisson".into(), "bursty".into()],
            seeds: vec![1, 2],
            ..SweepSpec::default()
        };
        assert_eq!(spec.len(), 16);
        let cells = spec.expand();
        // machines is outermost of the scenario axes, seeds innermost.
        assert_eq!(cells[0].point.machines, "uniform");
        assert_eq!((cells[0].point.faults.as_str(), cells[0].point.seed), ("none", 1));
        assert_eq!((cells[1].point.faults.as_str(), cells[1].point.seed), ("none", 2));
        assert_eq!(cells[2].point.arrivals, "bursty");
        assert_eq!(cells[4].point.faults, "crash");
        assert_eq!(cells[8].point.machines, "mixed");
        let mixes = spec.mixes().unwrap();
        assert_eq!(mixes.len(), 2);
        assert_eq!(mixes[0].name, "uniform");
        assert_eq!(mixes[1].name, "mixed");
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let ok = SweepSpec::power_cap_default(true);
        assert!(ok.validate().is_ok());
        assert_eq!(ok.policies.len(), 5);
        assert!(SweepSpec::scenario_default().validate().is_ok());

        let empty = SweepSpec { nodes: vec![], ..ok.clone() };
        assert!(matches!(empty.validate(), Err(SweepError::InvalidGrid { .. })));
        let bad_policy = SweepSpec { policies: vec!["lottery".into()], ..ok.clone() };
        let err = bad_policy.validate().unwrap_err();
        assert!(err.to_string().contains("power-aware-coordinated"), "{err}");
        let bad_fraction = SweepSpec { budgets: vec![("x".into(), 1.5)], ..ok.clone() };
        assert!(bad_fraction.validate().is_err());
        let bad_mix = SweepSpec { machine_mixes: vec!["beowulf".into()], ..ok.clone() };
        let err = bad_mix.validate().unwrap_err();
        assert!(err.to_string().contains("uniform"), "error lists valid mixes: {err}");
        let bad_fault = SweepSpec { faults: vec!["meteor".into()], ..ok.clone() };
        assert!(bad_fault.validate().is_err());
        let bad_arrivals = SweepSpec { arrivals: vec!["pigeon".into()], ..ok.clone() };
        assert!(bad_arrivals.validate().is_err());
        let zero_nodes = SweepSpec { nodes: vec![0], ..ok };
        assert!(zero_nodes.validate().is_err());
    }

    #[test]
    fn grid_parsing_overrides_axes() {
        let spec = SweepSpec::power_cap_default(false)
            .with_grid("nodes=2,8;budgets=t:0.5,a:1.0;policies=fcfs,power-aware;seeds=1..4,9")
            .unwrap();
        assert_eq!(spec.nodes, vec![2, 8]);
        assert_eq!(spec.budgets, vec![("t".into(), 0.5), ("a".into(), 1.0)]);
        assert_eq!(spec.policies, vec!["fcfs".to_string(), "power-aware".into()]);
        assert_eq!(spec.seeds, vec![1, 2, 3, 9]);

        // The scenario axes parse the same way.
        let hazard = SweepSpec::power_cap_default(false)
            .with_grid("machines=uniform,mixed;faults=crash,storm;arrivals=bursty")
            .unwrap();
        assert_eq!(hazard.machine_mixes, vec!["uniform".to_string(), "mixed".into()]);
        assert_eq!(hazard.faults, vec!["crash".to_string(), "storm".into()]);
        assert_eq!(hazard.arrivals, vec!["bursty".to_string()]);

        // dvfs rewrites the policy axis through dvfs_axis.
        let both = SweepSpec::power_cap_default(false)
            .with_grid("policies=fcfs,power-aware;dvfs=both")
            .unwrap();
        assert_eq!(
            both.policies,
            vec!["fcfs".to_string(), "power-aware".into(), "power-aware-dvfs".into()]
        );

        for bad in [
            "nodes=two",
            "budgets=0.5",
            "seeds=5..5",
            "dvfs=sideways",
            "warp=9",
            "policies=lottery",
            "machines=beowulf",
            "faults=meteor",
            "arrivals=pigeon",
            "noequals",
        ] {
            assert!(
                SweepSpec::power_cap_default(false).with_grid(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn dvfs_axis_expands_without_duplicates() {
        let base = ["fcfs", "power-aware"];
        assert_eq!(SweepSpec::dvfs_axis(&base, &[false]), vec!["fcfs", "power-aware"]);
        assert_eq!(SweepSpec::dvfs_axis(&base, &[true]), vec!["power-aware-dvfs"]);
        assert_eq!(
            SweepSpec::dvfs_axis(&base, &[false, true]),
            vec!["fcfs", "power-aware", "power-aware-dvfs"]
        );
    }

    #[test]
    fn workload_shapes_match_the_historical_rule() {
        for nodes in [1, 2, 4, 8, 16] {
            let w = default_workload(nodes);
            assert_eq!(w.num_jobs, 8 * nodes.max(3));
            assert!((w.mean_interarrival_s - 12.0 / nodes as f64).abs() < 1e-12);
            let widest = *w.node_counts.iter().max().unwrap();
            assert!(widest <= nodes.max(1), "width must fit the cluster");
            let light = light_workload(nodes);
            assert!(light.num_jobs <= 16 && light.num_jobs >= 4);
            assert_eq!(light.node_counts, w.node_counts);
            let quad = quad_test_workload(nodes);
            assert_eq!(quad.num_jobs, 6);
            assert_eq!(quad.benchmarks.len(), 4);
            assert!(*quad.node_counts.iter().max().unwrap() <= nodes.max(1));
        }
    }

    #[test]
    fn every_named_shape_resolves_and_unknown_names_do_not() {
        for name in WORKLOAD_SHAPE_NAMES {
            let shape = workload_shape_by_name(name)
                .unwrap_or_else(|| panic!("shape {name:?} must resolve"));
            assert!(shape(4).num_jobs > 0);
        }
        assert_eq!(
            workload_shape_by_name("default").map(|f| f as *const ()),
            Some(default_workload as fn(usize) -> WorkloadSpec as *const ())
        );
        assert!(workload_shape_by_name("bespoke").is_none());
    }
}
