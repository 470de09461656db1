//! The five workloads: what each sets up, what one measured pass runs, and
//! how its outputs are checked. Every workload is a closed loop — the next
//! pass starts when the previous one returns — on at most [`JOBS`] threads
//! or worker processes.

use std::sync::Arc;
use std::time::Instant;

use actor_bench::sweep_out::{cells_output, default_spec};
use actor_core::control_plane::ControlPlane;
use actor_core::controller::{CandidatePerf, DvfsSpace, JointPerf};
use actor_core::{ActorConfig, DecisionTableController};
use cluster_daemon::{run_distributed, ProcessSweepOptions};
use cluster_rpc::SweepContext;
use cluster_sched::sweep::DEFAULT_MAX_NODE_W;
use cluster_sched::{
    budget_for_mix, default_workload, light_workload, policy_by_name_fleet, run_sweep_fleet,
    simulate_fleet, ClusterReport, ClusterSpec, FaultSpec, FleetModel, MachineMix,
    SweepCellOutcome, SweepSpec, WorkloadSpec, POLICY_NAMES,
};
use npb_workloads::BenchmarkId;
use phase_rt::{MachineShape, PhaseId};

use crate::stats::{fnv1a, median, Fnv};

/// Worker threads (or worker processes) every workload runs on: the core
/// count of the 2-vCPU box the benchmark was calibrated on, fixed so runs
/// on any host do the same work in the same shape.
pub const JOBS: usize = 2;
/// Model builds per run, one per model seed; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Decide calls per timed block in `online_decide`.
pub const BLOCK: usize = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-configuration training, then the 1 040-cell policy grid.
    PaperSweep,
    /// Fast model, then 360 large-cluster cells across all five policies.
    PolicyGrid,
    /// Three-generation fleet, then 648 heterogeneous faulty cells.
    ScenarioMix,
    /// Fast model, then millions of control-plane decisions plus 256-node
    /// simulations.
    OnlineDecide,
    /// A daemon dispatching a 600-cell grid to two worker processes.
    DistSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::PaperSweep,
        Workload::PolicyGrid,
        Workload::ScenarioMix,
        Workload::OnlineDecide,
        Workload::DistSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::PolicyGrid => "policy_grid",
            Workload::ScenarioMix => "scenario_mix",
            Workload::OnlineDecide => "online_decide",
            Workload::DistSweep => "dist_sweep",
        }
    }

    /// Resolves a command-line name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// `ActorConfig::seed` and the first workload seed of the grid.
    pub seed: u64,
    /// Length of the measured window (s).
    pub seconds: f64,
    /// Tiny inputs for the test suite.
    pub smoke: bool,
}

impl Params {
    /// The model configuration: the paper's (10 folds, 250 epochs) for
    /// `paper_sweep`, the fast one otherwise, seeded with `--seed`.
    pub fn config(&self) -> ActorConfig {
        let base = if self.workload == Workload::PaperSweep && !self.smoke {
            ActorConfig::default()
        } else {
            ActorConfig::fast()
        };
        ActorConfig { seed: self.seed, ..base }
    }

    fn seeds(&self, n: u64) -> Vec<u64> {
        (0..n).map(|i| self.seed.wrapping_add(i)).collect()
    }

    /// The sweep grid of a sweep workload (`None` for `online_decide`).
    pub fn spec(&self) -> Option<SweepSpec> {
        let smoke = self.smoke;
        let budgets = |labels: &[(&str, f64)]| -> Vec<(String, f64)> {
            labels.iter().map(|(l, f)| (l.to_string(), *f)).collect()
        };
        let all_policies: Vec<String> = POLICY_NAMES.iter().map(|p| p.to_string()).collect();
        let spec = match self.workload {
            Workload::PaperSweep => {
                let mut spec = default_spec(smoke);
                spec.seeds = self.seeds(spec.seeds.len() as u64);
                spec
            }
            Workload::PolicyGrid => SweepSpec {
                nodes: if smoke { vec![16] } else { vec![16, 32, 64] },
                budgets: if smoke {
                    budgets(&[("tight", 0.45)])
                } else {
                    budgets(&[("tight", 0.45), ("medium", 0.7), ("ample", 1.0)])
                },
                policies: all_policies,
                seeds: self.seeds(if smoke { 1 } else { 8 }),
                workload: default_workload,
                ..SweepSpec::default()
            },
            Workload::ScenarioMix => {
                let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
                SweepSpec {
                    nodes: vec![8],
                    budgets: budgets(if smoke {
                        &[("tight", 0.45)]
                    } else {
                        &[("tight", 0.45), ("medium", 0.7)]
                    }),
                    policies: names(&[
                        "power-aware",
                        "power-aware-dvfs",
                        "power-aware-coordinated",
                    ]),
                    machine_mixes: names(if smoke {
                        &["mixed"]
                    } else {
                        &["mixed", "legacy", "modern"]
                    }),
                    faults: names(if smoke {
                        &["crash"]
                    } else {
                        &["none", "crash", "stragglers"]
                    }),
                    arrivals: names(if smoke {
                        &["bursty"]
                    } else {
                        &["poisson", "diurnal", "bursty", "tenants"]
                    }),
                    seeds: self.seeds(if smoke { 1 } else { 3 }),
                    workload: default_workload,
                    ..SweepSpec::default()
                }
            }
            Workload::OnlineDecide => return None,
            Workload::DistSweep => SweepSpec {
                nodes: if smoke { vec![2, 4] } else { vec![2, 4, 6, 8] },
                budgets: if smoke {
                    budgets(&[("tight", 0.45)])
                } else {
                    budgets(&[("tight", 0.45), ("snug", 0.55), ("ample", 1.0)])
                },
                policies: if smoke {
                    vec!["fcfs".into(), "power-aware".into()]
                } else {
                    all_policies
                },
                seeds: self.seeds(if smoke { 3 } else { 10 }),
                workload: light_workload,
                ..SweepSpec::default()
            },
        };
        Some(spec)
    }

    /// The machine mixes the workload's fleet must cover.
    pub fn mixes(&self) -> Result<Vec<MachineMix>, String> {
        match self.spec() {
            Some(spec) => spec.mixes().map_err(|e| e.to_string()),
            None => Ok(vec![MachineMix::uniform()]),
        }
    }

    /// The set-up every in-process workload pays once per invocation: the
    /// trained fleet (one generation unless the grid mixes machines).
    pub fn build_fleet(&self) -> Result<Arc<FleetModel>, String> {
        FleetModel::build(&self.config(), &BenchmarkId::ALL, &self.mixes()?)
            .map(Arc::new)
            .map_err(|e| format!("fleet model build failed: {e}"))
    }
}

/// One reported metric: (name, value, unit).
pub type Metric = (String, f64, &'static str);

/// One measured pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall clock of the whole pass (s).
    pub wall_s: f64,
    /// Units of work done (cells, or decide calls).
    pub ops: u64,
    /// Time the units of work took (s) — the sweep alone, or the decide
    /// loop alone.
    pub op_time_s: f64,
    /// `dist_sweep` only: time from the start of the pass to the first
    /// completed cell (s) — the distributed set-up.
    pub first_op_s: Option<f64>,
    /// Operations that failed or were retried.
    pub failed: u64,
    /// Digest of the pass's outputs.
    pub digest: u64,
}

/// The result of a sweep pass: the outcomes plus their rendered artefact.
pub struct SweepOutput {
    /// Outcomes in cell order.
    pub outcomes: Vec<SweepCellOutcome>,
    /// The timing-free cells artefact every execution mode must agree on.
    pub json: String,
    /// Wall clock of the sweep itself (s), rendering excluded.
    pub sweep_s: f64,
}

/// Renders the deterministic cells artefact (`*_cells.json`).
pub fn render(outcomes: &[SweepCellOutcome]) -> String {
    serde_json::to_string_pretty(&cells_output(outcomes)).expect("cells artefact serializes")
}

/// Cells whose simulation breached the power budget — a correct policy
/// never produces any.
fn cap_breaches(outcomes: &[SweepCellOutcome]) -> u64 {
    outcomes.iter().filter(|o| o.report.cap_violations > 0).count() as u64
}

/// Runs the sweep on [`JOBS`] threads and renders its artefact.
pub fn sweep_pass(
    fleet: &Arc<FleetModel>,
    spec: &SweepSpec,
) -> Result<(Pass, SweepOutput), String> {
    let started = Instant::now();
    let run = run_sweep_fleet(spec, fleet, JOBS, None, |_, _, _| {})
        .map_err(|e| format!("sweep failed: {e}"))?;
    let sweep_s = started.elapsed().as_secs_f64();
    let json = render(&run.outcomes);
    let pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        ops: spec.len() as u64,
        op_time_s: sweep_s,
        first_op_s: None,
        failed: cap_breaches(&run.outcomes),
        digest: fnv1a(json.as_bytes()),
    };
    Ok((pass, SweepOutput { outcomes: run.outcomes, json, sweep_s }))
}

/// One pre-built decide case: a phase's menus and the three power caps a
/// node share traverses as cluster headroom moves.
struct Case {
    pid: PhaseId,
    candidates: Vec<CandidatePerf>,
    joint: Vec<JointPerf>,
    caps: [f64; 3],
}

/// `online_decide`'s state: the fleet, every phase of the reference
/// generation as a decide case, and one control plane that has observed
/// every phase.
pub struct Online {
    fleet: Arc<FleetModel>,
    cases: Vec<Case>,
    plane: ControlPlane<DecisionTableController>,
    calls: u64,
    sims: Vec<ClusterSpec>,
}

impl Online {
    /// Builds the cases and the plane over `fleet`.
    pub fn new(fleet: Arc<FleetModel>, p: &Params) -> Self {
        let model = fleet.reference();
        let mut plane = ControlPlane::new(fleet.decision_table(), MachineShape::quad_core());
        let mut cases = Vec::new();
        for id in model.benchmark_ids() {
            for (idx, phase) in model.knowledge(id).phases.iter().enumerate() {
                let candidates = phase.candidate_menu().to_vec();
                let powers = candidates.iter().filter_map(|c| c.avg_power_w);
                let lo = powers.clone().fold(f64::INFINITY, f64::min);
                let hi = powers.fold(0.0f64, f64::max);
                let pid = model.phase_id(id, idx);
                plane.observe(pid, &phase.sample());
                cases.push(Case {
                    pid,
                    candidates,
                    joint: phase.joint_candidates().to_vec(),
                    caps: [lo * 1.05, (lo + hi) / 2.0, hi + 10.0],
                });
            }
        }
        let (nodes, sims) = if p.smoke { (32, 1) } else { (256, 3) };
        let sims = (0..sims).map(|i| sim_spec(nodes, p.seed.wrapping_add(i))).collect();
        let calls = if p.smoke { 1 << 14 } else { 1 << 20 };
        Self { fleet, cases, plane, calls, sims }
    }

    /// Decide calls per pass.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Decides every (phase, cap) once and digests the decisions; counts
    /// rejected decisions.
    pub fn decision_cycle(&mut self) -> (u64, u64) {
        let ladder = self.fleet.reference().freq_ladder();
        let (mut digest, mut rejected) = (Fnv::default(), 0u64);
        for case in &self.cases {
            for &cap in &case.caps {
                let space = Some(DvfsSpace { ladder, joint: &case.joint });
                match self.plane.decide(case.pid, &case.candidates, space, Some(cap)) {
                    Ok(d) => digest.write(format!("{:?}/{};", d.config, d.step.index()).as_bytes()),
                    Err(_) => rejected += 1,
                }
            }
        }
        (digest.finish(), rejected)
    }

    /// Runs `self.calls()` decides round-robin over every (phase, cap) in
    /// blocks of [`BLOCK`]; `on_block` sees each block's start instant.
    /// Returns the number of rejected decisions.
    pub fn decide_loop(&mut self, mut on_block: impl FnMut(Instant)) -> u64 {
        let ladder = self.fleet.reference().freq_ladder();
        let flat: Vec<(usize, f64)> = self
            .cases
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.caps.iter().map(move |&cap| (i, cap)))
            .collect();
        let mut rejected = 0u64;
        let mut next = 0usize;
        for _ in 0..self.calls / BLOCK as u64 {
            let started = Instant::now();
            for _ in 0..BLOCK {
                let (i, cap) = flat[next];
                let case = &self.cases[i];
                let space = Some(DvfsSpace { ladder, joint: &case.joint });
                let decision = self.plane.decide(case.pid, &case.candidates, space, Some(cap));
                rejected += u64::from(std::hint::black_box(decision).is_err());
                next = if next + 1 == flat.len() { 0 } else { next + 1 };
            }
            on_block(started);
        }
        rejected
    }

    /// The power-aware cluster simulations of one pass, each run by `sim`
    /// (which may wrap the policy); returns the reports.
    pub fn simulations(
        &self,
        mut sim: impl FnMut(&ClusterSpec, &FleetModel) -> Result<ClusterReport, String>,
    ) -> Result<Vec<ClusterReport>, String> {
        self.sims.iter().map(|spec| sim(spec, &self.fleet)).collect()
    }

    /// One measured pass: a digested decision cycle, the timed decide loop,
    /// then the simulations.
    pub fn pass(&mut self) -> Result<Pass, String> {
        let started = Instant::now();
        let (cycle_digest, mut failed) = self.decision_cycle();
        let loop_start = Instant::now();
        failed += self.decide_loop(|_| {});
        let op_time_s = loop_start.elapsed().as_secs_f64();
        let reports = self.simulations(|spec, fleet| {
            let mut policy =
                policy_by_name_fleet("power-aware", fleet).map_err(|e| e.to_string())?;
            simulate_fleet(spec, fleet, policy.as_mut(), None).map_err(|e| e.to_string())
        })?;
        let wall_s = started.elapsed().as_secs_f64();
        failed += reports.iter().filter(|r| r.cap_violations > 0).count() as u64;
        Ok(Pass {
            wall_s,
            ops: self.calls,
            op_time_s,
            first_op_s: None,
            failed,
            digest: online_digest(cycle_digest, &reports),
        })
    }
}

/// The digest of an `online_decide` pass: its decision table plus the
/// simulated cluster reports.
pub fn online_digest(cycle_digest: u64, reports: &[ClusterReport]) -> u64 {
    let mut h = Fnv::default();
    h.write(&cycle_digest.to_le_bytes());
    for r in reports {
        h.write(serde_json::to_string(r).expect("reports serialize").as_bytes());
    }
    h.finish()
}

/// The 256-node power-aware cluster of `online_decide`: four jobs per
/// node, budget at 0.7 of the dynamic range.
fn sim_spec(nodes: usize, seed: u64) -> ClusterSpec {
    let machines = MachineMix::uniform();
    ClusterSpec {
        nodes,
        power_budget_w: budget_for_mix(nodes, &machines, DEFAULT_MAX_NODE_W, 0.7),
        machines,
        faults: FaultSpec::default(),
        workload: WorkloadSpec {
            num_jobs: 4 * nodes,
            mean_interarrival_s: 12.0 / nodes as f64,
            node_counts: vec![1, 1, 2, 4],
            ..Default::default()
        },
        seed,
    }
}

/// The sweep context `dist_sweep` ships to its workers.
pub fn dist_context(p: &Params) -> Result<SweepContext, String> {
    let spec = p.spec().expect("dist_sweep is a sweep");
    Ok(SweepContext {
        config: p.config(),
        benchmarks: BenchmarkId::ALL.to_vec(),
        workload: "light".into(),
        machines: spec.mix_names().map_err(|e| e.to_string())?,
        max_node_w: spec.max_node_w,
        heartbeat_ms: 250,
        run_id: u64::from(std::process::id()),
    })
}

/// One `dist_sweep` pass: `run_distributed` spawns [`JOBS`] worker
/// processes (this binary in worker mode), each trains its own model, and
/// the daemon dispatches every cell.
pub fn dist_pass(p: &Params, spec: &SweepSpec) -> Result<(Pass, SweepOutput), String> {
    let worker = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let opts = ProcessSweepOptions::new(JOBS, worker, dist_context(p)?);
    let started = Instant::now();
    let mut first: Option<f64> = None;
    let dist = run_distributed(spec, &opts, None, |_, _, _| {
        first.get_or_insert_with(|| started.elapsed().as_secs_f64());
    })
    .map_err(|e| format!("distributed sweep failed: {e}"))?;
    let sweep_s = started.elapsed().as_secs_f64();
    let json = render(&dist.run.outcomes);
    let first = first.unwrap_or(sweep_s);
    let pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        ops: spec.len() as u64,
        op_time_s: sweep_s - first,
        first_op_s: Some(first),
        failed: dist.reassignments as u64 + cap_breaches(&dist.run.outcomes),
        digest: fnv1a(json.as_bytes()),
    };
    Ok((pass, SweepOutput { outcomes: dist.run.outcomes, json, sweep_s }))
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's wall clock (s).
    pub setups_s: Vec<f64>,
    /// Each measured pass.
    pub passes: Vec<Pass>,
    /// Peak resident set of this process (MB) at the end of the window.
    pub peak_rss_mb: f64,
    /// Failed checks, each described.
    pub problems: Vec<String>,
}

impl Measured {
    /// The end-to-end metrics: (name, value, unit).
    pub fn metrics(&self) -> Vec<Metric> {
        let walls: Vec<f64> = self.passes.iter().map(|p| p.wall_s).collect();
        let rates: Vec<f64> = self.passes.iter().map(|p| p.ops as f64 / p.op_time_s).collect();
        let setup_s = median(&self.setups_s);
        // A pass that timed its own first operation contains its set-up.
        let setup_in_pass = self.passes.iter().any(|p| p.first_op_s.is_some());
        let e2e_s = if setup_in_pass { median(&walls) } else { setup_s + median(&walls) };
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("e2e_s".into(), e2e_s, "s"),
            ("ops_per_s".into(), median(&rates), "1/s"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MB"),
        ]
    }

    /// Operations attempted over every pass.
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.ops).sum()
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|p| p.failed).sum::<u64>() + self.problems.len() as u64
    }

    /// The digest of the first pass.
    pub fn digest(&self) -> u64 {
        self.passes.first().map_or(0, |p| p.digest)
    }

    fn check_pass(&mut self, pass: Pass) {
        if let Some(first) = self.passes.first() {
            if pass.digest != first.digest {
                self.problems.push(format!(
                    "pass {} produced digest {:#018x}, pass 0 {:#018x}: outputs are not \
                     deterministic",
                    self.passes.len(),
                    pass.digest,
                    first.digest
                ));
            }
        }
        self.passes.push(pass);
    }
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untraced run: set up [`SETUPS`] times, then run passes for
/// `p.seconds` (at least [`MIN_PASSES`]), checking every output.
pub fn measure(p: &Params) -> Result<Measured, String> {
    let mut m = Measured::default();
    let (setups, min_passes) = if p.smoke { (1, 2) } else { (SETUPS, MIN_PASSES) };
    let window = |m: &Measured, started: Instant| {
        m.passes.len() >= min_passes && started.elapsed().as_secs_f64() >= p.seconds
    };

    if p.workload == Workload::DistSweep {
        let spec = p.spec().expect("dist_sweep is a sweep");
        let started = Instant::now();
        let mut last = None;
        while !window(&m, started) {
            let (pass, out) = dist_pass(p, &spec)?;
            m.setups_s.push(pass.first_op_s.expect("dist passes time their first cell"));
            m.check_pass(pass);
            last = Some(out);
        }
        m.peak_rss_mb = peak_rss_mb()?;
        // The daemon's artefact must be byte-identical to the in-process
        // sweep of the same grid.
        let fleet = p.build_fleet()?;
        let (_, local) = sweep_pass(&fleet, &spec)?;
        if last.map(|o| o.json) != Some(local.json) {
            m.problems.push("distributed cells differ from the in-process sweep".into());
        }
        return Ok(m);
    }

    // Each set-up trains with its own model seed (S, S+1, ...): training
    // stops early at a seed-dependent epoch, so the median over seeds is a
    // steadier set-up cost than repeats of one seed. Passes use seed S.
    let mut fleet = None;
    for i in 0..setups {
        let seeded = Params { seed: p.seed.wrapping_add(i as u64), ..p.clone() };
        let started = Instant::now();
        let built = seeded.build_fleet()?;
        m.setups_s.push(started.elapsed().as_secs_f64());
        fleet.get_or_insert(built);
    }
    let fleet = fleet.expect("at least one set-up");

    let started = Instant::now();
    if p.workload == Workload::OnlineDecide {
        let mut online = Online::new(fleet, p);
        while !window(&m, started) {
            let pass = online.pass()?;
            m.check_pass(pass);
        }
    } else {
        let spec = p.spec().expect("a sweep workload");
        while !window(&m, started) {
            let (pass, _) = sweep_pass(&fleet, &spec)?;
            m.check_pass(pass);
        }
    }
    m.peak_rss_mb = peak_rss_mb()?;
    Ok(m)
}
