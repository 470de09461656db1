//! The workload model: everything the scheduler knows about each benchmark.
//!
//! Built once per cluster from ACTOR's existing offline pipeline
//! ([`actor_core::evaluate_benchmarks`]): leave-one-out ANN ensembles produce
//! a [`ThrottleDecision`] per phase (predicted IPC for every candidate
//! configuration), and the machine model fills in time/power/energy per
//! (phase, configuration). Policies consult this table to answer "what does
//! running job J at configuration c cost, and what throughput does the ANN
//! predict?" without re-running the pipeline per job. Pricing a job that
//! may never start needs no [`ExecutionPlan`]: each benchmark's cap table,
//! built once per model, prices it with one lookup and one multiply.

use std::sync::OnceLock;

use actor_core::control_plane::ControlPlane;
use actor_core::controller::{
    best_config_by_ipc, CandidatePerf, DecisionTableController, JointPerf, PhaseSample,
};
use actor_core::{evaluate_benchmarks, ActorConfig, ThrottleDecision};
use npb_workloads::{suite, BenchmarkId, BenchmarkProfile};
use phase_rt::{FreqStep, MachineShape, PhaseId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xeon_sim::{Configuration, FreqLadder, Machine, PhaseExecution};

use crate::coordinator::EPS;
use crate::error::ClusterError;
use crate::job::Job;
use crate::policy::decide_choices_via_plane;

/// Phases per benchmark are bounded well below this, so one `u32` phase id
/// namespace covers (benchmark index, phase index) pairs.
const PHASE_ID_STRIDE: u32 = 64;

/// Per-phase knowledge: the ANN decision plus ground-truth executions.
#[derive(Debug, Clone)]
pub struct PhaseKnowledge {
    /// Phase name (unique within the benchmark).
    pub name: String,
    /// ACTOR's throttling decision (sampled IPC + ranked predictions).
    pub decision: ThrottleDecision,
    /// Counter-derived feature vector observed on the sampling
    /// configuration (what a live controller would re-predict from).
    pub features: Vec<f64>,
    /// Machine-model execution of one phase instance per configuration, at
    /// the nominal frequency.
    pub executions: Vec<(Configuration, PhaseExecution)>,
    /// Executions of the *downclocked* joint cells: one entry per
    /// (configuration, ladder step ≥ 1). Step 0 lives in `executions`.
    pub dvfs_executions: Vec<((Configuration, usize), PhaseExecution)>,
    /// Cached candidate menu (one [`CandidatePerf`] per nominal execution),
    /// derived from `executions` at construction so the planning hot path
    /// borrows it instead of rebuilding a `Vec` per decide.
    candidates: Vec<CandidatePerf>,
    /// Cached joint menu (see [`PhaseKnowledge::joint_candidates`]),
    /// derived from `executions` + `dvfs_executions` at construction.
    joint: Vec<JointPerf>,
}

impl PhaseKnowledge {
    /// Builds one phase's knowledge, deriving the cached candidate and
    /// joint menus from the executions.
    pub fn new(
        name: String,
        decision: ThrottleDecision,
        features: Vec<f64>,
        executions: Vec<(Configuration, PhaseExecution)>,
        dvfs_executions: Vec<((Configuration, usize), PhaseExecution)>,
    ) -> Self {
        let candidates: Vec<CandidatePerf> = executions
            .iter()
            .map(|(config, exec)| CandidatePerf {
                config: *config,
                avg_power_w: Some(exec.avg_power_w),
            })
            .collect();
        let mut joint: Vec<JointPerf> = executions
            .iter()
            .map(|(config, exec)| JointPerf {
                config: *config,
                step: FreqStep::NOMINAL,
                avg_power_w: Some(exec.avg_power_w),
                stall_fraction: Some(exec.stall_fraction()),
            })
            .collect();
        joint.extend(dvfs_executions.iter().map(|((config, step), exec)| JointPerf {
            config: *config,
            step: FreqStep::new(*step as u8),
            avg_power_w: Some(exec.avg_power_w),
            stall_fraction: Some(exec.stall_fraction()),
        }));
        Self { name, decision, features, executions, dvfs_executions, candidates, joint }
    }
    /// Execution of this phase under `config` at the nominal frequency.
    pub fn execution(&self, config: Configuration) -> &PhaseExecution {
        &self
            .executions
            .iter()
            .find(|(c, _)| *c == config)
            .expect("every configuration is pre-simulated")
            .1
    }

    /// Execution of this phase in the joint cell (`config`, `step`).
    ///
    /// Panics on a step the workload model did not pre-simulate — an
    /// out-of-ladder step is a contract violation upstream.
    pub fn execution_at(&self, config: Configuration, step: FreqStep) -> &PhaseExecution {
        if step.is_nominal() {
            return self.execution(config);
        }
        let key = (config, step.index() as usize);
        &self
            .dvfs_executions
            .iter()
            .find(|(c, _)| *c == key)
            .unwrap_or_else(|| {
                panic!(
                    "phase {:?}: joint cell ({config:?}, step {}) was not pre-simulated — \
                     the step is outside the machine's frequency ladder",
                    self.name,
                    step.index()
                )
            })
            .1
    }

    /// The memory-stall fraction observed on the sampling configuration —
    /// the stall/compute split a DVFS-aware controller extrapolates along
    /// the frequency ladder (one definition:
    /// [`PhaseExecution::stall_fraction`]).
    pub fn stall_fraction(&self) -> f64 {
        self.execution(Configuration::SAMPLE).stall_fraction()
    }

    /// The joint (configuration × frequency) candidate cells with their
    /// pre-simulated powers *and* each cell's own converged stall fraction,
    /// for a [`actor_core::DvfsSpace`] — the per-configuration stall model:
    /// a DVFS-aware controller extrapolates every configuration with its own
    /// contention-solved stall/compute split instead of the single sampled
    /// one (narrow configurations contend less for the bus, so the sampled
    /// split systematically overstates how well they tolerate downclocking).
    pub fn joint_candidates(&self) -> &[JointPerf] {
        &self.joint
    }

    /// The nominal candidate menu (one entry per pre-simulated
    /// configuration, with its average power), cached at construction — the
    /// `candidates` slice a [`actor_core::controller::DecisionCtx`] borrows.
    pub fn candidate_menu(&self) -> &[CandidatePerf] {
        &self.candidates
    }

    /// Predicted (or, for the sampling configuration, observed) IPC of this
    /// phase under `config`.
    pub fn predicted_ipc(&self, config: Configuration) -> f64 {
        self.decision.predicted_ipc(config)
    }

    /// The observation a [`actor_core::PowerPerfController`] would receive
    /// for this phase: the sampling-configuration window with its features,
    /// IPC and stall/compute split.
    pub fn sample(&self) -> PhaseSample {
        PhaseSample::sampling(
            self.features.clone(),
            self.decision.sampled_ipc,
            self.execution(Configuration::SAMPLE).time_s,
        )
        .with_stall_fraction(self.stall_fraction())
    }

    /// The highest-predicted-IPC configuration whose average phase power fits
    /// under `power_cap_w`, ties to fewer threads. `None` if not even the
    /// single-thread configuration fits. Delegates to the workspace's one
    /// definition of the selection rule
    /// ([`actor_core::controller::best_config_by_ipc`]).
    pub fn best_config_within(&self, power_cap_w: f64) -> Option<Configuration> {
        best_config_by_ipc(self.candidates.iter().copied(), Some(power_cap_w), |config| {
            self.predicted_ipc(config)
        })
        .map(|(c, _)| c)
    }
}

/// Per-benchmark knowledge.
#[derive(Debug, Clone)]
pub struct BenchmarkKnowledge {
    /// The profile (phases + timesteps).
    pub profile: BenchmarkProfile,
    /// Per-phase decisions and executions.
    pub phases: Vec<PhaseKnowledge>,
    /// Built on first use ([`WorkloadModel::cap_table`]), then shared.
    cap_table: OnceLock<CapTable>,
}

/// What one job will do on a node if started with the given per-phase
/// configurations: the policy's costed decision, applied by the node.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Chosen configuration per phase, in phase order.
    pub decisions: Vec<(String, Configuration)>,
    /// Chosen DVFS step per phase, aligned with `decisions`. Empty means
    /// nominal frequency throughout (the DCT-only plans).
    pub freq_steps: Vec<u8>,
    /// Total execution time (s) over all timesteps.
    pub exec_time_s: f64,
    /// Total energy (J) over all timesteps.
    pub energy_j: f64,
    /// Peak instantaneous power across phases (W) — what the cap must cover.
    pub peak_power_w: f64,
}

impl ExecutionPlan {
    /// Time-averaged power of the plan (W).
    pub fn avg_power_w(&self) -> f64 {
        if self.exec_time_s > 0.0 {
            self.energy_j / self.exec_time_s
        } else {
            0.0
        }
    }
}

/// What one timestep of a plan costs, independent of the job's length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlanRate {
    /// Time of one timestep (s), the phases summed in phase order.
    pub time_per_timestep_s: f64,
    /// Peak power across the phases (W) — the plan's `peak_power_w`.
    pub peak_power_w: f64,
}

impl PlanRate {
    /// The plan's `exec_time_s` for a job of `timesteps` timesteps.
    pub(crate) fn exec_time_s(&self, timesteps: usize) -> f64 {
        self.time_per_timestep_s * timesteps as f64
    }
}

/// One benchmark's job-independent prices on one model
/// ([`WorkloadModel::cap_table`]). A cell is admitted when its power is at
/// most the cap, so a phase's decision changes only where the cap crosses
/// one of its cell powers (conformance check 8, and the argument of
/// [`actor_core::controller::InternedJointPolicy`]). Between neighbouring
/// cell powers of all phases the whole plan is fixed: one bucket per gap
/// prices every cap in it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CapTable {
    /// The profile's base timestep count ([`CapTable::timesteps`]).
    pub base_timesteps: usize,
    /// The rate of [`WorkloadModel::plan_fixed`] at [`Configuration::Four`].
    pub four: PlanRate,
    /// The DCT-only (nominal-frequency) menu's buckets as `(lowest cap W,
    /// rate)`: −∞, then every distinct cell power (exact `==`), ascending.
    /// Infeasible buckets, where a phase admits no cell and falls back to
    /// its cheapest, are kept: their plans are what a policy prices.
    nominal: Vec<(f64, PlanRate)>,
    /// The joint DVFS+DCT menu's buckets, laid out like `nominal`.
    joint: Vec<(f64, PlanRate)>,
    /// `(probe cap W, rate)` of every feasible probe, caps ascending: the
    /// joint thresholds deduplicated within [`EPS`] whose plan fits them.
    pub rows: Vec<(f64, PlanRate)>,
}

impl CapTable {
    /// `job`'s effective timestep count on this benchmark.
    pub(crate) fn timesteps(&self, job: &Job) -> usize {
        job.effective_timesteps(self.base_timesteps)
    }

    /// The rate of the plan `plan_via_plane` builds at `cap_w` on the joint
    /// menu (`dvfs`) or the nominal one, bit for bit at any non-NaN cap (a
    /// NaN cap reads the bucket below every cell).
    pub(crate) fn rate_at(&self, cap_w: f64, dvfs: bool) -> PlanRate {
        let buckets = if dvfs { &self.joint } else { &self.nominal };
        buckets[buckets.partition_point(|&(t, _)| t <= cap_w).saturating_sub(1)].1
    }
}

/// The scheduler's model of every benchmark in the workload.
#[derive(Debug, Clone)]
pub struct WorkloadModel {
    benchmarks: Vec<(BenchmarkId, BenchmarkKnowledge)>,
    /// The voltage/frequency ladder of the machine this model was built on,
    /// offered to DVFS-aware policies.
    ladder: FreqLadder,
    /// Offset added to every [`PhaseId`] this model mints. Zero for a
    /// homogeneous cluster; a heterogeneous fleet gives each generation's
    /// model its own disjoint namespace so one shared controller table can
    /// hold all generations' decisions without aliasing.
    phase_id_base: u32,
}

impl WorkloadModel {
    /// Builds the model for `ids` (at least two, for leave-one-out training)
    /// with the deterministic RNG derived from `config.seed`.
    pub fn build(
        machine: &Machine,
        config: &ActorConfig,
        ids: &[BenchmarkId],
    ) -> Result<Self, ClusterError> {
        let profiles: Vec<BenchmarkProfile> = ids.iter().map(|&id| suite::benchmark(id)).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let evaluations = evaluate_benchmarks(machine, config, &profiles, &mut rng)?;
        let mut benchmarks = Vec::with_capacity(profiles.len());
        for profile in &profiles {
            if profile.phases.len() >= PHASE_ID_STRIDE as usize {
                return Err(ClusterError::InvalidSpec {
                    reason: format!(
                        "benchmark {} has {} phases, exceeding the {} supported per benchmark \
                         (phase-id namespace would alias across benchmarks)",
                        profile.id,
                        profile.phases.len(),
                        PHASE_ID_STRIDE
                    ),
                });
            }
        }
        for profile in profiles {
            let eval = evaluations
                .iter()
                .find(|e| e.id == profile.id)
                .expect("evaluate_benchmarks covers every input benchmark");
            let phases = profile
                .phases
                .iter()
                .zip(&eval.phases)
                .map(|(phase, pe)| {
                    // One ladder-wide simulation per configuration: the
                    // nominal execution plus every downclocked cell from a
                    // single contention solve.
                    let mut executions = Vec::with_capacity(Configuration::ALL.len());
                    let mut dvfs_executions = Vec::new();
                    for &c in &Configuration::ALL {
                        let mut ladder_execs = machine.simulate_config_ladder(phase, c).into_iter();
                        executions
                            .push((c, ladder_execs.next().expect("ladders have a nominal step")));
                        dvfs_executions
                            .extend(ladder_execs.enumerate().map(|(i, e)| ((c, i + 1), e)));
                    }
                    PhaseKnowledge::new(
                        phase.name.clone(),
                        pe.decision.clone(),
                        pe.features.clone(),
                        executions,
                        dvfs_executions,
                    )
                })
                .collect();
            let cap_table = OnceLock::new();
            benchmarks.push((profile.id, BenchmarkKnowledge { profile, phases, cap_table }));
        }
        Ok(Self { benchmarks, ladder: machine.freq_ladder().clone(), phase_id_base: 0 })
    }

    /// Moves this model's phase ids into their own namespace starting at
    /// `base` (see [`Self::phase_id`]). `base` must be a multiple of the
    /// per-benchmark stride times the benchmark count headroom; the fleet
    /// builder is the one caller and spaces generations far apart.
    #[must_use]
    pub fn with_phase_id_base(mut self, base: u32) -> Self {
        self.phase_id_base = base;
        self
    }

    /// The offset of this model's phase-id namespace (zero unless the model
    /// is part of a heterogeneous fleet).
    pub fn phase_id_base(&self) -> u32 {
        self.phase_id_base
    }

    /// The node machine's voltage/frequency ladder.
    pub fn freq_ladder(&self) -> &FreqLadder {
        &self.ladder
    }

    /// The benchmarks in the model.
    pub fn benchmark_ids(&self) -> Vec<BenchmarkId> {
        self.benchmarks.iter().map(|(id, _)| *id).collect()
    }

    /// Knowledge about one benchmark.
    pub fn knowledge(&self, id: BenchmarkId) -> &BenchmarkKnowledge {
        &self
            .benchmarks
            .iter()
            .find(|(b, _)| *b == id)
            .expect("job benchmarks must be part of the workload model")
            .1
    }

    /// The benchmark's cap table, built on the first call by a private,
    /// untraced control plane over [`Self::decision_table`] and shared from
    /// then on by every cell and thread holding the model. A plane over the
    /// same decisions (the fleet's table holds every generation's) rebuilds
    /// any bucket's plan at any cap in that bucket.
    pub(crate) fn cap_table(&self, id: BenchmarkId) -> &CapTable {
        let k = self.knowledge(id);
        k.cap_table.get_or_init(|| {
            let four = self.rate_with(k, |_| (Configuration::Four, FreqStep::NOMINAL)).0;
            let mut plane = ControlPlane::new(self.decision_table(), MachineShape::quad_core());
            let mut buckets = |dvfs: bool| {
                // The nominal menu is the joint menu's nominal-step cells.
                let cells = k.phases.iter().flat_map(PhaseKnowledge::joint_candidates);
                let menu = cells.filter(|cell| dvfs || cell.step.is_nominal());
                let mut caps: Vec<f64> = menu.filter_map(|cell| cell.avg_power_w).collect();
                caps.sort_by(f64::total_cmp);
                caps.dedup();
                // Each bucket is priced at its lowest cap.
                let caps = std::iter::once(f64::NEG_INFINITY).chain(caps);
                let priced = caps.map(|cap_w| {
                    let mut choices =
                        decide_choices_via_plane(&mut plane, self, id, cap_w, dvfs).into_iter();
                    (cap_w, self.rate_with(k, |_| choices.next().expect("one per phase")).0)
                });
                priced.collect::<Vec<_>>()
            };
            let (nominal, joint) = (buckets(false), buckets(true));
            let mut rows = joint[1..].to_vec();
            rows.dedup_by(|a, b| (a.0 - b.0).abs() < EPS);
            rows.retain(|&(cap_w, rate)| rate.peak_power_w <= cap_w + EPS);
            CapTable { base_timesteps: k.profile.timesteps, four, nominal, joint, rows }
        })
    }

    /// Stable workspace-wide [`PhaseId`] of one phase of one benchmark, so
    /// controller observations made while planning one job carry over to
    /// later jobs of the same benchmark.
    pub fn phase_id(&self, id: BenchmarkId, phase_idx: usize) -> PhaseId {
        assert!(
            phase_idx < PHASE_ID_STRIDE as usize,
            "phase index {phase_idx} outside the per-benchmark id namespace (< {PHASE_ID_STRIDE}; \
             enforced at model build time)"
        );
        let bench_idx = self
            .benchmarks
            .iter()
            .position(|(b, _)| *b == id)
            .expect("job benchmarks must be part of the workload model");
        PhaseId::new(self.phase_id_base + bench_idx as u32 * PHASE_ID_STRIDE + phase_idx as u32)
    }

    /// The model's ANN decisions as a [`DecisionTableController`] — the
    /// default controller behind the power-aware scheduling policy, keyed by
    /// [`Self::phase_id`].
    pub fn decision_table(&self) -> DecisionTableController {
        DecisionTableController::new(self.decision_entries())
    }

    /// The `(phase id, decision)` pairs behind [`Self::decision_table`], for
    /// callers that merge several models into one controller (heterogeneous
    /// fleets, where each generation's ids live in their own namespace).
    pub fn decision_entries(&self) -> impl Iterator<Item = (PhaseId, ThrottleDecision)> + '_ {
        self.benchmarks.iter().flat_map(|(id, k)| {
            k.phases.iter().enumerate().map(|(i, p)| (self.phase_id(*id, i), p.decision.clone()))
        })
    }

    /// Four-core execution time of one unscaled run (for deadline generation
    /// and runtime estimates).
    pub fn four_core_time_s(&self, id: BenchmarkId) -> f64 {
        let k = self.knowledge(id);
        let per_timestep: f64 =
            k.phases.iter().map(|p| p.execution(Configuration::Four).time_s).sum();
        per_timestep * k.profile.timesteps as f64
    }

    /// Plan `job` with a fixed configuration for every phase (the
    /// non-adaptive policies run everything at maximal concurrency).
    pub fn plan_fixed(&self, job: &Job, config: Configuration) -> ExecutionPlan {
        self.plan_with(job, |_| config)
    }

    /// Plan `job` choosing, per phase, the highest-predicted-IPC
    /// configuration whose power fits under `power_cap_w`. `None` if any
    /// phase cannot fit (the job must wait for more headroom).
    pub fn plan_within_power(&self, job: &Job, power_cap_w: f64) -> Option<ExecutionPlan> {
        let k = self.knowledge(job.benchmark);
        let mut choices = Vec::with_capacity(k.phases.len());
        for phase in &k.phases {
            choices.push(phase.best_config_within(power_cap_w)?);
        }
        let mut iter = choices.iter().copied();
        Some(self.plan_with(job, |_| iter.next().expect("one choice per phase")))
    }

    /// Plan `job` with an arbitrary per-phase choice function.
    pub fn plan_with(
        &self,
        job: &Job,
        mut choose: impl FnMut(&PhaseKnowledge) -> Configuration,
    ) -> ExecutionPlan {
        self.plan_with_joint(job, |phase| (choose(phase), FreqStep::NOMINAL))
    }

    /// Plan `job` with an arbitrary per-phase choice in the joint
    /// (configuration × frequency) space. Panics on a step outside the node
    /// machine's ladder — an out-of-range step is a controller contract
    /// violation, not a schedulable plan.
    pub fn plan_with_joint(
        &self,
        job: &Job,
        mut choose: impl FnMut(&PhaseKnowledge) -> (Configuration, FreqStep),
    ) -> ExecutionPlan {
        let k = self.knowledge(job.benchmark);
        let timesteps = job.effective_timesteps(k.profile.timesteps);
        let mut decisions = Vec::with_capacity(k.phases.len());
        let mut steps = Vec::with_capacity(k.phases.len());
        let (rate, energy_per_timestep) = self.rate_with(k, |phase| {
            let (config, step) = choose(phase);
            decisions.push((phase.name.clone(), config));
            steps.push(step.index());
            (config, step)
        });
        // DCT-only plans keep the compact representation (no frequency axis).
        let freq_steps = if steps.iter().all(|&s| s == 0) { Vec::new() } else { steps };
        ExecutionPlan {
            decisions,
            freq_steps,
            exec_time_s: rate.exec_time_s(timesteps),
            energy_j: energy_per_timestep * timesteps as f64,
            peak_power_w: rate.peak_power_w,
        }
    }

    /// One timestep's rate and energy (J), each phase run at its choice:
    /// the loop behind every plan and every [`CapTable`] row.
    fn rate_with(
        &self,
        k: &BenchmarkKnowledge,
        mut choose: impl FnMut(&PhaseKnowledge) -> (Configuration, FreqStep),
    ) -> (PlanRate, f64) {
        let mut time_per_timestep_s = 0.0;
        let mut energy_per_timestep = 0.0;
        let mut peak_power_w = 0.0f64;
        for phase in &k.phases {
            let (config, step) = choose(phase);
            assert!(
                step.is_valid_for(self.ladder.len()),
                "phase {:?}: chosen frequency step {} is outside the node ladder ({} steps)",
                phase.name,
                step.index(),
                self.ladder.len()
            );
            let exec = phase.execution_at(config, step);
            time_per_timestep_s += exec.time_s;
            energy_per_timestep += exec.energy_j;
            peak_power_w = peak_power_w.max(exec.avg_power_w);
        }
        (PlanRate { time_per_timestep_s, peak_power_w }, energy_per_timestep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WorkloadModel {
        let machine = Machine::xeon_qx6600();
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        WorkloadModel::build(
            &machine,
            &config,
            &[BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt],
        )
        .unwrap()
    }

    fn job(benchmark: BenchmarkId) -> Job {
        Job {
            id: 0,
            benchmark,
            arrival_s: 0.0,
            nodes: 1,
            priority: 0,
            deadline_s: None,
            duration_scale: 1.0,
        }
    }

    #[test]
    fn model_covers_all_benchmarks_and_configs() {
        let m = model();
        assert_eq!(m.benchmark_ids().len(), 4);
        for id in m.benchmark_ids() {
            let k = m.knowledge(id);
            assert!(!k.phases.is_empty());
            for p in &k.phases {
                assert_eq!(p.executions.len(), Configuration::ALL.len());
                assert!(p.decision.sampled_ipc > 0.0);
                // Power rises with concurrency often but at minimum One < Four.
                assert!(
                    p.execution(Configuration::One).avg_power_w
                        < p.execution(Configuration::Four).avg_power_w
                );
            }
            assert!(m.four_core_time_s(id) > 0.0);
        }
    }

    #[test]
    fn power_capped_choice_respects_the_cap() {
        let m = model();
        for id in m.benchmark_ids() {
            for p in &m.knowledge(id).phases {
                let four_w = p.execution(Configuration::Four).avg_power_w;
                let one_w = p.execution(Configuration::One).avg_power_w;
                // Ample cap: any configuration allowed, the choice must match
                // the unconstrained ACTOR decision.
                let ample = p.best_config_within(four_w + 100.0).unwrap();
                assert_eq!(ample, p.decision.chosen);
                // Tight cap just above single-thread power: only One fits.
                let tight = p.best_config_within(one_w + 1e-9).unwrap();
                assert_eq!(tight, Configuration::One);
                // Impossible cap: nothing fits.
                assert!(p.best_config_within(one_w - 1.0).is_none());
            }
        }
    }

    #[test]
    fn joint_cells_are_presimulated_with_monotone_power() {
        let m = model();
        let ladder_len = m.freq_ladder().len();
        assert!(ladder_len >= 2, "the default node machine ships a real ladder");
        for id in m.benchmark_ids() {
            for p in &m.knowledge(id).phases {
                assert_eq!(
                    p.dvfs_executions.len(),
                    Configuration::ALL.len() * (ladder_len - 1),
                    "one pre-simulated cell per (configuration, downclocked step)"
                );
                let stall = p.stall_fraction();
                assert!((0.0..=1.0).contains(&stall));
                for &config in &Configuration::ALL {
                    let mut prev = p.execution_at(config, FreqStep::NOMINAL).avg_power_w;
                    for step in 1..ladder_len {
                        let exec = p.execution_at(config, FreqStep::new(step as u8));
                        assert!(exec.avg_power_w <= prev + 1e-9, "power rose down the ladder");
                        assert!(
                            exec.time_s + 1e-12 >= p.execution_at(config, FreqStep::NOMINAL).time_s,
                            "downclocking never speeds a phase up"
                        );
                        prev = exec.avg_power_w;
                    }
                }
                let joint = p.joint_candidates();
                assert_eq!(joint.len(), Configuration::ALL.len() * ladder_len);
                assert!(joint.iter().all(|c| c.avg_power_w.is_some()));
                // The sample a controller receives carries the stall split.
                assert_eq!(p.sample().stall_fraction, stall);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not pre-simulated")]
    fn out_of_ladder_execution_lookup_fails_loudly() {
        let m = model();
        let id = m.benchmark_ids()[0];
        let p = &m.knowledge(id).phases[0];
        let _ = p.execution_at(Configuration::One, FreqStep::new(99));
    }

    #[test]
    fn joint_plans_price_the_frequency_axis() {
        let m = model();
        let j = job(BenchmarkId::Is);
        let ladder_len = m.freq_ladder().len();
        let nominal = m.plan_fixed(&j, Configuration::Four);
        assert!(nominal.freq_steps.is_empty());
        let bottom = FreqStep::new((ladder_len - 1) as u8);
        let slow = m.plan_with_joint(&j, |_| (Configuration::Four, bottom));
        assert_eq!(slow.freq_steps, vec![bottom.index(); slow.decisions.len()]);
        assert!(slow.peak_power_w < nominal.peak_power_w, "downclocked plan draws less");
        assert!(slow.exec_time_s >= nominal.exec_time_s, "…but never finishes earlier");
    }

    #[test]
    #[should_panic(expected = "outside the node ladder")]
    fn joint_plans_reject_out_of_ladder_steps() {
        let m = model();
        let j = job(BenchmarkId::Is);
        let _ = m.plan_with_joint(&j, |_| (Configuration::Four, FreqStep::new(99)));
    }

    /// Every cap table prices a job exactly like the plan it stands for, on
    /// each generation of a mixed fleet and for each benchmark, against the
    /// plan `plan_via_plane` builds through the fleet's decision table:
    ///
    /// * both menus' buckets, at probe caps on each threshold, just below
    ///   it, midway to the next one, below the lowest and above the
    ///   highest, for several effective timestep counts: the looked-up
    ///   peak and `time_per_timestep × T` equal the plan's, bit for bit
    ///   (the prices the power-aware pair starts jobs by);
    /// * every coordinator row at its own cap, for each effective timestep
    ///   count up to twice the base (the plan the coordinator builds for an
    ///   admitted job);
    /// * the four-core rate against `plan_fixed` at four cores.
    #[test]
    fn cap_table_rows_price_jobs_bit_identically_to_their_plans() {
        use crate::fleet::{FleetModel, MachineMix};
        use crate::policy::plan_via_plane;

        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        let ids = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];
        let mixed = MachineMix::by_name("mixed").unwrap();
        let fleet = FleetModel::build(&config, &ids, &[mixed]).unwrap();
        assert_eq!(fleet.gens().len(), 3, "the mixed fleet has three generations");
        let mut plane = ControlPlane::new(fleet.decision_table(), MachineShape::quad_core());
        for gen in fleet.gens() {
            let model = &gen.model;
            for id in model.benchmark_ids() {
                let table = model.cap_table(id);
                assert!(std::ptr::eq(table, model.cap_table(id)), "built once, then shared");
                let base = model.knowledge(id).profile.timesteps;
                assert_eq!(table.base_timesteps, base);
                let job_of = |t: usize| Job { duration_scale: t as f64 / base as f64, ..job(id) };
                for dvfs in [false, true] {
                    let buckets = if dvfs { &table.joint } else { &table.nominal };
                    assert_eq!(buckets[0].0, f64::NEG_INFINITY, "bucket 0 sits below every cell");
                    let t: Vec<f64> = buckets[1..].iter().map(|&(cap_w, _)| cap_w).collect();
                    assert!(t.windows(2).all(|w| w[0] < w[1]), "distinct, ascending");
                    let mut caps = vec![t[0] - 1.0, t[t.len() - 1] + 1.0];
                    for (i, &cap_w) in t.iter().enumerate() {
                        caps.extend([cap_w, cap_w.next_down()]);
                        caps.extend(t.get(i + 1).map(|next| (cap_w + next) / 2.0));
                    }
                    for timesteps in [1, base, 2 * base + 1] {
                        let j = job_of(timesteps);
                        assert_eq!(table.timesteps(&j), timesteps);
                        for &cap_w in &caps {
                            let rate = table.rate_at(cap_w, dvfs);
                            let plan = plan_via_plane(&mut plane, model, &j, cap_w, dvfs);
                            let at = format!(
                                "{}/{id}, dvfs {dvfs}, cap {cap_w} W, {timesteps} timesteps",
                                gen.name
                            );
                            assert_eq!(
                                rate.peak_power_w.to_bits(),
                                plan.peak_power_w.to_bits(),
                                "{at}"
                            );
                            assert_eq!(
                                rate.exec_time_s(timesteps).to_bits(),
                                plan.exec_time_s.to_bits(),
                                "{at}"
                            );
                        }
                    }
                }
                assert!(!table.rows.is_empty(), "{}/{id}: no feasible cap", gen.name);
                assert!(table.rows.windows(2).all(|w| w[0].0 < w[1].0));
                for t in 1..=2 * base {
                    let j = job_of(t);
                    assert_eq!(table.timesteps(&j), t);
                    let four = model.plan_fixed(&j, Configuration::Four);
                    assert_eq!(table.four.peak_power_w.to_bits(), four.peak_power_w.to_bits());
                    assert_eq!(table.four.exec_time_s(t).to_bits(), four.exec_time_s.to_bits());
                    for &(cap_w, rate) in &table.rows {
                        let plan = plan_via_plane(&mut plane, model, &j, cap_w, true);
                        let at = format!("{}/{id}, cap {cap_w} W, {t} timesteps", gen.name);
                        assert_eq!(
                            rate.peak_power_w.to_bits(),
                            plan.peak_power_w.to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            rate.exec_time_s(t).to_bits(),
                            plan.exec_time_s.to_bits(),
                            "{at}"
                        );
                        assert!(rate.peak_power_w <= cap_w + EPS, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn plans_scale_with_duration_and_respect_power() {
        let m = model();
        let j = job(BenchmarkId::Is);
        let four = m.plan_fixed(&j, Configuration::Four);
        assert!(four.exec_time_s > 0.0 && four.energy_j > 0.0);
        assert!(four.peak_power_w >= four.avg_power_w());

        let long = m.plan_fixed(&Job { duration_scale: 2.0, ..j.clone() }, Configuration::Four);
        assert!((long.exec_time_s / four.exec_time_s - 2.0).abs() < 0.05);

        let capped = m.plan_within_power(&j, four.peak_power_w - 1.0).unwrap();
        assert!(capped.peak_power_w < four.peak_power_w);
        // An impossible cap yields no plan.
        assert!(m.plan_within_power(&j, 1.0).is_none());
    }
}
