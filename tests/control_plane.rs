//! Cross-crate tests of the unified control plane:
//!
//! * the refactored, `ControlPlane`-backed cluster policies schedule
//!   byte-identically to the pre-refactor inline observe → decide loop
//!   (for both `power-aware` and `power-aware-dvfs`, JSON included), on a
//!   uniform and on a mixed-generation cluster;
//! * the live predictor controller decides exactly like the decision table
//!   built from its predictions;
//! * the live `ActorRuntime` controller loop drives real `phase-rt`
//!   kernels end to end (via the `ExperimentBuilder` facade) without
//!   changing their numerics.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use actor_suite::actor::controller::{
    shape_of, validate_decision, CandidatePerf, DecisionCtx, DecisionTableController, DvfsSpace,
    JointPerf, PhaseSample, PowerPerfController, PredictorController,
};
use actor_suite::actor::{
    sample_phase, select_configuration, ActorConfig, AnnPredictor, ControlPlane, IpcPredictor,
    LinearRegressionPredictor, NullReporter, SamplingPlan, TrainingCorpus,
};
use actor_suite::cluster::{
    budget_for_mix, budget_from_fraction, policy_by_name_fleet, simulate_fleet, Assignment,
    ClusterSpec, ExecutionPlan, FaultSpec, FleetModel, Job, MachineMix, SchedContext,
    SchedulerPolicy, WorkloadModel, WorkloadSpec,
};
use actor_suite::prelude::{ControllerSpec, ExperimentBuilder};
use actor_suite::rt::{Binding, FreqStep, MachineShape, PhaseId, Team};
use actor_suite::sim::{Configuration, FreqLadder, Machine, PhaseProfile};
use actor_suite::workloads::kernels::ConjugateGradient;
use actor_suite::workloads::{benchmark, BenchmarkId, BenchmarkProfile};

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn fleet_with(mixes: &[MachineMix]) -> FleetModel {
    let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
    FleetModel::build(&config, &IDS, mixes).unwrap()
}

fn fleet() -> FleetModel {
    fleet_with(&[])
}

/// The pre-refactor power-aware policy, reconstructed: the observe →
/// decide loop inlined against the controller, no `ControlPlane`, no cap
/// tables. Every job it looks at is planned through the controller on
/// every generation with enough free nodes; the fastest plan that fits the
/// headroom wins, ties going to the lower generation index, and the first
/// job that fits nowhere blocks the queue.
struct InlineLoopPowerAware {
    controller: DecisionTableController,
    shape: MachineShape,
    observed: HashSet<PhaseId>,
    dvfs: bool,
}

impl InlineLoopPowerAware {
    fn new(fleet: &FleetModel, dvfs: bool) -> Self {
        Self {
            controller: fleet.decision_table(),
            shape: MachineShape::quad_core(),
            observed: HashSet::new(),
            dvfs,
        }
    }

    /// One job's plan on `model` under a per-node cap of `node_cap` W.
    fn plan(&mut self, model: &WorkloadModel, job: &Job, node_cap: f64) -> ExecutionPlan {
        let ladder = model.freq_ladder();
        let knowledge = model.knowledge(job.benchmark);
        let mut choices = Vec::with_capacity(knowledge.phases.len());
        for (idx, phase) in knowledge.phases.iter().enumerate() {
            let pid = model.phase_id(job.benchmark, idx);
            if self.observed.insert(pid) {
                self.controller.observe(pid, &phase.sample());
            }
            let candidates: &[CandidatePerf] = phase.candidate_menu();
            let joint = if self.dvfs { phase.joint_candidates() } else { &[] };
            let decision = self.controller.decide(&DecisionCtx {
                phase: pid,
                shape: &self.shape,
                candidates,
                power_cap_w: Some(node_cap),
                dvfs: self.dvfs.then_some(DvfsSpace { ladder, joint }),
            });
            let config =
                validate_decision(&decision, &self.shape, ladder.len(), self.dvfs).unwrap();
            choices.push((config, decision.freq_step));
        }
        let mut iter = choices.into_iter();
        model.plan_with_joint(job, |_| iter.next().expect("one per phase"))
    }
}

impl SchedulerPolicy for InlineLoopPowerAware {
    fn name(&self) -> &'static str {
        if self.dvfs {
            "power-aware-dvfs"
        } else {
            "power-aware"
        }
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        // Idle nodes per generation, each list ascending.
        let mut free = vec![Vec::new(); ctx.fleet.gens().len()];
        for &n in ctx.idle_nodes {
            free[ctx.gen_of(n)].push(n);
        }
        let mut out = Vec::new();
        let mut headroom = ctx.headroom_w();
        for (queue_idx, job) in ctx.queue.iter().enumerate() {
            let k = job.nodes;
            let mut best: Option<(usize, ExecutionPlan)> = None;
            for (gen, gen_free) in free.iter().enumerate() {
                if gen_free.len() < k {
                    continue;
                }
                let idle_w = ctx.gen_idle_w(gen);
                let node_cap = headroom / k as f64 + idle_w;
                let plan = self.plan(ctx.gen_model(gen), job, node_cap);
                if (plan.peak_power_w - idle_w) * k as f64 > headroom + 1e-9 {
                    continue;
                }
                if best.as_ref().is_none_or(|(_, b)| plan.exec_time_s < b.exec_time_s) {
                    best = Some((gen, plan));
                }
            }
            let Some((gen, plan)) = best else { break };
            headroom -= (plan.peak_power_w - ctx.gen_idle_w(gen)) * k as f64;
            let nodes: Vec<usize> = free[gen].drain(..k).collect();
            out.push(Assignment { queue_idx, nodes, plan });
        }
        out
    }
}

/// Runs both power-aware policies against the inline loop on `nodes` nodes
/// of `machines` at every budget fraction (`budget_w` maps one to watts)
/// and seed: the same schedule, byte for byte.
fn assert_policies_match_the_inline_loop(
    fleet: &FleetModel,
    nodes: usize,
    machines: MachineMix,
    node_counts: Vec<usize>,
    budget_w: impl Fn(f64) -> f64,
) {
    for fraction in [0.3, 0.45, 0.55, 0.7, 1.0] {
        for seed in [99, 2007] {
            let spec = ClusterSpec {
                nodes,
                power_budget_w: budget_w(fraction),
                machines: machines.clone(),
                faults: FaultSpec::default(),
                workload: WorkloadSpec {
                    num_jobs: 12,
                    mean_interarrival_s: 16.0 / nodes as f64,
                    benchmarks: IDS.to_vec(),
                    node_counts: node_counts.clone(),
                    ..Default::default()
                },
                seed,
            };
            for dvfs in [false, true] {
                let name = if dvfs { "power-aware-dvfs" } else { "power-aware" };
                let at = format!(
                    "{name}, {nodes} {} nodes, fraction {fraction}, seed {seed}",
                    machines.name
                );
                let mut inline = InlineLoopPowerAware::new(fleet, dvfs);
                let before = simulate_fleet(&spec, fleet, &mut inline, None).unwrap();
                let mut refactored = policy_by_name_fleet(name, fleet).unwrap();
                let after = simulate_fleet(&spec, fleet, refactored.as_mut(), None).unwrap();
                assert_eq!(before, after, "{at}: the policy changed the schedule");
                // Byte-identity, not just structural equality: the emitted
                // JSON (what `cluster_power_cap` persists) is the same string.
                assert_eq!(
                    serde_json::to_string(&before).unwrap(),
                    serde_json::to_string(&after).unwrap(),
                    "{at}: JSON diverged"
                );
            }
        }
    }
}

/// The tight fractions (0.3, 0.45, 0.55) keep heads blocked on power, so
/// queued jobs are priced at events where they do not start.
#[test]
fn refactored_policies_schedule_byte_identically_to_the_inline_loop() {
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;
    let uniform = |fraction| budget_from_fraction(4, idle_w, 160.0, fraction);
    assert_policies_match_the_inline_loop(
        &fleet(),
        4,
        MachineMix::uniform(),
        vec![1, 1, 2],
        uniform,
    );
    let mixed = MachineMix::by_name("mixed").unwrap();
    let mixed_fleet = fleet_with(std::slice::from_ref(&mixed));
    let mixed_budget = |fraction| budget_for_mix(8, &mixed, 160.0, fraction);
    assert_policies_match_the_inline_loop(
        &mixed_fleet,
        8,
        mixed.clone(),
        vec![1, 1, 2, 4],
        mixed_budget,
    );
}

/// Every cap worth probing on a joint menu: none, far below everything,
/// and each distinct cell power exactly, just below, and halfway to the
/// next one up.
fn probe_caps(joint: &[JointPerf]) -> Vec<Option<f64>> {
    let mut powers: Vec<f64> = joint.iter().filter_map(|c| c.avg_power_w).collect();
    powers.sort_by(f64::total_cmp);
    powers.dedup();
    let mut caps = vec![None, Some(1.0)];
    for (i, &w) in powers.iter().enumerate() {
        caps.extend([Some(w), Some(w - 1e-9)]);
        if let Some(&next) = powers.get(i + 1) {
            caps.push(Some(0.5 * (w + next)));
        }
    }
    caps
}

/// One phase's decision menus priced by the machine model: the nominal
/// candidates and the joint (configuration × step) cells with their own
/// stall splits.
fn phase_menus(machine: &Machine, phase: &PhaseProfile) -> (Vec<CandidatePerf>, Vec<JointPerf>) {
    let mut candidates = Vec::new();
    let mut joint = Vec::new();
    for &config in &Configuration::ALL {
        for (step, exec) in machine.simulate_config_ladder(phase, config).iter().enumerate() {
            if step == 0 {
                candidates.push(CandidatePerf { config, avg_power_w: Some(exec.avg_power_w) });
            }
            joint.push(JointPerf {
                config,
                step: FreqStep::new(step as u8),
                avg_power_w: Some(exec.avg_power_w),
                stall_fraction: Some(exec.stall_fraction()),
            });
        }
    }
    (candidates, joint)
}

/// Decides `phase` on two planes over every probe cap, with and without the
/// ladder, and asserts they agree; returns the number of cases compared.
fn assert_planes_agree<A: PowerPerfController, B: PowerPerfController>(
    live: &mut ControlPlane<A>,
    table: &mut ControlPlane<B>,
    phase: PhaseId,
    (candidates, joint): &(Vec<CandidatePerf>, Vec<JointPerf>),
    ladder: &FreqLadder,
    at: &str,
) -> usize {
    let mut cases = 0;
    for with_ladder in [false, true] {
        let dvfs = with_ladder.then_some(DvfsSpace { ladder, joint });
        for cap in probe_caps(joint) {
            let want = table.decide(phase, candidates, dvfs, cap).unwrap();
            let got = live.decide(phase, candidates, dvfs, cap).unwrap();
            assert_eq!(got, want, "{at}, ladder {with_ladder}, cap {cap:?}");
            cases += 1;
        }
    }
    cases
}

/// Runs `predictor` through a `PredictorController` and through decision
/// tables built from its predictions on every phase of `bench`, asserting
/// equal decisions; returns the number of cases compared. Each phase is
/// then re-observed with the next phase's features and IPC but its own
/// stall split: the menu and the stall are unchanged, only the prediction
/// moved.
fn assert_predictor_decides_like_a_table<P: IpcPredictor + Clone>(
    machine: &Machine,
    bench: &BenchmarkProfile,
    samples: &[PhaseSample],
    predictor: &P,
    name: &str,
) -> usize {
    let shape = shape_of(machine);
    let ladder = machine.freq_ladder();
    let table_for = |sample: &PhaseSample, phase: PhaseId| {
        let predictions = predictor.predict(&sample.features).unwrap();
        let mut table =
            DecisionTableController::new([(phase, select_configuration(sample.ipc, &predictions))]);
        table.observe(phase, sample);
        ControlPlane::new(table, shape)
    };
    let mut cases = 0;
    for (idx, phase) in bench.phases.iter().enumerate() {
        let pid = PhaseId::new(idx as u32);
        let menus = phase_menus(machine, phase);
        let at = format!("{name} on {} phase {}", bench.id, phase.name);
        let mut live =
            ControlPlane::new(PredictorController::new(predictor.clone(), "live"), shape);
        live.observe(pid, &samples[idx]);
        let mut table = table_for(&samples[idx], pid);
        cases += assert_planes_agree(&mut live, &mut table, pid, &menus, ladder, &at);

        let other = &samples[(idx + 1) % samples.len()];
        let resampled = PhaseSample::sampling(other.features.clone(), other.ipc, other.time_s)
            .with_stall_fraction(samples[idx].stall_fraction);
        live.observe(pid, &resampled);
        let mut table = table_for(&resampled, pid);
        let at = format!("{at}, re-observed");
        cases += assert_planes_agree(&mut live, &mut table, pid, &menus, ladder, &at);
    }
    cases
}

/// The live predictor controller decides exactly like a decision table
/// built from `select_configuration` over the same sampling window: for
/// the ANN and the regression model, on every phase of MG, SP, FT and LU,
/// uncapped and at caps on, just below and between every joint-cell power,
/// with and without the frequency ladder. A phase re-observed with other
/// features but the same stall split must decide from the new prediction,
/// not from tables built for the old one.
#[test]
fn predictor_controller_decides_like_its_decision_table() {
    let machine = Machine::xeon_qx6600();
    let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let training = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Bt].map(benchmark).to_vec();
    let mut cases = 0;
    for id in [BenchmarkId::Mg, BenchmarkId::Sp, BenchmarkId::Ft, BenchmarkId::Lu] {
        let bench = benchmark(id);
        let plan = SamplingPlan::for_benchmark(&bench, &config).unwrap();
        let corpus = TrainingCorpus::build(
            &machine,
            &training,
            &plan.event_set,
            config.corpus_replicas,
            config.corpus_noise,
            &mut rng,
        )
        .unwrap();
        let ann = AnnPredictor::train(&corpus, &config.predictor, &mut rng).unwrap();
        let regression = LinearRegressionPredictor::train(&corpus, 1e-3).unwrap();
        let samples: Vec<PhaseSample> = bench
            .phases
            .iter()
            .map(|phase| {
                let rates =
                    sample_phase(&machine, phase, &plan, config.measurement_noise, &mut rng)
                        .unwrap();
                let exec = machine.simulate_config(phase, Configuration::SAMPLE);
                PhaseSample::sampling(rates.features(), rates.ipc(), exec.time_s)
                    .with_stall_fraction(exec.stall_fraction())
            })
            .collect();
        cases += assert_predictor_decides_like_a_table(&machine, &bench, &samples, &ann, "ann");
        cases += assert_predictor_decides_like_a_table(
            &machine,
            &bench,
            &samples,
            &regression,
            "regression",
        );
    }
    assert!(cases > 5_000, "only {cases} cases compared");
}

#[test]
fn live_controller_loop_drives_a_real_kernel_through_the_facade() {
    let benchmarks = IDS.map(benchmark);
    let mut exp = ExperimentBuilder::new()
        .suite(benchmarks.to_vec())
        .config(ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() })
        .controller(ControllerSpec::JointSearch)
        .reporter(Box::new(NullReporter))
        .run()
        .expect("valid experiment");

    let team = Team::new(4).unwrap();
    let shape = *team.shape();
    let solver = ConjugateGradient::poisson(20, 80);

    // Reference solution without any listener.
    let reference = solver.run(&team, &Binding::packed(4, &shape));

    // The closed loop: the facade builds the live runtime, the runtime
    // observes every region and decides every next one.
    let runtime = Arc::new(
        exp.live_runtime_for(BenchmarkId::Cg, &shape).expect("live runtime for a suite member"),
    );
    team.set_listener(runtime.clone());
    let adaptive = solver.run(&team, &Binding::packed(4, &shape));
    team.clear_listener();

    assert_eq!(
        reference.iterations, adaptive.iterations,
        "live controller throttling must not change convergence"
    );
    let max_diff = reference
        .solution
        .iter()
        .zip(&adaptive.solution)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-9, "live controller throttling changed the solution ({max_diff})");

    // The loop closed: at least one phase ran often enough for the search
    // controller to explore every configuration and lock a decision.
    let decisions = runtime.decisions();
    assert!(!decisions.is_empty(), "the live loop must have decided at least one phase");
    for (_, binding) in &decisions {
        assert!(binding.num_threads() >= 1 && binding.num_threads() <= 4);
    }

    // Asking for a benchmark outside the suite is a typed error.
    assert!(exp.live_runtime_for(BenchmarkId::Ft, &shape).is_err());
}
