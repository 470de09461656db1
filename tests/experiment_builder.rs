//! Deterministic-output tests for the API redesign: the `ExperimentBuilder`
//! path must reproduce the historical free-function results bit-for-bit
//! (same seeds ⇒ same tables), and the control-plane power-aware cluster
//! policy must schedule exactly like the old hard-wired ANN path.

use rand::rngs::StdRng;
use rand::SeedableRng;

use actor_suite::actor::adaptation::run_adaptation_study_on;
use actor_suite::actor::{ActorConfig, NullReporter};
use actor_suite::cluster::{
    budget_from_fraction, policy_by_name_fleet, simulate_fleet, Assignment, ClusterSpec, FaultSpec,
    FleetModel, MachineMix, PowerAwarePolicy, SchedContext, SchedulerPolicy, WorkloadSpec,
};
use actor_suite::prelude::{
    AdaptationStudy, ControllerSpec, ExperimentBuilder, Metric, OracleController, Strategy,
};
use actor_suite::sim::{Configuration, Machine};
use actor_suite::workloads::{benchmark, BenchmarkId, BenchmarkProfile};

const IDS: [BenchmarkId; 4] = [BenchmarkId::Bt, BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg];

fn fast_config() -> ActorConfig {
    ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() }
}

fn fast_suite() -> Vec<BenchmarkProfile> {
    IDS.map(benchmark).to_vec()
}

fn builder_study() -> AdaptationStudy {
    let mut exp = ExperimentBuilder::new()
        .machine(Machine::xeon_qx6600())
        .suite(fast_suite())
        .config(fast_config())
        .controller(ControllerSpec::Ann)
        .reporter(Box::new(NullReporter))
        .run()
        .expect("valid experiment");
    exp.adaptation().expect("adaptation study")
}

#[test]
fn builder_reproduces_the_legacy_adaptation_study_bit_for_bit() {
    // The pre-redesign path: seed-derived RNG into the free functions.
    let machine = Machine::xeon_qx6600();
    let config = fast_config();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let legacy = run_adaptation_study_on(&machine, &config, &fast_suite(), &mut rng).unwrap();

    let redesigned = builder_study();
    assert_eq!(
        legacy, redesigned,
        "the builder must reproduce the free-function study exactly (same seed, same tables)"
    );

    // And the builder path is reproducible run to run.
    assert_eq!(builder_study(), redesigned);
}

#[test]
fn controllers_are_drop_in_interchangeable_in_the_adaptive_slot() {
    // An oracle controller in the adaptive slot must match the
    // phase-optimal reference bar's decisions (sampling overhead still
    // applies, so outcomes differ, but decisions must be the oracle's).
    let machine = Machine::xeon_qx6600();
    let mut exp = ExperimentBuilder::new()
        .suite(fast_suite())
        .config(fast_config())
        .controller(ControllerSpec::Custom(Box::new(move |m, b, _e| {
            Box::new(OracleController::for_benchmark(m, b))
        })))
        .reporter(Box::new(NullReporter))
        .run()
        .expect("valid experiment");
    let study = exp.adaptation().expect("adaptation study");
    for bench_adapt in &study.benchmarks {
        let profile = benchmark(bench_adapt.id);
        let expected = actor_suite::actor::oracle::phase_optimal(&machine, &profile);
        let got: Vec<Configuration> = bench_adapt.decisions.iter().map(|(_, c)| *c).collect();
        assert_eq!(
            got, expected,
            "{}: adaptive slot must carry the oracle's choices",
            bench_adapt.id
        );
    }

    // A static four-core controller makes the adaptive bar the baseline
    // (plus sampling, which *is* four-core execution): normalised time 1.0.
    let mut exp = ExperimentBuilder::new()
        .suite(fast_suite())
        .config(fast_config())
        .controller(ControllerSpec::Static(Configuration::Four))
        .reporter(Box::new(NullReporter))
        .run()
        .expect("valid experiment");
    let study = exp.adaptation().expect("adaptation study");
    for bench_adapt in &study.benchmarks {
        let t = bench_adapt.normalised(Strategy::Prediction, Metric::Time);
        assert!((t - 1.0).abs() < 1e-9, "{}: static-4 adaptive time {t}", bench_adapt.id);
    }
}

/// The pre-redesign power-aware policy, reconstructed verbatim: plan every
/// job with `WorkloadModel::plan_within_power` (the hard-wired ANN path).
struct LegacyPowerAware;

impl SchedulerPolicy for LegacyPowerAware {
    fn name(&self) -> &'static str {
        "power-aware"
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        // A uniform reference cluster: every node is generation 0.
        let (model, idle_w) = (ctx.fleet.reference(), ctx.fleet.gen(0).idle_w);
        let mut out = Vec::new();
        let mut free: Vec<usize> = ctx.idle_nodes.to_vec();
        let mut headroom = ctx.headroom_w();
        for (queue_idx, job) in ctx.queue.iter().enumerate() {
            let k = job.nodes;
            if free.len() < k {
                break;
            }
            let node_cap = headroom / k as f64 + idle_w;
            let Some(plan) = model.plan_within_power(job, node_cap) else { break };
            if (plan.peak_power_w - idle_w) * k as f64 > headroom + 1e-9 {
                break;
            }
            headroom -= (plan.peak_power_w - idle_w) * k as f64;
            let nodes: Vec<usize> = free.drain(..k).collect();
            out.push(Assignment { queue_idx, nodes, plan });
        }
        out
    }
}

#[test]
fn generic_power_aware_policy_matches_the_legacy_hard_wired_path() {
    let fleet = FleetModel::build(&fast_config(), &IDS, &[]).unwrap();
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;

    // The tight fractions (0.3, 0.45, 0.55) keep heads blocked on power.
    for fraction in [0.3, 0.45, 0.55, 0.7, 1.0] {
        for seed in [99, 2007] {
            let spec = ClusterSpec {
                nodes: 4,
                power_budget_w: budget_from_fraction(4, idle_w, 160.0, fraction),
                machines: MachineMix::uniform(),
                faults: FaultSpec::default(),
                workload: WorkloadSpec {
                    num_jobs: 12,
                    mean_interarrival_s: 4.0,
                    benchmarks: IDS.to_vec(),
                    node_counts: vec![1, 1, 2],
                    ..Default::default()
                },
                seed,
            };
            let mut legacy = LegacyPowerAware;
            let before = simulate_fleet(&spec, &fleet, &mut legacy, None).unwrap();

            let mut policy = PowerAwarePolicy::new(fleet.decision_table());
            let after = simulate_fleet(&spec, &fleet, &mut policy, None).unwrap();
            assert_eq!(
                before, after,
                "budget fraction {fraction}, seed {seed}: the control-plane policy must \
                 schedule exactly like the pre-redesign ANN path"
            );

            // And the by-name constructor builds the same thing.
            let mut by_name = policy_by_name_fleet("power-aware", &fleet).unwrap();
            let by_name_report = simulate_fleet(&spec, &fleet, by_name.as_mut(), None).unwrap();
            assert_eq!(before, by_name_report);
        }
    }
}
