//! The traced run's re-compositions: model builds and sweep cells re-run
//! step by step through the crates' public functions, each call wrapped in
//! a span. A re-composition must reproduce its reference bit for bit — the
//! decisions `WorkloadModel::build` makes, the `ClusterReport` that
//! `execute_cell` returns — or the traced run fails.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use actor_core::{
    sample_phase, select_configuration, ActorConfig, AnnPredictor, IpcPredictor, SamplingPlan,
    ThrottleDecision, TrainingCorpus,
};
use cluster_sched::profile::PhaseKnowledge;
use cluster_sched::{
    arrival_process_by_name, budget_for_mix, fault_scenario_by_name, mix_by_name,
    policy_by_name_fleet, simulate_fleet, ClusterReport, ClusterSpec, FleetModel, MachineMix,
    SchedulerPolicy, SweepCell, SweepSpec, WorkloadModel,
};
use npb_workloads::{suite, BenchmarkId, BenchmarkProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xeon_sim::{Configuration, Machine, MACHINE_GEN_NAMES};

use crate::trace::{TimedPolicy, Tracer};

/// What a re-composed model build produced.
#[derive(Debug, Default)]
pub struct ModelTrace {
    /// Every phase's decision, in (benchmark, phase) order — the order of
    /// `WorkloadModel::decision_entries`.
    pub decisions: Vec<ThrottleDecision>,
    /// |predicted − simulated| / simulated IPC per (phase, target).
    pub pred_errors: Vec<f64>,
    /// Phases whose chosen configuration is the truly best one.
    pub rank1_hits: usize,
    /// Training samples built.
    pub corpus_samples: usize,
}

impl ModelTrace {
    fn absorb(&mut self, other: ModelTrace) {
        self.decisions.extend(other.decisions);
        self.pred_errors.extend(other.pred_errors);
        self.rank1_hits += other.rank1_hits;
        self.corpus_samples += other.corpus_samples;
    }
}

/// Re-composes `WorkloadModel::build(machine, config, ids)` from its public
/// steps: sampling plans, one training corpus per event set, one ANN
/// predictor per left-out benchmark, phase sampling, batched inference,
/// configuration selection, and the ladder pricing of every configuration.
/// The RNG is consumed in the same order as the library's build.
pub fn model_build(
    tracer: &mut Tracer,
    machine: &Machine,
    config: &ActorConfig,
    ids: &[BenchmarkId],
) -> Result<ModelTrace, String> {
    let profiles: Vec<BenchmarkProfile> = ids.iter().map(|&id| suite::benchmark(id)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let plans: Vec<SamplingPlan> = profiles
        .iter()
        .map(|b| SamplingPlan::for_benchmark(b, config))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let mut out = ModelTrace::default();
    let mut phase_features_all: Vec<Vec<f64>> = Vec::new();
    let mut corpora: Vec<TrainingCorpus> = Vec::new();
    for plan in &plans {
        if corpora.iter().any(|c| c.event_set == plan.event_set) {
            continue;
        }
        let corpus = tracer.span("corpus.build", || {
            TrainingCorpus::build(
                machine,
                &profiles,
                &plan.event_set,
                config.corpus_replicas,
                config.corpus_noise,
                &mut rng,
            )
        });
        let corpus = corpus.map_err(|e| e.to_string())?;
        out.corpus_samples += corpus.len();
        corpora.push(corpus);
    }

    for (bench, plan) in profiles.iter().zip(&plans) {
        let corpus = corpora
            .iter()
            .find(|c| c.event_set == plan.event_set)
            .expect("a corpus was built for every plan's event set");
        let training = corpus.excluding(bench.id);
        let predictor = tracer
            .span("annlib.train", || AnnPredictor::train(&training, &config.predictor, &mut rng))
            .map_err(|e| e.to_string())?;
        let sampled = tracer
            .span("predict.sample", || {
                bench
                    .phases
                    .iter()
                    .map(|phase| {
                        sample_phase(machine, phase, plan, config.measurement_noise, &mut rng)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let features: Vec<Vec<f64>> = sampled.iter().map(|r| r.features()).collect();
        let predictions = tracer
            .span("predict.infer", || predictor.predict_batch(&features))
            .map_err(|e| e.to_string())?;
        for (((phase, rates), preds), phase_features) in
            bench.phases.iter().zip(&sampled).zip(&predictions).zip(features)
        {
            let decision = select_configuration(rates.ipc(), preds);
            let observed: Vec<(Configuration, f64)> = tracer.span("xeon_sim.observe", || {
                Configuration::ALL
                    .iter()
                    .map(|&c| (c, machine.simulate_config(phase, c).aggregate_ipc))
                    .collect()
            });
            for &(target, predicted) in preds {
                let truth = observed.iter().find(|(c, _)| *c == target).expect("all simulated").1;
                out.pred_errors.push((predicted - truth).abs() / truth);
            }
            let best =
                observed.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("five configurations").0;
            out.rank1_hits += usize::from(best == decision.chosen);
            out.decisions.push(decision);
            phase_features_all.push(phase_features);
        }
    }

    // Pricing: one ladder-wide simulation per (phase, configuration), then
    // the per-phase knowledge the scheduler reads.
    let mut decided = out.decisions.iter().zip(phase_features_all);
    for bench in &profiles {
        for phase in &bench.phases {
            let ladders: Vec<_> = tracer.span("xeon_sim.price", || {
                Configuration::ALL
                    .iter()
                    .map(|&c| (c, machine.simulate_config_ladder(phase, c)))
                    .collect()
            });
            let (decision, features) = decided.next().expect("one decision per phase");
            let decision = decision.clone();
            tracer.span("profile.assemble", || {
                let mut executions = Vec::with_capacity(Configuration::ALL.len());
                let mut dvfs_executions = Vec::new();
                for (c, ladder) in ladders {
                    let mut steps = ladder.into_iter();
                    executions.push((c, steps.next().expect("ladders have a nominal step")));
                    dvfs_executions.extend(steps.enumerate().map(|(i, e)| ((c, i + 1), e)));
                }
                std::hint::black_box(PhaseKnowledge::new(
                    phase.name.clone(),
                    decision,
                    features,
                    executions,
                    dvfs_executions,
                ));
            });
        }
    }
    Ok(out)
}

/// Why a re-composed build differs from the reference model, if it does.
fn model_mismatch(trace: &ModelTrace, reference: &WorkloadModel, gen: &str) -> Option<String> {
    let expected: Vec<ThrottleDecision> = reference.decision_entries().map(|(_, d)| d).collect();
    (trace.decisions != expected).then(|| {
        format!(
            "generation {gen}: the re-composed build's {} decisions differ from \
             WorkloadModel::build's {}",
            trace.decisions.len(),
            expected.len()
        )
    })
}

/// A re-composed fleet build.
#[derive(Debug, Default)]
pub struct FleetTrace {
    /// The merged per-generation build traces.
    pub model: ModelTrace,
    /// Build time of each generation (s).
    pub gen_build_s: Vec<f64>,
    /// Generations whose re-composition did not reproduce the reference.
    pub mismatches: Vec<String>,
}

/// Re-composes `FleetModel::build(config, ids, mixes)`: one model build per
/// generation the mixes need (plus the reference `qx6600`), in registry
/// order, each checked against `reference`'s generation.
pub fn fleet_build(
    tracer: &mut Tracer,
    config: &ActorConfig,
    ids: &[BenchmarkId],
    mixes: &[MachineMix],
    reference: &FleetModel,
) -> Result<FleetTrace, String> {
    let needed: Vec<&str> = MACHINE_GEN_NAMES
        .iter()
        .copied()
        .filter(|g| *g == "qx6600" || mixes.iter().any(|m| m.pattern.iter().any(|p| p == g)))
        .collect();
    let mut out = FleetTrace::default();
    let names: Vec<&str> = reference.gens().iter().map(|g| g.name.as_str()).collect();
    if names != needed {
        out.mismatches.push(format!("fleet generations {names:?}, re-composed {needed:?}"));
        return Ok(out);
    }
    for (idx, name) in needed.iter().enumerate() {
        let started = Instant::now();
        let machine = Machine::by_gen_name(name).expect("names come from the registry");
        let trace = model_build(tracer, &machine, config, ids)?;
        out.gen_build_s.push(started.elapsed().as_secs_f64());
        out.mismatches.extend(model_mismatch(&trace, &reference.gen(idx).model, name));
        out.model.absorb(trace);
    }
    Ok(out)
}

/// The body of `cluster_sched::execute_cell`, with the policy wrapped so
/// every `assign` is timed.
fn cell(
    tracer: &mut Tracer,
    fleet: &FleetModel,
    spec: &SweepSpec,
    cell: &SweepCell,
) -> Result<ClusterReport, String> {
    let point = &cell.point;
    let built = Instant::now();
    let machines = mix_by_name(&point.machines).ok_or("unknown machine mix")?;
    let faults = fault_scenario_by_name(&point.faults).ok_or("unknown fault scenario")?;
    let arrivals = arrival_process_by_name(&point.arrivals).ok_or("unknown arrival process")?;
    let mut workload = (spec.workload)(point.nodes);
    workload.arrivals = arrivals;
    let cluster_spec = ClusterSpec {
        nodes: point.nodes,
        power_budget_w: budget_for_mix(
            point.nodes,
            &machines,
            spec.max_node_w,
            point.budget_fraction,
        ),
        machines,
        faults,
        workload,
        seed: point.seed,
    };
    let policy = policy_by_name_fleet(&point.policy, fleet).map_err(|e| e.to_string())?;
    tracer.record("policy.build", built);
    simulate_timed(tracer, &cluster_spec, fleet, policy)
}

/// `simulate_fleet` under a [`TimedPolicy`], as one `cluster.simulate`
/// span whose `assign` spans nest inside it.
pub fn simulate_timed(
    tracer: &mut Tracer,
    spec: &ClusterSpec,
    fleet: &FleetModel,
    policy: Box<dyn SchedulerPolicy>,
) -> Result<ClusterReport, String> {
    tracer.nested("cluster.simulate", |t| {
        let mut timed = TimedPolicy::new(policy, t);
        simulate_fleet(spec, fleet, &mut timed, None).map_err(|e| e.to_string())
    })
}

/// Re-runs every cell of `spec` on `jobs` threads, each cell through the
/// body of `execute_cell` under a [`TimedPolicy`]. Returns the reports in
/// cell order.
pub fn sweep(
    tracer: &mut Tracer,
    fleet: &FleetModel,
    spec: &SweepSpec,
    jobs: usize,
) -> Result<Vec<ClusterReport>, String> {
    let cells = spec.expand();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<ClusterReport, String>)>> = Mutex::new(Vec::new());
    let workers: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                let mut local = tracer.child();
                let (cells, next, results) = (&cells, &next, &results);
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(c) = cells.get(i) else { break };
                        let report = local.nested("sweep.cell", |t| cell(t, fleet, spec, c));
                        results
                            .lock()
                            .expect("no worker panics holding the lock")
                            .push((i, report));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced sweep worker panicked")).collect()
    });
    for w in workers {
        tracer.merge(w);
    }
    let mut results = results.into_inner().expect("workers joined");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}
