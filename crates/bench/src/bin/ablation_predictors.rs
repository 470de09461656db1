//! Ablation: ANN ensemble vs multiple linear regression vs empirical search.
//!
//! Section IV-B of the paper argues that the ANN approach keeps the low
//! online overhead of regression-based prediction while avoiding its
//! hand-tuned model derivation, and avoids the exploration cost of online
//! search. All three approaches are `PowerPerfController`s here — the ANN
//! and the regression share the `PredictorController` control path with only
//! the model swapped, and empirical search is the model-free
//! `JointSearchController` offered no frequency ladder — so this binary is
//! also a demonstration that decision-makers are drop-in interchangeable
//! behind the trait. For every phase of every benchmark it reports the
//! chosen configuration's true rank and the time lost relative to the
//! phase-optimal choice.
//!
//! Pass `--fast` for the reduced training configuration.

use rand::rngs::StdRng;
use rand::SeedableRng;

use actor_bench::Harness;
use actor_core::baselines::LinearRegressionPredictor;
use actor_core::controller::{
    shape_of, CandidatePerf, DecisionCtx, JointSearchController, PhaseSample, PowerPerfController,
    PredictorController, Rationale,
};
use actor_core::predictor::AnnPredictor;
use actor_core::report::{fmt3, fmt_pct, Table};
use actor_core::sampling::{sample_phase, SamplingPlan};
use actor_core::TrainingCorpus;
use phase_rt::PhaseId;
use xeon_sim::Configuration;

struct ApproachStats {
    name: &'static str,
    best_rank_hits: usize,
    total_phases: usize,
    time_loss_vs_optimal: f64,
    exploration_instances: usize,
}

impl ApproachStats {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            best_rank_hits: 0,
            total_phases: 0,
            time_loss_vs_optimal: 0.0,
            exploration_instances: 0,
        }
    }
}

fn main() {
    let harness = Harness::from_env();
    let mut exp = harness.experiment();
    let config = exp.config().clone();
    let machine = exp.machine().clone();
    let shape = shape_of(&machine);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let benchmarks = exp.suite().to_vec();

    eprintln!("building corpora and training models (use --fast for a quicker run)...");
    let mut stats = vec![
        ApproachStats::new("ANN ensemble"),
        ApproachStats::new("Linear regression"),
        ApproachStats::new("Empirical search"),
    ];

    for bench in &benchmarks {
        let plan = SamplingPlan::for_benchmark(bench, &config).expect("plan");
        let others: Vec<_> = benchmarks.iter().filter(|b| b.id != bench.id).cloned().collect();
        let corpus = TrainingCorpus::build(
            &machine,
            &others,
            &plan.event_set,
            config.corpus_replicas,
            config.corpus_noise,
            &mut rng,
        )
        .expect("corpus");
        let ann = AnnPredictor::train(&corpus, &config.predictor, &mut rng).expect("ann");
        let regression = LinearRegressionPredictor::train(&corpus, 1e-3).expect("regression");
        // The same control path for both models — only the predictor swaps.
        let mut controllers: [Box<dyn PowerPerfController>; 2] = [
            Box::new(PredictorController::new(ann, "ann")),
            Box::new(PredictorController::new(regression, "regression")),
        ];

        for (phase_idx, phase) in bench.phases.iter().enumerate() {
            let pid = PhaseId::new(phase_idx as u32);
            // Ground truth.
            let times: Vec<(Configuration, f64)> = Configuration::ALL
                .iter()
                .map(|&c| (c, machine.simulate_config(phase, c).time_s))
                .collect();
            let best_time = times.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
            let best_config = times.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().0;
            let time_of = |c: Configuration| times.iter().find(|(cc, _)| *cc == c).unwrap().1;
            let candidates = CandidatePerf::all_unknown();

            // Shared sample: one sampling window at maximal concurrency.
            let rates = sample_phase(&machine, phase, &plan, config.measurement_noise, &mut rng)
                .expect("sampling");
            let sample = PhaseSample::sampling(
                rates.features(),
                rates.ipc(),
                time_of(Configuration::SAMPLE),
            );

            // Prediction-based controllers: observe the sample, decide once.
            for (idx, controller) in controllers.iter_mut().enumerate() {
                controller.observe(pid, &sample);
                let ctx = DecisionCtx::unconstrained(pid, &shape, &candidates);
                let decision = controller.decide(&ctx);
                // A Static rationale here means the model never ran (feature
                // mismatch or missing sample) — the ablation numbers would be
                // meaningless, so fail loudly instead of charting fallbacks.
                assert!(
                    !matches!(decision.rationale, Rationale::Static { .. }),
                    "{} fell back instead of predicting ({:?}) on {} {}",
                    controller.name(),
                    decision.rationale,
                    bench.id,
                    phase.name,
                );
                let chosen = decision.configuration(&shape).expect("paper configuration");
                stats[idx].total_phases += 1;
                if chosen == best_config {
                    stats[idx].best_rank_hits += 1;
                }
                stats[idx].time_loss_vs_optimal += time_of(chosen) / best_time - 1.0;
            }

            // Empirical search: decides, measures, repeats — it always finds
            // the best configuration, but pays one execution of every
            // candidate to do so.
            let mut search = JointSearchController::default();
            for _ in 0..Configuration::ALL.len() {
                let ctx = DecisionCtx::unconstrained(pid, &shape, &candidates);
                let probe = search.decide(&ctx).configuration(&shape).expect("paper configuration");
                search.observe(pid, &PhaseSample::measurement(probe, time_of(probe)));
                stats[2].exploration_instances += 1;
            }
            let ctx = DecisionCtx::unconstrained(pid, &shape, &candidates);
            let locked = search.decide(&ctx).configuration(&shape).expect("paper configuration");
            stats[2].total_phases += 1;
            if locked == best_config {
                stats[2].best_rank_hits += 1;
            }
            stats[2].time_loss_vs_optimal += time_of(locked) / best_time - 1.0;
        }
    }

    let mut table = Table::new(vec![
        "approach",
        "best config chosen",
        "mean time loss vs phase-optimal",
        "exploration cost (phase executions)",
    ]);
    for s in &stats {
        table.push_row(vec![
            s.name.to_string(),
            fmt_pct(s.best_rank_hits as f64 / s.total_phases.max(1) as f64),
            fmt_pct(s.time_loss_vs_optimal / s.total_phases.max(1) as f64),
            fmt3(s.exploration_instances as f64),
        ]);
    }
    exp.emit(
        "ablation_predictors",
        "Ablation: ANN vs linear regression vs empirical search",
        &table,
    );
}
