//! Every `PowerPerfController` implementation shipped by this crate must
//! pass the shared conformance suite: decisions stay inside the machine's
//! configuration space, identically-constructed controllers produce
//! identical decision traces, and deciding never substitutes for observing
//! (probing `decide` early neither changes later decisions nor consumes
//! exploration budget).

use rand::rngs::StdRng;
use rand::SeedableRng;

use actor_core::baselines::LinearRegressionPredictor;
use actor_core::conformance::{assert_controller_conformance, ConformanceOptions};
use actor_core::controller::{
    AnnController, DecisionTableController, JointSearchController, OracleController,
    PowerPerfController, PredictorController, StaticController,
};
use actor_core::predictor::AnnPredictor;
use actor_core::throttle::select_configuration;
use actor_core::{ActorConfig, TrainingCorpus};
use hwcounters::EventSet;
use npb_workloads::{suite, BenchmarkId};
use phase_rt::PhaseId;
use xeon_sim::{Configuration, Machine};

fn corpus() -> TrainingCorpus {
    let machine = Machine::xeon_qx6600();
    let benches = vec![
        suite::benchmark(BenchmarkId::Cg),
        suite::benchmark(BenchmarkId::Is),
        suite::benchmark(BenchmarkId::Bt),
    ];
    let mut rng = StdRng::seed_from_u64(3);
    TrainingCorpus::build(&machine, &benches, &EventSet::full(), 3, 0.05, &mut rng).unwrap()
}

#[test]
fn ann_controller_conforms() {
    // One trained model, cloned per conformance instance: identical
    // construction, as the determinism check requires.
    let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
    let mut rng = StdRng::seed_from_u64(7);
    let corpus = corpus();
    let feature_dim = corpus.samples[0].features.len();
    let predictor = AnnPredictor::train(&corpus, &config.predictor, &mut rng).unwrap();
    assert_controller_conformance(
        || Box::new(AnnController::ann(predictor.clone())),
        &ConformanceOptions::cap_aware().with_feature_dim(feature_dim),
    );
}

#[test]
fn regression_controller_conforms() {
    let corpus = corpus();
    let feature_dim = corpus.samples[0].features.len();
    let regression = LinearRegressionPredictor::train(&corpus, 1e-3).unwrap();
    assert_controller_conformance(
        || Box::new(PredictorController::new(regression.clone(), "regression")),
        &ConformanceOptions::cap_aware().with_feature_dim(feature_dim),
    );
}

#[test]
fn oracle_controller_conforms() {
    let machine = Machine::xeon_qx6600();
    let bench = suite::benchmark(BenchmarkId::Sp);
    assert_controller_conformance(
        || Box::new(OracleController::for_benchmark(&machine, &bench)),
        &ConformanceOptions::default(),
    );
}

#[test]
fn static_baselines_conform() {
    assert_controller_conformance(
        || Box::new(StaticController::os_default()),
        &ConformanceOptions::default(),
    );
    assert_controller_conformance(
        || Box::new(StaticController::new(Configuration::TwoLoose, "static-2b")),
        &ConformanceOptions::default(),
    );
}

#[test]
fn joint_search_controller_conforms() {
    // The joint (threads × frequency) search is cap-aware: it excludes
    // over-cap cells from exploration, so the harness may hold it to the
    // power-cap contract on both the nominal and the DVFS script.
    assert_controller_conformance(
        || Box::new(JointSearchController::default()),
        &ConformanceOptions::cap_aware(),
    );
}

#[test]
fn decision_table_controller_conforms() {
    let machine = Machine::xeon_qx6600();
    let bench = suite::benchmark(BenchmarkId::Is);
    assert_controller_conformance(
        || {
            let entries = bench.phases.iter().enumerate().map(|(i, phase)| {
                let preds: Vec<_> = Configuration::TARGETS
                    .iter()
                    .map(|&c| (c, machine.simulate_config(phase, c).aggregate_ipc))
                    .collect();
                let sampled = machine.simulate_config(phase, Configuration::SAMPLE).aggregate_ipc;
                (PhaseId::new(i as u32), select_configuration(sampled, &preds))
            });
            Box::new(DecisionTableController::new(entries)) as Box<dyn PowerPerfController>
        },
        &ConformanceOptions::cap_aware(),
    );
}
