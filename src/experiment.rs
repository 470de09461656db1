//! The one front door for running experiments: [`ExperimentBuilder`].
//!
//! Every study in the workspace — scalability sweeps, the leave-one-out
//! prediction studies, the Figure-8 adaptation comparison, the cluster
//! power-cap simulation — needs the same ingredients wired together: a
//! machine model, a benchmark suite, an [`ActorConfig`] (with its seed), a
//! decision-making controller, an optional power budget and somewhere to
//! send the output. The builder assembles them once:
//!
//! ```no_run
//! use actor_suite::prelude::*;
//!
//! let mut exp = ExperimentBuilder::new()
//!     .machine(Machine::xeon_qx6600())
//!     .suite(nas_suite())
//!     .controller(ControllerSpec::Ann)
//!     .seed(0xAC7012)
//!     .reporter(Box::new(StdoutReporter))
//!     .run()
//!     .expect("valid experiment");
//! let study = exp.adaptation().expect("adaptation study");
//! exp.note(&format!(
//!     "ACTOR vs 4 cores, mean normalised ED2: {:.3}",
//!     study.average_normalised(Strategy::Prediction, Metric::Ed2)
//! ));
//! ```
//!
//! [`ExperimentBuilder::run`] validates the assembly and returns an
//! [`Experiment`]: a prepared context that runs each study on demand,
//! caching the expensive leave-one-out evaluation so the accuracy and
//! adaptation studies (and the paper-comparison summary) share one training
//! pass. All randomness derives from the configured seed — the same builder
//! inputs produce bit-identical studies, and the default path reproduces the
//! historical free-function results exactly
//! (`run_adaptation_study_seeded` et al.), which the deterministic-output
//! tests in `tests/experiment_builder.rs` assert.

use rand::rngs::StdRng;
use rand::SeedableRng;

use actor_core::adaptation::adaptation_with_controller;
use actor_core::controller::{
    JointSearchController, OracleController, PowerPerfController, StaticController,
};
use actor_core::evaluation::evaluate_benchmarks;
use actor_core::report::{NullReporter, Reporter, StdoutReporter, Table};
use actor_core::scalability::{
    phase_ipc_study, scalability_report, PhaseIpcRow, ScalabilityReport,
};
use actor_core::{
    AccuracyStudy, ActorConfig, ActorError, AdaptationStudy, BenchmarkEvaluation, Strategy,
};
use cluster_sched::{ClusterError, FleetModel, MachineMix};
use npb_workloads::{nas_suite, BenchmarkId, BenchmarkProfile};
use xeon_sim::{Configuration, Machine};

/// A factory building one [`PowerPerfController`] per evaluated benchmark
/// (the leave-one-out protocol trains one model per held-out application).
pub type ControllerFactory = Box<
    dyn FnMut(
        &Machine,
        &BenchmarkProfile,
        &BenchmarkEvaluation,
    ) -> Box<dyn PowerPerfController + Send>,
>;

/// Which decision-maker occupies the adaptive slot of the experiment.
///
/// Each variant builds a fresh [`PowerPerfController`] per evaluated
/// benchmark; [`ControllerSpec::Custom`] plugs in any controller at all.
#[non_exhaustive]
pub enum ControllerSpec {
    /// The paper's controller: the leave-one-out ANN ensembles' decisions.
    Ann,
    /// The phase-optimal oracle (ground-truth best per phase).
    PhaseOracle,
    /// A fixed configuration for every phase (e.g. the OS default,
    /// [`Configuration::Four`]).
    Static(Configuration),
    /// Model-free exploration of the joint (threads × frequency) space —
    /// pair with [`ExperimentBuilder::dvfs`] to actually offer the ladder.
    JointSearch,
    /// An arbitrary controller factory, called once per evaluated benchmark.
    Custom(ControllerFactory),
}

impl std::fmt::Debug for ControllerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerSpec::Ann => write!(f, "ControllerSpec::Ann"),
            ControllerSpec::PhaseOracle => write!(f, "ControllerSpec::PhaseOracle"),
            ControllerSpec::Static(c) => write!(f, "ControllerSpec::Static({c:?})"),
            ControllerSpec::JointSearch => write!(f, "ControllerSpec::JointSearch"),
            ControllerSpec::Custom(_) => write!(f, "ControllerSpec::Custom(..)"),
        }
    }
}

impl ControllerSpec {
    /// Builds the controller for one evaluated benchmark.
    fn build(
        &mut self,
        machine: &Machine,
        bench: &BenchmarkProfile,
        eval: &BenchmarkEvaluation,
    ) -> Box<dyn PowerPerfController + Send> {
        match self {
            ControllerSpec::Ann => Strategy::Prediction.controller(machine, bench, eval),
            ControllerSpec::PhaseOracle => {
                Box::new(OracleController::for_benchmark(machine, bench))
            }
            ControllerSpec::Static(config) => Box::new(StaticController::new(*config, "static")),
            ControllerSpec::JointSearch => Box::new(JointSearchController::default()),
            ControllerSpec::Custom(factory) => factory(machine, bench, eval),
        }
    }
}

/// Builder for an [`Experiment`]; see the [module docs](self) for the
/// 10-line tour.
///
/// Defaults: the paper's quad-core Xeon, the full NAS suite,
/// [`ActorConfig::default`], the ANN controller, no power budget, and a
/// [`StdoutReporter`].
pub struct ExperimentBuilder {
    machine: Machine,
    suite: Vec<BenchmarkProfile>,
    config: ActorConfig,
    controller: ControllerSpec,
    power_budget_w: Option<f64>,
    dvfs: bool,
    reporter: Box<dyn Reporter>,
    telemetry: Option<actor_core::telemetry::SharedSink>,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentBuilder {
    /// Starts from the defaults above.
    pub fn new() -> Self {
        Self {
            machine: Machine::xeon_qx6600(),
            suite: nas_suite(),
            config: ActorConfig::default(),
            controller: ControllerSpec::Ann,
            power_budget_w: None,
            dvfs: false,
            reporter: Box::new(StdoutReporter),
            telemetry: None,
        }
    }

    /// The machine model experiments run on.
    pub fn machine(mut self, machine: Machine) -> Self {
        self.machine = machine;
        self
    }

    /// The benchmark suite (at least two benchmarks, for leave-one-out
    /// training).
    pub fn suite(mut self, suite: Vec<BenchmarkProfile>) -> Self {
        self.suite = suite;
        self
    }

    /// The full pipeline configuration (training hyper-parameters, sampling
    /// budget, noise, seed).
    pub fn config(mut self, config: ActorConfig) -> Self {
        self.config = config;
        self
    }

    /// Seed for every randomised step (overrides the config's seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The controller occupying the adaptive slot.
    pub fn controller(mut self, controller: ControllerSpec) -> Self {
        self.controller = controller;
        self
    }

    /// A per-phase average-power cap (W) the adaptive controller must
    /// respect (the oracle/static reference bars stay uncapped).
    pub fn power_budget_w(mut self, budget_w: f64) -> Self {
        self.power_budget_w = Some(budget_w);
        self
    }

    /// Offers the machine's voltage/frequency ladder to the adaptive
    /// controller, widening its decision space to (threads × frequency).
    /// The reference bars stay at nominal frequency, and `false` (the
    /// default) reproduces the concurrency-only studies bit-for-bit.
    pub fn dvfs(mut self, enabled: bool) -> Self {
        self.dvfs = enabled;
        self
    }

    /// Where tables, notes and artefacts go.
    pub fn reporter(mut self, reporter: Box<dyn Reporter>) -> Self {
        self.reporter = reporter;
        self
    }

    /// Attaches a telemetry sink: live runtimes built by this experiment
    /// trace every validated controller decision through it, and cluster
    /// bins can share the same sink with their sweeps (see
    /// [`Experiment::telemetry_sink`]). Default: off — no trace records,
    /// no timestamps, byte-identical outputs.
    pub fn telemetry(mut self, sink: actor_core::telemetry::SharedSink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Validates the assembly and returns the ready-to-run experiment.
    pub fn run(self) -> Result<Experiment, ActorError> {
        self.config.validate()?;
        if self.suite.len() < 2 {
            return Err(ActorError::InvalidConfig {
                reason: format!(
                    "an experiment suite needs at least two benchmarks for leave-one-out \
                     training, got {}",
                    self.suite.len()
                ),
            });
        }
        if let Some(b) = self.power_budget_w {
            if !(b.is_finite() && b > 0.0) {
                return Err(ActorError::InvalidConfig {
                    reason: format!("power_budget_w must be positive and finite, got {b}"),
                });
            }
        }
        Ok(Experiment {
            machine: self.machine,
            suite: self.suite,
            config: self.config,
            controller: self.controller,
            power_budget_w: self.power_budget_w,
            dvfs: self.dvfs,
            reporter: self.reporter,
            telemetry: self.telemetry,
            evaluations: None,
            scalability: None,
        })
    }
}

/// A validated experiment context: runs studies on demand, caches the
/// expensive leave-one-out evaluation, and routes output through the
/// configured [`Reporter`].
pub struct Experiment {
    machine: Machine,
    suite: Vec<BenchmarkProfile>,
    config: ActorConfig,
    controller: ControllerSpec,
    power_budget_w: Option<f64>,
    dvfs: bool,
    reporter: Box<dyn Reporter>,
    telemetry: Option<actor_core::telemetry::SharedSink>,
    evaluations: Option<Vec<BenchmarkEvaluation>>,
    scalability: Option<ScalabilityReport>,
}

impl Experiment {
    /// The machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The benchmark suite.
    pub fn suite(&self) -> &[BenchmarkProfile] {
        &self.suite
    }

    /// The pipeline configuration (including the effective seed).
    pub fn config(&self) -> &ActorConfig {
        &self.config
    }

    /// The scalability report (Figures 1–3); cheap, no training. Cached.
    pub fn scalability(&mut self) -> &ScalabilityReport {
        if self.scalability.is_none() {
            self.scalability = Some(scalability_report(&self.machine));
        }
        self.scalability.as_ref().expect("just computed")
    }

    /// Per-phase IPC of one benchmark on every configuration (Figure 2).
    pub fn phase_ipc(&self, id: BenchmarkId) -> Vec<PhaseIpcRow> {
        phase_ipc_study(&self.machine, id)
    }

    /// The leave-one-out evaluations behind the prediction and adaptation
    /// studies. Computed once with a seed-derived RNG and cached, so every
    /// dependent study shares one training pass.
    pub fn evaluations(&mut self) -> Result<&[BenchmarkEvaluation], ActorError> {
        if self.evaluations.is_none() {
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            self.evaluations =
                Some(evaluate_benchmarks(&self.machine, &self.config, &self.suite, &mut rng)?);
        }
        Ok(self.evaluations.as_deref().expect("just computed"))
    }

    /// The prediction-accuracy study (Figures 6 and 7).
    pub fn accuracy(&mut self) -> Result<AccuracyStudy, ActorError> {
        Ok(AccuracyStudy::from_evaluations(self.evaluations()?))
    }

    /// The Figure-8 adaptation study with the configured controller in the
    /// adaptive slot, constrained by the configured power budget if any.
    pub fn adaptation(&mut self) -> Result<AdaptationStudy, ActorError> {
        self.evaluations()?;
        let evaluations = self.evaluations.as_deref().expect("just computed");
        let controller = &mut self.controller;
        adaptation_with_controller(
            &self.machine,
            &self.config,
            &self.suite,
            evaluations,
            &mut |m, b, e| controller.build(m, b, e),
            self.power_budget_w,
            self.dvfs,
        )
    }

    /// The cluster scheduler's fleet model over this experiment's suite and
    /// configuration: one workload model per machine generation `mixes`
    /// name, plus the reference `qx6600` (for driving
    /// `cluster_sched::simulate_fleet` and `cluster_sched::run_sweep_fleet`).
    ///
    /// The cluster simulation instantiates quad-core Xeon nodes, so this
    /// refuses a builder machine with any other topology rather than
    /// silently mixing machine models (generalising the node machine is a
    /// ROADMAP item).
    pub fn fleet_model(&self, mixes: &[MachineMix]) -> Result<FleetModel, ClusterError> {
        let quad = xeon_sim::Topology::quad_core_xeon();
        if *self.machine.topology() != quad {
            return Err(ClusterError::InvalidSpec {
                reason: format!(
                    "cluster nodes are quad-core Xeons; a workload model built on a \
                     {}-core machine would not match the nodes executing it",
                    self.machine.topology().num_cores
                ),
            });
        }
        let ids: Vec<BenchmarkId> = self.suite.iter().map(|b| b.id).collect();
        FleetModel::build(&self.config, &ids, mixes)
    }

    /// Builds a live [`actor_core::ActorRuntime`] in
    /// [`actor_core::ThrottleMode::Controller`] mode for one benchmark: the
    /// configured [`ControllerSpec`] builds the controller from that
    /// benchmark's cached leave-one-out evaluation, and the returned
    /// listener drives real `phase-rt` regions through the shared control
    /// plane — observing every execution, deciding every next one, under
    /// the experiment's power budget when one is configured. Attach
    /// it with `team.set_listener`, optionally after
    /// [`actor_core::ActorRuntime::with_counter_sampler`] for online
    /// counter-derived features.
    pub fn live_runtime_for(
        &mut self,
        id: BenchmarkId,
        shape: &phase_rt::MachineShape,
    ) -> Result<actor_core::ActorRuntime, ActorError> {
        self.evaluations()?;
        let evaluations = self.evaluations.as_deref().expect("just computed");
        let eval =
            evaluations.iter().find(|e| e.id == id).ok_or_else(|| ActorError::InvalidConfig {
                reason: format!("benchmark {id} is not part of this experiment's suite"),
            })?;
        let bench =
            self.suite.iter().find(|b| b.id == id).expect("evaluations cover the suite exactly");
        let controller = self.controller.build(&self.machine, bench, eval);
        let mut runtime = actor_core::ActorRuntime::controller_driven(controller, shape);
        // The facade's cap gates the live loop exactly like the adaptation
        // studies: the controller sees it in every DecisionCtx.
        if let Some(budget_w) = self.power_budget_w {
            runtime = runtime.with_power_cap(budget_w);
        }
        if let Some(sink) = &self.telemetry {
            runtime = runtime.with_telemetry(sink.clone());
        }
        Ok(runtime)
    }

    /// The attached telemetry sink, if any — cluster bins clone it into
    /// their sweeps (`run_sweep_fleet`) so one `--trace` flag covers both
    /// the live runtimes and the cluster event loops.
    pub fn telemetry_sink(&self) -> Option<actor_core::telemetry::SharedSink> {
        self.telemetry.clone()
    }

    /// Swaps the controller occupying the adaptive slot. The cached
    /// leave-one-out evaluations survive, so comparing several controllers
    /// (or DVFS settings) trains the ANN ensembles once — see the
    /// `fig_dvfs_dct` binary.
    pub fn set_controller(&mut self, controller: ControllerSpec) {
        self.controller = controller;
    }

    /// Toggles the frequency axis for subsequent adaptation studies; cached
    /// evaluations survive.
    pub fn set_dvfs(&mut self, enabled: bool) {
        self.dvfs = enabled;
    }

    /// Reports one named table through the configured reporter.
    pub fn emit(&mut self, name: &str, heading: &str, table: &Table) {
        self.reporter.table(name, heading, table);
    }

    /// Reports one free-form line.
    pub fn note(&mut self, line: &str) {
        self.reporter.note(line);
    }

    /// Reports a named file artefact (`filename` includes the extension).
    pub fn artifact(&mut self, filename: &str, contents: &str) {
        self.reporter.artifact(filename, contents);
    }

    /// Discards all further output.
    pub fn silence(&mut self) {
        self.reporter = Box::new(NullReporter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_builder() -> ExperimentBuilder {
        let benchmarks = [BenchmarkId::Bt, BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg]
            .map(npb_workloads::benchmark);
        ExperimentBuilder::new()
            .config(ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() })
            .suite(benchmarks.to_vec())
            .reporter(Box::new(NullReporter))
    }

    #[test]
    fn builder_validates_inputs() {
        let one_bench =
            ExperimentBuilder::new().suite(vec![npb_workloads::benchmark(BenchmarkId::Cg)]).run();
        assert!(one_bench.is_err(), "a one-benchmark suite cannot train leave-one-out");

        let bad_budget = fast_builder().power_budget_w(-5.0).run();
        assert!(bad_budget.is_err(), "negative power budgets are invalid");

        let bad_config = ExperimentBuilder::new()
            .config(ActorConfig { sampling_budget: 0.0, ..ActorConfig::default() })
            .run();
        assert!(bad_config.is_err(), "config validation runs at build time");
    }

    #[test]
    fn seed_overrides_config_seed() {
        let exp = fast_builder().seed(42).run().unwrap();
        assert_eq!(exp.config().seed, 42);
    }

    #[test]
    fn scalability_is_cached_and_suite_scoped_studies_run() {
        let mut exp = fast_builder().run().unwrap();
        let n = exp.scalability().rows.len();
        assert_eq!(n, 8, "scalability always covers the full NPB table");
        assert!(!exp.phase_ipc(BenchmarkId::Sp).is_empty());
    }
}
