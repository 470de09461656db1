//! # actor-core — ACTOR: Adaptive Concurrency Throttling Optimization Runtime
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Identifying Energy-Efficient Concurrency Levels Using Machine Learning"*
//! (Curtis-Maury et al., 2007): a runtime system that dynamically throttles
//! the concurrency (thread count + placement) of each program *phase* to the
//! level with the highest predicted efficiency, using artificial neural
//! networks trained offline on hardware performance-counter event rates.
//!
//! The pipeline, mirroring Section IV of the paper:
//!
//! 1. **Offline training** ([`corpus`], [`predictor`]) — run training
//!    applications on every configuration, record counter event rates on the
//!    maximal-concurrency *sampling configuration* and the achieved IPC on
//!    every *target configuration*, and train one cross-validation ANN
//!    ensemble per target configuration (Equation 2).
//! 2. **Online sampling** ([`sampling`]) — at program start, ACTOR samples a
//!    few timesteps at maximal concurrency, rotating the monitored events
//!    through the two available counter registers, spending at most 20 % of
//!    the execution on sampling.
//! 3. **Prediction & throttling** ([`throttle`]) — for each phase, the ANN
//!    ensembles predict the IPC of every alternative configuration from the
//!    sampled event rates; the configuration with the highest (predicted or
//!    observed) IPC is enforced for all subsequent executions of the phase.
//! 4. **Evaluation** ([`scalability`], [`accuracy`], [`adaptation`],
//!    [`summary`]) — drivers regenerating every figure of the paper:
//!    execution time / power / energy per configuration (Figures 1–3),
//!    prediction-error CDF (Figure 6), rank-selection accuracy (Figure 7) and
//!    the adaptation comparison against oracle strategies (Figure 8).
//!
//! Baselines from the paper's related work — multiple linear regression \[3\]
//! and online empirical search \[17\] — are provided in [`baselines`], and a
//! live [`phase_rt::RegionListener`] implementation for running ACTOR against
//! real kernels is in [`runtime`].
//!
//! All of these decision-makers speak one language: the
//! [`controller::PowerPerfController`] trait (observe hardware samples per
//! phase, decide a typed binding + frequency actuation). The ANN predictor,
//! the oracles, the static baselines and empirical search implement it, the
//! [`conformance`] harness checks any implementation against the shared
//! contract, and every consumer — the Figure-8 harness, the live runtime
//! ([`runtime::ThrottleMode::Controller`] with online counter sampling) and
//! the cluster scheduler — drives any implementation through one shared
//! cycle, the [`control_plane::ControlPlane`] (observe-once bookkeeping,
//! context assembly, loud decision validation).

pub mod accuracy;
pub mod adaptation;
pub mod baselines;
pub mod config;
pub mod conformance;
pub mod control_plane;
pub mod controller;
pub mod corpus;
pub mod error;
pub mod evaluation;
pub mod oracle;
pub mod predictor;
pub mod report;
pub mod runtime;
pub mod sampling;
pub mod scalability;
pub mod summary;
pub mod telemetry;
pub mod throttle;

pub use accuracy::{run_accuracy_study, AccuracyStudy, PredictionRecord};
pub use adaptation::{
    adaptation_with_controller, run_adaptation_study, run_adaptation_study_seeded, AdaptationStudy,
    BenchmarkAdaptation, Metric, Strategy, StrategyOutcome,
};
pub use baselines::LinearRegressionPredictor;
pub use config::{ActorConfig, PredictorConfig};
pub use conformance::{assert_controller_conformance, ConformanceOptions};
pub use control_plane::{ControlPlane, ControlViolation, PlaneDecision};
pub use controller::{
    binding_for, configuration_of, frequency_scaled_ipc, frequency_throughput_scale, shape_of,
    validate_decision, validate_decision_with, AnnController, CandidatePerf, ConfigurationMap,
    Decision, DecisionCtx, DecisionTableController, DvfsSpace, EmpiricalSearchController,
    InternedJointPolicy, JointPerf, JointSearchController, OracleController, PhaseSample,
    PowerPerfController, PredictorController, Rationale, StaticController,
};
pub use corpus::{TrainingCorpus, TrainingSample};
pub use error::ActorError;
pub use evaluation::{
    evaluate_benchmarks, leave_one_out_evaluation, BenchmarkEvaluation, PhaseEvaluation,
};
pub use oracle::{global_optimal, phase_optimal};
pub use predictor::{AnnPredictor, IpcPredictor};
pub use report::{NullReporter, Reporter, StdoutReporter, StreamingReporter, Table};
pub use runtime::{ActorRuntime, BackendSampler, CounterSampler, CounterWindow, ThrottleMode};
pub use sampling::{sample_phase, SamplingPlan};
pub use scalability::{phase_ipc_study, scalability_report, PhaseIpcRow, ScalabilityReport};
pub use summary::{paper_comparison, HeadlineNumbers};
pub use telemetry::{
    FanoutSink, Histogram, HistogramSnapshot, JsonlSink, MemorySink, MetricsRegistry, NullSink,
    RingSink, SharedSink, SpanContext, SpanSink, SpannedEvent, TelemetrySink, TraceEvent,
};
pub use throttle::{select_configuration, ThrottleDecision};

/// Convenient glob import.
pub mod prelude {
    pub use crate::accuracy::{run_accuracy_study, AccuracyStudy};
    pub use crate::adaptation::{run_adaptation_study, AdaptationStudy, Strategy};
    pub use crate::config::{ActorConfig, PredictorConfig};
    pub use crate::control_plane::{ControlPlane, PlaneDecision};
    pub use crate::controller::{
        AnnController, Decision, DecisionCtx, DvfsSpace, JointSearchController, PhaseSample,
        PowerPerfController,
    };
    pub use crate::corpus::TrainingCorpus;
    pub use crate::error::ActorError;
    pub use crate::predictor::{AnnPredictor, IpcPredictor};
    pub use crate::report::{Reporter, Table};
    pub use crate::runtime::{ActorRuntime, ThrottleMode};
    pub use crate::scalability::scalability_report;
    pub use crate::summary::paper_comparison;
    pub use crate::telemetry::{
        JsonlSink, MemorySink, MetricsRegistry, NullSink, RingSink, SharedSink, SpanContext,
        SpanSink, SpannedEvent, TelemetrySink, TraceEvent,
    };
    pub use crate::throttle::select_configuration;
}
