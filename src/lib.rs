//! # actor-suite — umbrella crate for the ACTOR reproduction
//!
//! This crate ties the workspace together for the runnable examples and the
//! cross-crate integration tests. The actual functionality lives in the
//! member crates, re-exported here under short names:
//!
//! * [`sim`] (`xeon-sim`) — the quad-core Xeon machine model (caches, FSB,
//!   DRAM, power) and phase profiles;
//! * [`counters`] (`hwcounters`) — hardware-event sets, register multiplexing
//!   and event-rate feature vectors;
//! * [`rt`] (`phase-rt`) — the fork-join phase runtime (teams, bindings,
//!   schedulers, listeners);
//! * [`ml`] (`annlib`) — feed-forward neural networks, backpropagation,
//!   cross-validation ensembles;
//! * [`workloads`] (`npb-workloads`) — NPB phase profiles and live kernels;
//! * [`actor`] (`actor-core`) — ACTOR itself: corpus building, ANN training,
//!   sampling, throttling, oracles, baselines and the evaluation studies;
//! * [`cluster`] (`cluster-sched`) — the multi-node extension: a simulated
//!   cluster of Xeon nodes scheduling NPB jobs under a shared power budget,
//!   with an ANN-driven power-aware policy;
//! * [`rpc`] (`cluster-rpc`) — the transport-agnostic wire protocol for
//!   distributed sweeps: length-prefixed, version-handshaked frames over
//!   Unix-domain sockets or in-memory duplexes;
//! * [`daemon`] (`cluster-daemon`) — the distributed sweep service: a
//!   daemon that owns the grid and dispatches cells to worker processes
//!   with heartbeat liveness and reassignment on death, plus the worker
//!   loop and local process-spawning orchestration (`--processes N`).
//!
//! Two unifying abstractions tie the pieces into one system:
//!
//! * [`actor::controller::PowerPerfController`] — the single decision loop
//!   (observe per-phase hardware samples → decide a typed binding +
//!   frequency actuation) that the ANN predictor, the oracles, the static
//!   baselines and the cluster's power-aware policy all implement or
//!   consume;
//! * [`experiment::ExperimentBuilder`] — the one front door for running
//!   studies: machine, suite, controller, seed, power budget and reporter in
//!   one builder, replacing per-binary ad-hoc wiring.
//!
//! See `examples/quickstart.rs` for the fastest path from nothing to a
//! throttling decision, and the `actor-bench` crate for the binaries that
//! regenerate every figure of the paper.

pub mod experiment;

pub use actor_core as actor;
pub use annlib as ml;
pub use cluster_daemon as daemon;
pub use cluster_rpc as rpc;
pub use cluster_sched as cluster;
pub use hwcounters as counters;
pub use npb_workloads as workloads;
pub use phase_rt as rt;
pub use xeon_sim as sim;

pub use experiment::{ControllerFactory, ControllerSpec, Experiment, ExperimentBuilder};

/// The blessed public surface, re-exported flat: everything a typical
/// experiment — single-node or cluster — needs in one import.
///
/// ```no_run
/// use actor_suite::prelude::*;
///
/// let mut exp = ExperimentBuilder::new().seed(7).run().expect("experiment");
/// let study = exp.adaptation().expect("study");
/// assert!(study.average_normalised(Strategy::Prediction, Metric::Ed2) < 1.0);
/// ```
pub mod prelude {
    pub use crate::experiment::{ControllerFactory, ControllerSpec, Experiment, ExperimentBuilder};

    pub use actor_core::controller::{
        binding_for, configuration_of, frequency_scaled_ipc, frequency_throughput_scale, shape_of,
        AnnController, CandidatePerf, Decision, DecisionCtx, DecisionTableController, DvfsSpace,
        JointPerf, JointSearchController, OracleController, PhaseSample, PowerPerfController,
        PredictorController, Rationale, StaticController,
    };
    pub use actor_core::report::{fmt3, fmt_pct};
    pub use actor_core::telemetry::{
        FanoutSink, HistogramSnapshot, JsonlSink, MemorySink, MetricsRegistry, NullSink, RingSink,
        SharedSink, SpanContext, SpanSink, SpannedEvent, TelemetrySink, TraceEvent,
    };
    pub use actor_core::{
        assert_controller_conformance, ActorConfig, ActorError, AdaptationStudy,
        ConformanceOptions, Metric, NullReporter, Reporter, StdoutReporter, Strategy, Table,
    };
    pub use cluster_daemon::{
        run_distributed, run_worker, serve, DaemonConfig, DaemonError, DistRun,
        ProcessSweepOptions, WorkerError,
    };
    pub use cluster_rpc::{duplex, Connection, Message, RpcError, SweepContext};
    pub use cluster_sched::{
        budget_from_fraction, cluster_summary_table, job_table, policy_by_name_fleet,
        run_sweep_fleet, simulate_fleet, workload_shape_by_name, ClusterReport, ClusterSpec,
        FleetModel, MachineMix, PowerAwarePolicy, SchedulerPolicy, SweepCell, SweepCellOutcome,
        SweepError, SweepPoint, SweepRun, SweepSpec, WorkloadModel, WorkloadSpec, POLICY_NAMES,
        WORKLOAD_SHAPE_NAMES,
    };
    pub use npb_workloads::{benchmark, nas_suite, BenchmarkId, BenchmarkProfile};
    pub use phase_rt::{Binding, FreqStep, MachineShape, PhaseId};
    pub use xeon_sim::{Configuration, FreqLadder, FreqPoint, Machine};
}

/// The workspace version (all member crates share it).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
