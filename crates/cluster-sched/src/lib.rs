//! # cluster-sched — multi-node job scheduling under a cluster-wide power
//! budget, driven by ACTOR's ANN predictors
//!
//! The paper ("Identifying Energy-Efficient Concurrency Levels Using Machine
//! Learning", Curtis-Maury et al., IEEE Cluster 2007) evaluates
//! prediction-based concurrency throttling on a single quad-core Xeon. This
//! crate scales the idea out: a cluster of N simulated Xeon nodes executes a
//! queue of NPB jobs under one shared power envelope, and a power-aware
//! scheduling policy uses the existing [`actor_core::AnnPredictor`] ensembles
//! to pick, per job phase, the concurrency configuration with the highest
//! predicted throughput that still fits the remaining power headroom.
//!
//! The pieces:
//!
//! * [`node::Node`] — one cluster node: its idle floor, health, slowdown,
//!   the running job's id with the node's peak draw, and its energy ledger.
//! * [`job`] — [`job::Job`], [`job::JobOutcome`] and seeded workload
//!   generation from [`npb_workloads::suite`] (Poisson arrivals, priorities,
//!   deadlines, per-job problem scaling).
//! * [`profile::WorkloadModel`] — the scheduler's oracle, built once from
//!   ACTOR's leave-one-out evaluation pipeline: per phase, the ANN throttle
//!   decision plus machine-model time/power/energy for every configuration.
//!   A [`fleet::FleetModel`] holds one per machine generation; it is the
//!   model every simulation, policy and sweep takes, a uniform cluster
//!   being a one-generation fleet.
//! * [`policy`] — the [`policy::SchedulerPolicy`] trait and the built-ins:
//!   strict FCFS, EASY backfill, and the power-aware pair, which run the
//!   fleet's ANN decision table ([`actor_core::DecisionTableController`])
//!   through a control plane; [`coordinator`] adds the coordinated policy.
//!   Every built-in prices queued jobs from the models' per-benchmark cap
//!   tables and plans only the jobs it starts. New policies are one file
//!   each.
//! * [`cluster`] — the discrete-event loop (one record per running gang),
//!   cap enforcement, and [`cluster::ClusterReport`]; [`tables`] renders
//!   per-job and cluster-level reports as [`actor_core::report::Table`]s.
//! * [`sweep`] — the parallel sweep engine: a [`sweep::SweepSpec`] grid
//!   (nodes × budgets × policies × seeds, plus explicit cells) expanded
//!   into independent cells and executed concurrently on scoped worker
//!   threads against one `Arc`-shared fleet model, with deterministic
//!   cell-ordered results. Its cell boundary ([`sweep::run_cell`]), per-cell
//!   trace record and panic text are public, so the distributed daemon and
//!   workers run and report cells the same way.

pub mod cluster;
pub mod coordinator;
pub mod error;
pub mod fleet;
pub mod job;
pub mod node;
pub mod policy;
pub mod profile;
pub mod scenario;
pub mod sweep;
pub mod tables;

pub use cluster::{budget_from_fraction, simulate_fleet, Cluster, ClusterReport, ClusterSpec};
pub use coordinator::{validate_caps, CapCoordinator, CoordinatedPowerPolicy, JobCap};
pub use error::{ClusterError, SchedError};
pub use fleet::{
    budget_for_mix, mix_by_name, FleetGen, FleetModel, MachineMix, GEN_PHASE_ID_STRIDE,
    MACHINE_MIX_NAMES,
};
pub use job::{ArrivalProcess, Job, JobOutcome, TenantSpec, WorkloadSpec};
pub use node::Node;
pub use policy::{
    policy_by_name_fleet, Assignment, BackfillPolicy, FcfsPolicy, PowerAwarePolicy, SchedContext,
    SchedulerPolicy, POLICY_NAMES,
};
pub use profile::{ExecutionPlan, WorkloadModel};
pub use scenario::{
    arrival_process_by_name, fault_scenario_by_name, fault_timeline, FaultPolicy, FaultSpec,
    FaultTimeline, ARRIVAL_PROCESS_NAMES, FAULT_SCENARIO_NAMES,
};
pub use sweep::{
    default_workload, execute_cell, light_workload, panic_message, quad_test_workload, run_cell,
    run_sweep_fleet, sweep_cell_event, workload_shape_by_name, SweepCell, SweepCellOutcome,
    SweepError, SweepPoint, SweepRun, SweepSpec, WORKLOAD_SHAPE_NAMES,
};
pub use tables::{cluster_summary_headers, cluster_summary_row, cluster_summary_table, job_table};
