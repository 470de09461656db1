//! The distributed cluster service: a sweep-dispatching daemon and the
//! worker runtime it drives.
//!
//! The in-process sweep engine (`cluster_sched::sweep`) fans cells out to
//! threads; this crate fans them out to *processes* — following the
//! daemon-owns-core-state / workers-connect-over-a-message-bus shape of
//! clustered deployments, with `cluster_rpc` as the bus. Three layers:
//!
//! * [`serve`] — the daemon control loop. It owns the expanded grid,
//!   accepts workers from any [`cluster_rpc::Wire`] source (Unix sockets in
//!   production, in-memory duplexes in tests), dispatches one cell per idle
//!   worker, tracks liveness by heartbeat, **reassigns** cells from dead or
//!   stalled workers (bounded by a per-cell attempt cap), ingests batched
//!   worker telemetry when it records any (a trace sink or live metrics),
//!   and returns a [`DistRun`] whose outcomes are sorted by cell index —
//!   so everything rendered from it is byte-identical to `run_sweep_fleet` at
//!   any worker count or death schedule.
//! * [`run_worker`] — the worker runtime. It handshakes, starts
//!   heartbeating *before* model training (training takes seconds and must
//!   not read as death), rebuilds the daemon's exact
//!   [`cluster_sched::WorkloadModel`] from the wire-carried
//!   [`cluster_rpc::SweepContext`] (the model is deterministic in config +
//!   benchmark list), then executes assigned cells through
//!   [`cluster_sched::execute_cell`] — the *same* code path as in-process
//!   sweeps — forwarding telemetry as batched `TraceBatch` frames only
//!   when the handshake says the daemon reads it.
//! * [`run_distributed`] — the local process seam: binds a temporary Unix
//!   socket, spawns N `cluster_worker` processes (CPU-pinned via `taskset`
//!   when available, SIMPLEBENCH-style), serves the sweep, and reaps the
//!   children.
//!
//! Failure semantics mirror `run_sweep_fleet`: a cell whose *simulation* fails is
//! a deterministic error — it is never retried, the sweep keeps running,
//! and the lowest-index failure surfaces at the end as
//! [`DaemonError::Cell`]. A cell whose *worker* dies is indeterminate — it
//! is requeued (at the front, so retries happen promptly) until the attempt
//! cap, after which it too becomes [`DaemonError::Cell`].

pub mod daemon;
pub mod error;
pub mod spawn;
pub mod worker;

pub use daemon::{serve, DaemonConfig, DistRun};
pub use error::{DaemonError, WorkerError};
pub use spawn::{accept_unix, run_distributed, ProcessSweepOptions};
pub use worker::{run_worker, run_worker_full, run_worker_traced, run_worker_with};
