//! The typed message set and error vocabulary of the cluster protocol.

use std::fmt;

use actor_core::config::ActorConfig;
use actor_core::telemetry::SpannedEvent;
use cluster_sched::{ClusterReport, SweepCell};
use npb_workloads::BenchmarkId;
use serde::{Deserialize, Serialize};

/// Everything a worker needs to rebuild the daemon's exact sweep
/// environment from the wire.
///
/// A [`cluster_sched::SweepSpec`] cannot cross a process boundary whole —
/// its workload shape is a function pointer — so the daemon ships the
/// *ingredients* instead: the model is deterministic in
/// `WorkloadModel::build(machine, config, benchmarks)` (seeded RNG, no
/// ambient state), and the shape is one of the named
/// [`cluster_sched::WORKLOAD_SHAPE_NAMES`] resolved back to a `fn` by
/// [`cluster_sched::workload_shape_by_name`]. A worker that trains from
/// this context produces bit-identical decision tables to the daemon's own
/// model, which is what keeps distributed artefacts byte-identical to
/// in-process `run_sweep_fleet` output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepContext {
    /// Model-training configuration (drives the seeded corpus + ANN).
    pub config: ActorConfig,
    /// Benchmarks the model is trained on, in training order.
    pub benchmarks: Vec<BenchmarkId>,
    /// Named workload shape of the sweep (see
    /// [`cluster_sched::workload_shape_by_name`]).
    pub workload: String,
    /// Machine-mix names the sweep's cells may use (see
    /// [`cluster_sched::mix_by_name`]): the worker rebuilds a
    /// [`cluster_sched::FleetModel`] covering every listed mix, so a cell
    /// naming any of them resolves to the same per-generation decision
    /// tables the daemon's in-process peer trains.
    pub machines: Vec<String>,
    /// Per-node dynamic power ceiling (W) for budget pricing.
    pub max_node_w: f64,
    /// Interval at which the worker must emit [`Message::Heartbeat`] (ms).
    pub heartbeat_ms: u64,
    /// Trace-span run identifier (the daemon's choice, typically its pid):
    /// every worker stamps it into its
    /// [`actor_core::telemetry::SpanContext`]s so daemon and worker traces
    /// merge into one causal timeline.
    pub run_id: u64,
}

/// What became of one dispatched cell, as reported by the worker.
///
/// This is `Result<ClusterReport, …>` flattened into an owned enum so it
/// derives the vendored serde traits (which have no `Result` impl) and so
/// the failure arm records whether the cell *panicked* (the daemon treats
/// a panic like an error, mirroring `run_sweep_fleet`'s catch-at-the-job-boundary
/// semantics, rather than letting it kill the worker).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The simulation succeeded.
    Completed(ClusterReport),
    /// The simulation failed or panicked; `reason` is the error display or
    /// panic message.
    Failed {
        /// Why the cell failed.
        reason: String,
        /// Whether the failure was a caught panic rather than a typed
        /// simulation error.
        panicked: bool,
    },
}

/// One protocol message — exactly one frame on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → daemon: opens a session.
    Hello {
        /// The worker's [`crate::PROTOCOL_VERSION`].
        version: u32,
        /// Worker name, for liveness logs and reassignment traces.
        worker: String,
    },
    /// Daemon → worker: accepts the session and ships the sweep context.
    HelloAck {
        /// The daemon's [`crate::PROTOCOL_VERSION`].
        version: u32,
        /// Everything the worker needs to build its model.
        context: SweepContext,
        /// Whether the daemon reads worker telemetry (it records a trace
        /// or keeps live metrics). A worker told `false` sends no
        /// [`Message::TraceBatch`] frames.
        traces: bool,
    },
    /// Daemon → worker: execute this cell.
    AssignCell(SweepCell),
    /// Worker → daemon: a dispatched cell finished (or failed).
    CellResult {
        /// Index of the cell this result answers.
        index: usize,
        /// The result.
        outcome: CellOutcome,
    },
    /// Worker → daemon: buffered telemetry from cell execution, in record
    /// order, span stamps intact (assembled by the worker's rebatching
    /// forward sink). Sent only to a daemon whose `HelloAck` set `traces`.
    TraceBatch(Vec<SpannedEvent>),
    /// Worker → daemon: still alive (sent every
    /// [`SweepContext::heartbeat_ms`], including during model training).
    Heartbeat,
    /// Daemon → worker: the sweep is over; exit cleanly.
    Shutdown,
    /// Client → daemon: asks for a point-in-time metrics snapshot. Sent
    /// *instead of* `Hello` as a connection's first frame (`cluster_daemon
    /// --metrics`); the daemon answers with [`Message::MetricsSnapshot`]
    /// and closes.
    MetricsRequest,
    /// Daemon → client: the metrics text exposition
    /// (`actor_core::telemetry::MetricsRegistry::render_text`).
    MetricsSnapshot {
        /// Plain `name value` lines, deterministically ordered.
        text: String,
    },
    /// Either direction: a typed protocol failure.
    Error(RpcError),
}

impl Message {
    /// Short variant name, for protocol-violation diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::AssignCell(_) => "AssignCell",
            Message::CellResult { .. } => "CellResult",
            Message::TraceBatch(_) => "TraceBatch",
            Message::Heartbeat => "Heartbeat",
            Message::Shutdown => "Shutdown",
            Message::MetricsRequest => "MetricsRequest",
            Message::MetricsSnapshot { .. } => "MetricsSnapshot",
            Message::Error(_) => "Error",
        }
    }
}

/// Every way the protocol can fail, typed.
///
/// Serializable so a peer can be *told* why it is being rejected
/// ([`Message::Error`]), not just dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RpcError {
    /// An underlying transport error (the `std::io::Error` display).
    Io(String),
    /// The stream ended inside a frame (header or payload cut short).
    Truncated,
    /// A frame header announced more than [`crate::MAX_FRAME_LEN`] bytes.
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
    },
    /// The payload was not a parseable message (bad JSON or an unknown
    /// variant).
    Decode {
        /// The parse error display.
        reason: String,
    },
    /// The peers speak different protocol versions.
    VersionMismatch {
        /// This side's version.
        ours: u32,
        /// The peer's version.
        theirs: u32,
    },
    /// A well-formed message arrived where the protocol does not allow it.
    Protocol {
        /// What was expected and what arrived.
        reason: String,
    },
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "transport error: {e}"),
            RpcError::Truncated => write!(f, "stream truncated mid-frame"),
            RpcError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {} byte limit", crate::MAX_FRAME_LEN)
            }
            RpcError::Decode { reason } => write!(f, "undecodable frame: {reason}"),
            RpcError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            RpcError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            RpcError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e.to_string())
    }
}
