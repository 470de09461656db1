//! Typed failures of the daemon and worker runtimes.

use std::fmt;

use cluster_rpc::RpcError;
use cluster_sched::{SweepCell, SweepError};

/// Every way a daemon-served sweep can fail.
#[derive(Debug)]
#[non_exhaustive]
pub enum DaemonError {
    /// The sweep grid itself is invalid (pre-dispatch validation).
    Sweep(SweepError),
    /// A cell could not be completed: its simulation failed
    /// deterministically, or every allowed attempt died with its worker.
    /// The lowest-index failure is reported, mirroring
    /// [`SweepError::Cell`].
    Cell {
        /// The failing cell.
        cell: Box<SweepCell>,
        /// The simulation error, panic message, or death description.
        reason: String,
        /// Attempts consumed (1 for a deterministic simulation failure).
        attempts: usize,
    },
    /// No worker connected (or all died) and the configured wait expired
    /// with cells still unresolved.
    NoWorkers {
        /// How long the daemon waited for a worker (s).
        waited_s: f64,
    },
    /// Every event source disconnected with cells still unresolved.
    Disconnected {
        /// Cells resolved before the channel died.
        resolved: usize,
        /// Cells in the grid.
        total: usize,
    },
    /// A transport-layer failure while standing up the service (socket
    /// bind, accept loop).
    Io(std::io::Error),
    /// A worker process could not be spawned.
    Spawn {
        /// The command that failed.
        command: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Sweep(e) => write!(f, "{e}"),
            DaemonError::Cell { cell, reason, attempts } => {
                write!(f, "{cell} failed after {attempts} attempt(s): {reason}")
            }
            DaemonError::NoWorkers { waited_s } => {
                write!(f, "no live workers after {waited_s:.1} s with cells still unresolved")
            }
            DaemonError::Disconnected { resolved, total } => {
                write!(f, "all connections lost with {resolved}/{total} cells resolved")
            }
            DaemonError::Io(e) => write!(f, "daemon transport failure: {e}"),
            DaemonError::Spawn { command, source } => {
                write!(f, "failed to spawn worker `{command}`: {source}")
            }
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<SweepError> for DaemonError {
    fn from(e: SweepError) -> Self {
        DaemonError::Sweep(e)
    }
}

/// Every way the worker runtime can fail.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkerError {
    /// A protocol or transport failure.
    Rpc(RpcError),
    /// The daemon named a workload shape this worker does not know.
    UnknownShape {
        /// The unresolvable shape name.
        name: String,
    },
    /// The worker could not rebuild the model from the sweep context.
    Model {
        /// The model-construction error display.
        reason: String,
    },
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Rpc(e) => write!(f, "{e}"),
            WorkerError::UnknownShape { name } => {
                write!(f, "unknown workload shape {name:?} in the sweep context")
            }
            WorkerError::Model { reason } => write!(f, "model construction failed: {reason}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<RpcError> for WorkerError {
    fn from(e: RpcError) -> Self {
        WorkerError::Rpc(e)
    }
}
