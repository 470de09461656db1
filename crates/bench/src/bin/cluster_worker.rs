//! `cluster_worker` — execute sweep cells for a `cluster_daemon` (or a
//! `--processes N` sweep, which spawns these automatically).
//!
//! The worker connects to the daemon's Unix socket, handshakes, rebuilds
//! the ANN-trained workload model from the wire-carried `SweepContext`
//! (heartbeating throughout, so training never reads as death), then
//! executes `AssignCell`s until `Shutdown` — forwarding batched
//! `TraceEvent`s ahead of each `CellResult` when the daemon records them
//! (`--trace` or live metrics; the handshake says which).
//!
//! Flags:
//!
//! * `--connect SOCKET` (required) — the daemon's Unix socket path.
//! * `--name NAME` — worker name reported in the handshake (default
//!   `worker-<pid>`).
//! * `--trace PATH` — also write this worker's span-stamped events to a
//!   local JSONL file (whether or not the daemon asked for them). The
//!   file survives the worker being SIGKILLed mid-cell, which is what
//!   lets `trace_tool merge` reconstruct a timeline including events the
//!   daemon never received.
//!
//! Exit status: 0 after an orderly `Shutdown`, 1 on connection or
//! protocol failure, 2 on bad arguments.

use std::os::unix::net::UnixStream;
use std::sync::Arc;

use actor_bench::BenchArgs;
use actor_core::telemetry::{JsonlSink, SharedSink};
use cluster_daemon::run_worker_traced;

/// `--name NAME` from the raw argument list (`BenchArgs` skips flags it
/// does not own).
fn name_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--name" {
            return args.next();
        }
    }
    None
}

fn main() {
    let args = BenchArgs::from_env();
    args.reject_unhonoured_flags(&["--connect"]);
    let Some(socket) = args.connect else {
        eprintln!("error: cluster_worker requires --connect SOCKET (the daemon's Unix socket)");
        std::process::exit(2);
    };
    let name = name_arg().unwrap_or_else(|| format!("worker-{}", std::process::id()));
    // The worker runtime stamps spans itself (run_id from the handshake,
    // source = worker name), so the local sink is a bare JSONL writer.
    let local: Option<SharedSink> =
        args.trace.as_deref().map(|path| match JsonlSink::create(path) {
            Ok(sink) => Arc::new(sink) as SharedSink,
            Err(e) => {
                eprintln!("error: cannot create --trace file {path}: {e}");
                std::process::exit(2);
            }
        });

    let stream = UnixStream::connect(&socket).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to daemon at {socket}: {e}");
        std::process::exit(1);
    });
    if let Err(e) = run_worker_traced(Box::new(stream), &name, local) {
        eprintln!("error: worker {name} failed: {e}");
        std::process::exit(1);
    }
}
