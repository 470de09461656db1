//! `cluster_daemon` — serve the policy-search sweep grid to external
//! workers over a Unix-domain socket.
//!
//! The daemon owns the sweep: it expands the grid, dispatches cells to
//! every `cluster_worker` that connects to `--serve SOCKET`, tracks
//! liveness by heartbeat, reassigns cells from dead or stalled workers,
//! and streams results in completion order while persisting them in
//! deterministic cell order. The timing-free artefact
//! (`results/cluster_daemon_cells.json`) is **byte-identical** to
//! `cluster_sweep`'s `cluster_sweep_cells.json` for the same grid and
//! seed, whatever the worker count or death schedule — CI diffs the two.
//!
//! Flags:
//!
//! * `--serve SOCKET` (required) — bind this Unix socket path and accept
//!   workers. A stale socket file from a previous run is removed.
//! * `--fast` — the 48-cell smoke grid and reduced ANN training config
//!   (workers train from the wire-carried config).
//! * `--grid SPEC` — axis overrides, as in `cluster_sweep`.
//! * `--seed N` — ANN training seed forwarded to workers.
//! * `--trace PATH` — JSONL telemetry, span-stamped (`run_id` = daemon
//!   pid, source = `cluster_daemon`), including the span-stamped
//!   `TraceEvent`s forwarded by the workers and the daemon's own
//!   `worker_connected`/`worker_dead`/`cell_reassigned` lifecycle events.
//! * `--metrics SOCKET` — *client* mode: connect to a **running** daemon's
//!   socket, print its live metrics snapshot (`name value` lines), and
//!   exit. Nothing else happens; combine with nothing.
//!
//! The daemon exits once the grid completes (or fails a cell past the
//! attempt cap); it is not a long-lived service.

use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use actor_bench::sweep_out::{
    cells_output, default_spec, score_policies, sweep_table_headers, sweep_table_row,
};
use actor_bench::{FileReporter, Harness};
use actor_core::report::StreamingReporter;
use actor_core::telemetry::MetricsRegistry;
use cluster_daemon::{accept_unix, serve, DaemonConfig};
use cluster_rpc::{request_metrics, Connection, SweepContext};
use npb_workloads::BenchmarkId;

/// `--metrics SOCKET` from the raw argument list (`BenchArgs` skips flags
/// it does not own).
fn metrics_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            return args.next();
        }
    }
    None
}

/// Client mode: ask the daemon at `socket` for a metrics snapshot, print
/// it, exit.
fn query_metrics(socket: &str) -> ! {
    let stream = UnixStream::connect(socket).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to daemon at {socket}: {e}");
        std::process::exit(1);
    });
    let conn = Connection::new(Box::new(stream)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    match request_metrics(&conn) {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: metrics request failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    if let Some(socket) = metrics_arg() {
        query_metrics(&socket);
    }
    let harness = Harness::from_env();
    let args = &harness.args;
    args.reject_unhonoured_flags(&["--serve"]);
    let Some(socket) = args.serve.clone() else {
        eprintln!(
            "error: cluster_daemon requires --serve SOCKET (the Unix socket to bind) or \
             --metrics SOCKET (query a running daemon)"
        );
        std::process::exit(2);
    };

    let mut spec = default_spec(args.fast);
    if let Some(grid) = &args.grid {
        spec = spec.with_grid(grid).unwrap_or_else(|e| panic!("{e}"));
    }
    let context = SweepContext {
        config: args.config(),
        benchmarks: BenchmarkId::ALL.to_vec(),
        workload: "light".into(),
        machines: spec.mix_names().unwrap_or_else(|e| panic!("{e}")),
        max_node_w: spec.max_node_w,
        heartbeat_ms: 250,
        // Workers stamp their spans with this, the same run id the
        // harness's own SpanSink uses — one causal timeline per run.
        run_id: Harness::run_id(),
    };

    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {socket}: {e}");
        std::process::exit(1);
    });
    listener.set_nonblocking(true).expect("socket accepts nonblocking mode");
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded();
    let acceptor = accept_unix(listener, Arc::clone(&stop), conn_tx);
    eprintln!("serving {} sweep cells on {socket}; waiting for workers...", spec.len());

    let mut streaming = StreamingReporter::new(
        Box::new(FileReporter::default()),
        "cluster_daemon",
        "Policy-search sweep (daemon-served): every cell",
        sweep_table_headers(),
        spec.len(),
    );
    if let Some(sink) = harness.telemetry_sink() {
        streaming = streaming.with_telemetry(sink);
    }

    // Live-queryable metrics: any `cluster_daemon --metrics SOCKET` client
    // connecting to the serve socket gets a snapshot of this registry.
    let registry = Arc::new(MetricsRegistry::new());
    let mut config = DaemonConfig::new(context);
    config.metrics = Some(Arc::clone(&registry));
    let result = serve(&spec, &config, conn_rx, harness.telemetry_sink(), |outcome, _, _| {
        streaming.row(outcome.cell.index, sweep_table_row(outcome));
    });
    stop.store(true, Ordering::Relaxed);
    let _ = acceptor.join();
    let _ = std::fs::remove_file(&socket);

    let dist = result.unwrap_or_else(|e| {
        eprintln!("error: daemon sweep failed: {e}");
        std::process::exit(1);
    });
    let mut reporter = streaming.finish();
    reporter.note(&format!(
        "daemon: {} cells in {:.1} s across {} worker(s), {} reassignment(s)",
        dist.run.outcomes.len(),
        dist.run.wall_clock_s,
        dist.workers_seen,
        dist.reassignments,
    ));
    for (policy, mean) in score_policies(&dist.run.outcomes).0 {
        if policy != "fcfs" {
            reporter.note(&format!("{policy}: mean cluster ED2 {mean:+.1}% vs fcfs"));
        }
    }
    let cells_json =
        serde_json::to_string_pretty(&cells_output(&dist.run.outcomes)).expect("cells serialize");
    reporter.artifact("cluster_daemon_cells.json", &cells_json);
}
