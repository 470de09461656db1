//! The local process seam: bind a socket, spawn N pinned worker
//! processes, serve the sweep, reap the children.
//!
//! This is what `--processes N` on the sweep bins resolves to: the same
//! [`serve`] loop as a long-lived `--serve` daemon, but with the worker
//! fleet's lifetime owned by the caller. Workers are CPU-pinned via
//! `taskset` when it is available — the SIMPLEBENCH discipline of one
//! worker per core — and fall back to unpinned spawns otherwise.

use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use actor_core::telemetry::SharedSink;
use cluster_rpc::{SweepContext, Wire};
use cluster_sched::{SweepCellOutcome, SweepSpec};
use crossbeam::channel::Sender;

use crate::daemon::{serve, DaemonConfig, DistRun};
use crate::error::DaemonError;

/// How long a local sweep waits with no live worker before failing with
/// [`DaemonError::NoWorkers`]: covers both workers that never start and a
/// fleet that has died whole.
const NO_WORKER_TIMEOUT: Duration = Duration::from_secs(120);

/// How to stand up a local daemon-plus-workers sweep.
#[derive(Debug, Clone)]
pub struct ProcessSweepOptions {
    /// Worker processes to spawn (min 1).
    pub processes: usize,
    /// The `cluster_worker` binary to exec.
    pub worker_bin: PathBuf,
    /// The sweep context shipped to every worker at handshake.
    pub context: SweepContext,
}

impl ProcessSweepOptions {
    /// Options for `processes` workers running `worker_bin`.
    pub fn new(processes: usize, worker_bin: PathBuf, context: SweepContext) -> Self {
        Self { processes, worker_bin, context }
    }
}

/// One socket path per (process, call): collisions would cross-wire
/// concurrent sweeps in the same test binary.
fn socket_path() -> PathBuf {
    static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cluster-daemon-{}-{seq}.sock", std::process::id()))
}

/// Feeds accepted Unix-socket connections into a [`serve`] channel until
/// `stop` is raised or the channel closes. The listener must already be
/// nonblocking (that is how `stop` gets observed between connections).
pub fn accept_unix(
    listener: UnixListener,
    stop: Arc<AtomicBool>,
    conns: Sender<Box<dyn Wire>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // The daemon's frame reads are blocking; only the accept
                // loop polls.
                let _ = stream.set_nonblocking(false);
                if conns.send(Box::new(stream) as Box<dyn Wire>).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    })
}

/// The command for worker `index`, pinned to core `index % cores` when
/// `taskset` is available.
fn worker_command(worker_bin: &Path, socket: &Path, index: usize, cores: usize) -> Command {
    let taskset = Path::new("/usr/bin/taskset");
    let mut cmd = if taskset.exists() {
        let mut c = Command::new(taskset);
        c.arg("-c").arg((index % cores.max(1)).to_string()).arg(worker_bin);
        c
    } else {
        Command::new(worker_bin)
    };
    cmd.arg("--connect").arg(socket).arg("--name").arg(format!("local-{index}"));
    cmd
}

/// Waits briefly for a child that was told to shut down; kills it if it
/// lingers.
fn reap(child: &mut Child) {
    for _ in 0..500 {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => break,
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Runs `spec` on a private local cluster: a fresh Unix socket, `serve` as
/// the daemon, and [`ProcessSweepOptions::processes`] spawned
/// `cluster_worker` children.
///
/// The callback and returned [`DistRun`] behave exactly as in [`serve`];
/// children and the socket file are always cleaned up, on error paths by
/// `kill`.
pub fn run_distributed(
    spec: &SweepSpec,
    opts: &ProcessSweepOptions,
    telemetry: Option<SharedSink>,
    on_cell: impl FnMut(&SweepCellOutcome, usize, usize),
) -> Result<DistRun, DaemonError> {
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).map_err(DaemonError::Io)?;
    listener.set_nonblocking(true).map_err(DaemonError::Io)?;
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded();
    let acceptor = accept_unix(listener, Arc::clone(&stop), conn_tx);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut children: Vec<Child> = Vec::with_capacity(opts.processes.max(1));
    let mut spawn_error = None;
    for i in 0..opts.processes.max(1) {
        let mut cmd = worker_command(&opts.worker_bin, &path, i, cores);
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(source) => {
                spawn_error = Some(DaemonError::Spawn { command: format!("{cmd:?}"), source });
                break;
            }
        }
    }

    let result = match spawn_error {
        Some(e) => Err(e),
        None => {
            let mut config = DaemonConfig::new(opts.context.clone());
            config.no_worker_timeout = Some(NO_WORKER_TIMEOUT);
            serve(spec, &config, conn_rx, telemetry, on_cell)
        }
    };

    stop.store(true, Ordering::Relaxed);
    let _ = acceptor.join();
    for mut child in children {
        if result.is_ok() {
            // serve already sent Shutdown; give the worker its clean exit.
            reap(&mut child);
        } else {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    let _ = std::fs::remove_file(&path);
    result
}
