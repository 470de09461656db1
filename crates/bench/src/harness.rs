//! The shared harness behind every figure binary: command-line arguments,
//! seed handling, and the standard [`Reporter`] that prints tables to stdout
//! and persists CSV/JSON artefacts under `results/`.
//!
//! Before this harness existed every binary re-wired machine, configuration,
//! RNG seeding and output writing by hand; now a binary is three lines of
//! setup:
//!
//! ```no_run
//! use actor_bench::Harness;
//!
//! let mut exp = Harness::from_env().experiment();
//! let report = exp.scalability().clone();
//! // ... build tables, then exp.emit(name, heading, &table)
//! ```

use std::fmt::Display;
use std::fs;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use actor_core::report::{Reporter, StdoutReporter, Table};
use actor_core::telemetry::{MetricsRegistry, SharedSink};
use actor_core::ActorConfig;
use actor_suite::{Experiment, ExperimentBuilder};
use cluster_daemon::{
    accept_unix, run_distributed, serve, DaemonConfig, DaemonError, DistRun, ProcessSweepOptions,
};
use cluster_rpc::SweepContext;
use cluster_sched::{
    run_sweep_fleet, workload_shape_by_name, SweepCellOutcome, SweepRun, SweepSpec,
};
use npb_workloads::BenchmarkId;

/// Command-line arguments shared by every figure binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--fast`: use the reduced training configuration.
    pub fast: bool,
    /// `--scalability-only`: skip the training-heavy studies.
    pub scalability_only: bool,
    /// `--seed N`: override the configuration seed.
    pub seed: Option<u64>,
    /// `--jobs N`: worker threads for sweep-engine binaries (`None` =
    /// auto-detect via [`BenchArgs::jobs_or_auto`]).
    pub jobs: Option<usize>,
    /// `--grid SPEC`: sweep grid override (see
    /// `cluster_sched::SweepSpec::with_grid` for the syntax). Honoured by
    /// `cluster_sweep`; the fixed-grid bins (`cluster_power_cap`,
    /// `coordinated_capping`) warn and ignore it — their headline tables
    /// assume the historical grid.
    pub grid: Option<String>,
    /// `--trace PATH`: write one JSONL trace record per controller
    /// decision / cluster event / sweep cell to `PATH` (see
    /// `actor_core::telemetry::JsonlSink`). `None` = telemetry off.
    pub trace: Option<String>,
    /// `--processes N`: run the sweep on N local worker *processes*
    /// through the cluster daemon (`cluster_sweep` and `cluster_power_cap`;
    /// each worker is CPU-pinned when `taskset` is available). Overrides
    /// `--jobs`. Every other sweep, daemon or worker binary exits 2 on it
    /// (see [`BenchArgs::reject_unhonoured_flags`]).
    pub processes: Option<usize>,
    /// `--serve PATH`: daemon mode — bind the Unix socket at `PATH` and
    /// accept external `cluster_worker` processes (`cluster_daemon` bin).
    pub serve: Option<String>,
    /// `--connect PATH`: worker mode — connect to a daemon's Unix socket
    /// (`cluster_worker` bin).
    pub connect: Option<String>,
}

impl BenchArgs {
    /// Parses the process arguments. Unknown flags are ignored (binaries add
    /// their own); a value-taking flag with a missing or unparseable value
    /// is a hard error printed to stderr, exiting with status 2.
    pub fn from_env() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list, erroring loudly on a value-taking
    /// flag (`--seed`, `--jobs`, `--grid`, `--trace`, `--processes`,
    /// `--serve`, `--connect`) whose value is missing, starts with `--`,
    /// or does not parse — a missing value must never silently swallow the
    /// next flag.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn value_of<I: Iterator<Item = String>>(
            flag: &str,
            args: &mut std::iter::Peekable<I>,
        ) -> Result<String, String> {
            match args.peek() {
                Some(v) if !v.starts_with("--") => Ok(args.next().expect("just peeked")),
                _ => Err(format!("{flag} requires a value")),
            }
        }
        let mut out = Self::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--fast" => out.fast = true,
                "--scalability-only" => out.scalability_only = true,
                "--seed" => {
                    let v = value_of("--seed", &mut args)?;
                    out.seed = Some(
                        v.parse()
                            .map_err(|_| format!("invalid --seed value {v:?} (expected u64)"))?,
                    );
                }
                "--jobs" => {
                    let v = value_of("--jobs", &mut args)?;
                    let jobs: usize = v.parse().map_err(|_| {
                        format!("invalid --jobs value {v:?} (expected a positive integer)")
                    })?;
                    if jobs == 0 {
                        return Err("invalid --jobs value 0 (expected a positive integer)".into());
                    }
                    out.jobs = Some(jobs);
                }
                "--grid" => out.grid = Some(value_of("--grid", &mut args)?),
                "--trace" => out.trace = Some(value_of("--trace", &mut args)?),
                "--processes" => {
                    let v = value_of("--processes", &mut args)?;
                    let processes: usize = v.parse().map_err(|_| {
                        format!("invalid --processes value {v:?} (expected a positive integer)")
                    })?;
                    if processes == 0 {
                        return Err(
                            "invalid --processes value 0 (expected a positive integer)".into()
                        );
                    }
                    out.processes = Some(processes);
                }
                "--serve" => out.serve = Some(value_of("--serve", &mut args)?),
                "--connect" => out.connect = Some(value_of("--connect", &mut args)?),
                _ => {}
            }
        }
        Ok(out)
    }

    /// Exits with status 2 when a distributed-mode flag (`--processes`,
    /// `--serve`, `--connect`) was given that this binary does not honour,
    /// naming the flag and the binaries that do: a sweep asked for worker
    /// processes must not silently run on threads. `honoured` lists the
    /// flags the calling binary implements. Call it right after parsing,
    /// before any model build.
    pub fn reject_unhonoured_flags(&self, honoured: &[&str]) {
        if let Err(e) = self.unhonoured_flag(&bin_name(), honoured) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    fn unhonoured_flag(&self, bin: &str, honoured: &[&str]) -> Result<(), String> {
        let flags = [
            (self.processes.is_some(), "--processes", "cluster_sweep and cluster_power_cap"),
            (self.serve.is_some(), "--serve", "cluster_daemon"),
            (self.connect.is_some(), "--connect", "cluster_worker"),
        ];
        match flags.into_iter().find(|(given, flag, _)| *given && !honoured.contains(flag)) {
            Some((_, flag, by)) => {
                Err(format!("{bin} does not honour {flag}; it is honoured by {by}"))
            }
            None => Ok(()),
        }
    }

    /// Worker threads for sweep execution: the `--jobs` override, or the
    /// machine's available parallelism (sweep output is deterministic in
    /// the worker count, so auto-detection never changes results).
    pub fn jobs_or_auto(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1))
    }

    /// Locates a sibling binary of the current executable (e.g. the
    /// `cluster_worker` a `--processes` sweep spawns): same directory
    /// first, then one level up (test binaries live in `deps/`).
    pub fn sibling_bin(name: &str) -> Result<PathBuf, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let dir = exe.parent().ok_or("this binary has no parent directory")?;
        for candidate in [dir.join(name), dir.parent().map(|p| p.join(name)).unwrap_or_default()] {
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
        Err(format!(
            "binary {name:?} not found beside {}; build it first (cargo build --bin {name})",
            exe.display()
        ))
    }

    /// The ACTOR configuration these arguments select: the paper
    /// configuration by default, the fast one under `--fast`, with the seed
    /// override applied.
    pub fn config(&self) -> ActorConfig {
        let mut config = if self.fast { ActorConfig::fast() } else { ActorConfig::default() };
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        config
    }
}

/// The current executable's file stem (`cluster_daemon`, `cluster_sweep`,
/// …) — the span source every `--trace` record is stamped with.
fn bin_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".into())
}

/// The standard benchmark reporter: tables go to stdout *and* to
/// `results/<name>.csv`; artefacts go to `results/<filename>`; notes go to
/// stdout. IO errors are reported but not fatal (the printed output is the
/// primary artefact).
#[derive(Debug, Clone)]
pub struct FileReporter {
    dir: PathBuf,
}

impl Default for FileReporter {
    fn default() -> Self {
        Self::new(PathBuf::from("results"))
    }
}

impl FileReporter {
    /// Writes artefacts under `dir` (created on demand).
    pub fn new(dir: PathBuf) -> Self {
        Self { dir }
    }

    /// The artefact directory, created on demand.
    pub fn dir(&self) -> &PathBuf {
        let _ = fs::create_dir_all(&self.dir);
        &self.dir
    }

    fn write(&self, filename: &str, contents: &str) {
        let path = self.dir().join(filename);
        if let Err(e) = fs::write(&path, contents) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[wrote {}]", path.display());
        }
    }
}

impl Reporter for FileReporter {
    fn table(&mut self, name: &str, heading: &str, table: &Table) {
        // One definition of the console format: delegate, then persist.
        StdoutReporter.table(name, heading, table);
        self.write(&format!("{name}.csv"), &table.to_csv());
    }

    fn note(&mut self, line: &str) {
        StdoutReporter.note(line);
    }

    fn artifact(&mut self, filename: &str, contents: &str) {
        self.write(filename, contents);
    }
}

/// Argument parsing + experiment construction for one figure binary.
#[derive(Clone)]
pub struct Harness {
    /// The parsed arguments.
    pub args: BenchArgs,
    /// The `--trace` JSONL sink, opened once at startup (so repeated
    /// [`Harness::builder`] calls append to one trace, not truncate it).
    trace_sink: Option<actor_core::telemetry::SharedSink>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("args", &self.args)
            .field("trace_sink", &self.trace_sink.is_some())
            .finish()
    }
}

impl Harness {
    /// Parses the process arguments and, under `--trace PATH`, opens the
    /// trace file (exiting with status 2 if it cannot be created — a
    /// requested trace must never be silently dropped).
    pub fn from_env() -> Self {
        Self::from_args(BenchArgs::from_env())
    }

    /// Builds a harness from already-parsed arguments.
    ///
    /// The `--trace` JSONL sink is wrapped in a
    /// [`actor_core::telemetry::SpanSink`] stamping every record with this
    /// process's [`Harness::run_id`] and the binary name as span source —
    /// so any bin's trace file feeds `trace_tool merge`/`check` directly.
    pub fn from_args(args: BenchArgs) -> Self {
        let trace_sink = args.trace.as_deref().map(|path| {
            match actor_core::telemetry::JsonlSink::create(path) {
                Ok(sink) => {
                    let inner = std::sync::Arc::new(sink) as actor_core::telemetry::SharedSink;
                    std::sync::Arc::new(actor_core::telemetry::SpanSink::new(
                        inner,
                        Self::run_id(),
                        bin_name(),
                    )) as actor_core::telemetry::SharedSink
                }
                Err(e) => {
                    eprintln!("error: cannot create --trace file {path}: {e}");
                    std::process::exit(2);
                }
            }
        });
        Self { args, trace_sink }
    }

    /// The trace-span run identifier this process stamps: its pid. The
    /// daemon bins put the same value in
    /// [`cluster_rpc::SweepContext::run_id`], so worker-side spans land in
    /// the daemon's run.
    pub fn run_id() -> u64 {
        u64::from(std::process::id())
    }

    /// The `--trace` sink, if one was requested — cluster bins pass it to
    /// `run_sweep_fleet`/`simulate_fleet` so their sweeps share the
    /// experiment's trace file.
    pub fn telemetry_sink(&self) -> Option<actor_core::telemetry::SharedSink> {
        self.trace_sink.clone()
    }

    /// An [`ExperimentBuilder`] pre-loaded with the paper machine, the
    /// argument-selected configuration, the standard file reporter, and the
    /// `--trace` sink when one was requested.
    pub fn builder(&self) -> ExperimentBuilder {
        let mut builder = ExperimentBuilder::new()
            .config(self.args.config())
            .reporter(Box::new(FileReporter::default()));
        if let Some(sink) = &self.trace_sink {
            builder = builder.telemetry(sink.clone());
        }
        builder
    }

    /// The default experiment (full NAS suite on the paper machine); panics
    /// with a readable message on invalid configuration, which cannot happen
    /// from the recognised command-line flags.
    pub fn experiment(&self) -> Experiment {
        self.builder().run().expect("the harness defaults form a valid experiment")
    }
}

/// A sweep run by [`Harness::run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Outcomes in cell order, the worker count and the sweep wall clock.
    pub run: SweepRun,
    /// Wall clock of the in-process model build (s): the leave-one-out ANN
    /// training that precedes the sweep. `None` when worker processes
    /// built their own models.
    pub model_build_s: Option<f64>,
    /// Cells requeued from workers that left mid-cell (0 on threads).
    pub reassignments: usize,
}

impl Harness {
    /// Runs a sweep bin's grid with its cells' workload shape named
    /// `shape` (one of `cluster_sched::WORKLOAD_SHAPE_NAMES`). That one
    /// name sets both the spec's `workload` fn and the name the cluster
    /// daemon ships to workers, so worker processes run the same cells as
    /// threads would.
    ///
    /// Where the cells run follows the flags: `--serve PATH` serves them to
    /// external `cluster_worker`s on that Unix socket (which also answers
    /// `cluster_daemon --metrics PATH`), `--processes N` spawns N local
    /// workers, and otherwise they run on `--jobs N` threads against a
    /// model built here. Outcomes stream through `on_cell` in completion
    /// order. A failed sweep prints its error and exits with status 1.
    pub fn run_sweep(
        &self,
        spec: &SweepSpec,
        shape: &str,
        on_cell: impl FnMut(&SweepCellOutcome, usize, usize),
    ) -> SweepResult {
        let workload = workload_shape_by_name(shape)
            .unwrap_or_else(|| panic!("unknown workload shape {shape:?}"));
        let spec = SweepSpec { workload, ..spec.clone() };
        let telemetry = self.telemetry_sink();
        let context = SweepContext {
            config: self.args.config(),
            benchmarks: BenchmarkId::ALL.to_vec(),
            workload: shape.into(),
            machines: spec.mix_names().unwrap_or_else(|e| sweep_failed(e)),
            max_node_w: spec.max_node_w,
            heartbeat_ms: 250,
            // Workers stamp their spans with the run id of this process's
            // own trace: one causal timeline per run.
            run_id: Self::run_id(),
        };
        let dist = if let Some(socket) = &self.args.serve {
            serve_socket(socket, &spec, context, telemetry, on_cell)
        } else if let Some(processes) = self.args.processes {
            let worker_bin = BenchArgs::sibling_bin("cluster_worker").unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "running {} sweep cells on {processes} worker process(es) (each retrains the \
                 model)...",
                spec.len()
            );
            let opts = ProcessSweepOptions::new(processes, worker_bin, context);
            run_distributed(&spec, &opts, telemetry, on_cell)
        } else {
            let jobs = self.args.jobs_or_auto();
            eprintln!(
                "building the workload model (leave-one-out ANN training over the NPB suite)..."
            );
            let mixes = spec.mixes().unwrap_or_else(|e| sweep_failed(e));
            let started = Instant::now();
            let fleet = self.experiment().fleet_model(&mixes).unwrap_or_else(|e| sweep_failed(e));
            let model_build_s = Some(started.elapsed().as_secs_f64());
            eprintln!("running {} sweep cells on {jobs} worker thread(s)...", spec.len());
            let run = run_sweep_fleet(&spec, &Arc::new(fleet), jobs, telemetry, on_cell)
                .unwrap_or_else(|e| sweep_failed(e));
            return SweepResult { run, model_build_s, reassignments: 0 };
        };
        let dist = dist.unwrap_or_else(|e| sweep_failed(e));
        if dist.reassignments > 0 {
            eprintln!("note: {} cell(s) were reassigned from dead workers", dist.reassignments);
        }
        SweepResult { run: dist.run, model_build_s: None, reassignments: dist.reassignments }
    }
}

/// Serves `spec` to external workers on the Unix socket at `path`,
/// replacing a stale socket file, with a live metrics registry.
fn serve_socket(
    path: &str,
    spec: &SweepSpec,
    context: SweepContext,
    telemetry: Option<SharedSink>,
    on_cell: impl FnMut(&SweepCellOutcome, usize, usize),
) -> Result<DistRun, DaemonError> {
    let _ = fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(DaemonError::Io)?;
    listener.set_nonblocking(true).map_err(DaemonError::Io)?;
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded();
    let acceptor = accept_unix(listener, Arc::clone(&stop), conn_tx);
    eprintln!("serving {} sweep cells on {path}; waiting for workers...", spec.len());
    let mut config = DaemonConfig::new(context);
    config.metrics = Some(Arc::new(MetricsRegistry::new()));
    let result = serve(spec, &config, conn_rx, telemetry, on_cell);
    stop.store(true, Ordering::Relaxed);
    let _ = acceptor.join();
    let _ = fs::remove_file(path);
    result
}

fn sweep_failed(e: impl Display) -> ! {
    eprintln!("error: sweep failed: {e}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_known_flags_and_ignore_unknown_ones() {
        let args = parse(&["--fast", "--whatever", "--seed", "99", "--scalability-only"]).unwrap();
        assert!(args.fast && args.scalability_only);
        assert_eq!(args.seed, Some(99));
        assert_eq!(args.jobs, None);
        assert!(args.jobs_or_auto() >= 1);
        let config = args.config();
        assert_eq!(config.seed, 99);
        assert_eq!(config.predictor.folds, ActorConfig::fast().predictor.folds);

        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults, BenchArgs::default());
        assert_eq!(defaults.config().seed, ActorConfig::default().seed);
    }

    #[test]
    fn every_value_flag_parses_with_a_valid_value() {
        let args = parse(&[
            "--seed",
            "7",
            "--jobs",
            "8",
            "--grid",
            "nodes=2,4;seeds=1..3",
            "--trace",
            "results/t.jsonl",
        ])
        .unwrap();
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.jobs, Some(8));
        assert_eq!(args.jobs_or_auto(), 8);
        assert_eq!(args.grid.as_deref(), Some("nodes=2,4;seeds=1..3"));
        assert_eq!(args.trace.as_deref(), Some("results/t.jsonl"));
    }

    #[test]
    fn missing_values_error_loudly_instead_of_swallowing_flags() {
        // A following flag is never consumed as the value.
        for flag in ["--seed", "--jobs", "--grid", "--trace", "--processes", "--serve", "--connect"]
        {
            let err = parse(&[flag, "--fast"]).unwrap_err();
            assert_eq!(err, format!("{flag} requires a value"), "{flag}");
            // Trailing flag with no value at all.
            let err = parse(&["--fast", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} requires a value"), "{flag}");
        }
    }

    #[test]
    fn unparseable_values_error_loudly() {
        let err = parse(&["--seed", "0x2A"]).unwrap_err();
        assert!(err.contains("--seed") && err.contains("0x2A"), "{err}");
        let err = parse(&["--jobs", "many"]).unwrap_err();
        assert!(err.contains("--jobs") && err.contains("many"), "{err}");
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs") && err.contains('0'), "{err}");
        let err = parse(&["--processes", "two"]).unwrap_err();
        assert!(err.contains("--processes") && err.contains("two"), "{err}");
        let err = parse(&["--processes", "0"]).unwrap_err();
        assert!(err.contains("--processes") && err.contains('0'), "{err}");
    }

    #[test]
    fn distributed_flags_parse_and_default_off() {
        let defaults = parse(&["--fast"]).unwrap();
        assert_eq!((defaults.processes, &defaults.serve, &defaults.connect), (None, &None, &None));

        let args = parse(&["--processes", "2"]).unwrap();
        assert_eq!(args.processes, Some(2));

        let args = parse(&["--serve", "/tmp/daemon.sock", "--fast"]).unwrap();
        assert_eq!(args.serve.as_deref(), Some("/tmp/daemon.sock"));
        assert!(args.fast);

        let args = parse(&["--connect", "/tmp/daemon.sock"]).unwrap();
        assert_eq!(args.connect.as_deref(), Some("/tmp/daemon.sock"));
    }

    #[test]
    fn unhonoured_distributed_flags_name_the_bins_that_honour_them() {
        let processes = parse(&["--fast", "--processes", "2"]).unwrap();
        assert_eq!(processes.unhonoured_flag("cluster_sweep", &["--processes"]), Ok(()));
        let err = processes.unhonoured_flag("scenario_sweep", &[]).unwrap_err();
        assert!(err.contains("scenario_sweep") && err.contains("--processes"), "{err}");
        assert!(err.contains("cluster_sweep and cluster_power_cap"), "{err}");
        let serve = parse(&["--serve", "/tmp/daemon.sock"]).unwrap();
        let err = serve.unhonoured_flag("cluster_sweep", &["--processes"]).unwrap_err();
        assert!(err.contains("--serve") && err.contains("cluster_daemon"), "{err}");
        let connect = parse(&["--connect", "/tmp/daemon.sock"]).unwrap();
        let err = connect.unhonoured_flag("cluster_power_cap", &["--processes"]).unwrap_err();
        assert!(err.contains("--connect") && err.contains("cluster_worker"), "{err}");
        assert_eq!(parse(&["--fast"]).unwrap().unhonoured_flag("coordinated_capping", &[]), Ok(()));
    }

    #[test]
    fn flag_combinations_compose() {
        let args = parse(&["--fast", "--jobs", "2", "--trace", "t.jsonl", "--seed", "5"]).unwrap();
        assert!(args.fast);
        assert_eq!((args.jobs, args.seed), (Some(2), Some(5)));
        assert_eq!(args.trace.as_deref(), Some("t.jsonl"));
        // Order independence.
        let swapped =
            parse(&["--seed", "5", "--trace", "t.jsonl", "--jobs", "2", "--fast"]).unwrap();
        assert_eq!(args, swapped);
        // The error reports the *first* offending flag.
        let err = parse(&["--seed", "bad", "--jobs"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn harness_opens_a_trace_sink_only_when_asked() {
        let harness = Harness::from_args(parse(&["--fast"]).unwrap());
        assert!(harness.telemetry_sink().is_none());
        assert!(format!("{harness:?}").contains("trace_sink: false"));

        let path = std::env::temp_dir().join("actor_bench_harness_trace.jsonl");
        let mut args = parse(&["--fast"]).unwrap();
        args.trace = Some(path.display().to_string());
        let harness = Harness::from_args(args);
        let sink = harness.telemetry_sink().expect("trace requested");
        sink.record(&actor_core::telemetry::TraceEvent::Progress {
            name: "t".into(),
            done: 1,
            expected: 1,
        });
        sink.flush();
        assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 1);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn file_reporter_writes_tables_and_artifacts() {
        let dir = std::env::temp_dir().join("actor_bench_reporter_test");
        let mut reporter = FileReporter::new(dir.clone());
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1", "2"]);
        reporter.table("unit_test_table", "unit test", &t);
        reporter.artifact("unit_test.json", "{}");
        let csv = fs::read_to_string(dir.join("unit_test_table.csv")).unwrap();
        assert!(csv.contains("a,b"));
        assert_eq!(fs::read_to_string(dir.join("unit_test.json")).unwrap(), "{}");
        let _ = fs::remove_dir_all(dir);
    }
}
