//! Structured telemetry: typed trace events, pluggable sinks, and a
//! metrics registry.
//!
//! Every decision loop in the workspace — the [`crate::ControlPlane`]'s
//! observe → decide cycle, the cluster's discrete-event loop, the
//! coordinator's per-event budget redistribution, and the sweep engine's
//! cell fan-out — can emit one typed [`TraceEvent`] per decision or event
//! into a [`TelemetrySink`]. Sinks are strictly opt-in: every instrumented
//! call site is gated on `Option<SharedSink>` being `Some`, so with no sink
//! attached the hot paths take no timestamps, build no records and allocate
//! nothing, and all outputs stay byte-identical to an uninstrumented build.
//!
//! The sinks that ship with the crate:
//!
//! * [`NullSink`] — accepts and discards everything (for byte-identity
//!   testing of the instrumented paths themselves);
//! * [`MemorySink`] — buffers events in memory for test assertions;
//! * [`JsonlSink`] — appends one JSON object per event to a file (the
//!   `--trace PATH` flag of the benchmark binaries), counting write errors
//!   ([`JsonlSink::write_errors`]) and warning to stderr once;
//! * [`RingSink`] — the lock-free hot-path sink: a bounded ring buffer
//!   drained by a background thread, never blocking the recorder (overflow
//!   is counted in [`RingSink::dropped_events`], not waited out); its
//!   [`RingSink::deferred`] flight-recorder mode holds a batch back from
//!   the inner sink until a flush;
//! * [`SpanSink`] — stamps each event with a [`SpanContext`] (run id,
//!   source identity, dense per-source sequence, current sweep cell) so
//!   traces from many processes merge into one causal timeline.
//!
//! [`TraceEvent`] also implements [`serde::Deserialize`], so a JSONL trace
//! (or an RPC `TraceBatch` frame) round-trips back into typed events;
//! [`SpannedEvent`] round-trips the same flat schema plus the span keys.
//!
//! [`MetricsRegistry`] is the aggregating counterpart: counters, gauges and
//! log-bucketed latency histograms with p50/p95/p99 snapshots. It
//! implements [`TelemetrySink`] itself, counting events by kind and feeding
//! decision/redistribution latencies into histograms — which is how the
//! `decision_bench` binary turns a trace stream into decisions-per-second
//! headlines. [`FanoutSink`] broadcasts one stream into several sinks
//! (e.g. a registry *and* a JSONL file).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

pub mod clock;
mod ring;
mod span;

pub use ring::RingSink;
pub use span::{SpanContext, SpanSink, SpannedEvent};

/// The shared, thread-safe handle instrumented code stores: sinks cross
/// worker-pool and live-runtime boundaries, so they are reference-counted
/// trait objects rather than borrows.
pub type SharedSink = Arc<dyn TelemetrySink>;

/// One structured record from an instrumented decision loop.
///
/// Serialized (via [`serde::Serialize`]) as a flat JSON object whose
/// `"event"` field names the variant in `snake_case` — the schema the
/// README's Observability section documents.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// One validated [`crate::ControlPlane::decide`] call.
    Decision {
        /// Raw id of the phase being decided.
        phase: u32,
        /// [`crate::controller::PowerPerfController::name`] of the decider.
        controller: &'static str,
        /// Concurrency candidates offered to the controller.
        candidates: usize,
        /// Joint (threads × frequency) menu size (0 = no DVFS axis offered).
        joint_cells: usize,
        /// Threads of the validated binding (the chosen concurrency).
        threads: usize,
        /// Chosen frequency-step index (0 = nominal).
        freq_step: u8,
        /// Variant name of the decision's [`crate::controller::Rationale`].
        rationale: &'static str,
        /// IPC sampled for the phase, when the plane observed one.
        ipc: Option<f64>,
        /// Memory-stall fraction sampled for the phase, when observed.
        stall_fraction: Option<f64>,
        /// The average-power cap offered to the controller (W).
        power_cap_w: Option<f64>,
        /// Wall-clock latency of the decide call (ns); 0 when this
        /// decision was not latency-sampled (the control plane stamps one
        /// in sixteen — see [`TraceEvent::latency_ns`]).
        latency_ns: u64,
    },
    /// A job joined the cluster queue.
    JobArrival {
        /// Simulation time (s).
        time_s: f64,
        /// Job id.
        job: usize,
        /// Benchmark the job runs.
        benchmark: String,
        /// Gang width (nodes) the job needs.
        width: usize,
    },
    /// A job started on its gang.
    JobStart {
        /// Simulation time (s).
        time_s: f64,
        /// Job id.
        job: usize,
        /// Gang width (nodes).
        width: usize,
        /// Per-node peak draw of the chosen plan (W).
        node_peak_w: f64,
        /// Planned execution time (s).
        exec_time_s: f64,
    },
    /// A gang completed.
    JobCompletion {
        /// Simulation time (s).
        time_s: f64,
        /// Job id.
        job: usize,
        /// Gang width (nodes).
        width: usize,
        /// Energy the gang consumed (J).
        energy_j: f64,
    },
    /// A node crashed (scenario fault injection).
    NodeFailed {
        /// Simulation time (s).
        time_s: f64,
        /// Node id.
        node: usize,
    },
    /// A crashed node came back.
    NodeRecovered {
        /// Simulation time (s).
        time_s: f64,
        /// Node id.
        node: usize,
    },
    /// A job with an SLO deadline missed it (at completion, or when a fault
    /// policy killed it).
    SloViolated {
        /// Simulation time (s).
        time_s: f64,
        /// Job id.
        job: usize,
        /// The deadline the job carried (s).
        deadline_s: f64,
        /// When the job actually finished — or was killed (s).
        finish_s: f64,
    },
    /// One `CapCoordinator::redistribute` invocation in `cluster-sched`.
    Redistribute {
        /// Simulation time (s).
        time_s: f64,
        /// Jobs whose gang fit the idle nodes (the startable prefix).
        startable: usize,
        /// Jobs actually granted a cap this event.
        admitted: usize,
        /// Power headroom observed before redistribution (W).
        headroom_before_w: f64,
        /// Headroom left after all caps were granted (W).
        headroom_after_w: f64,
        /// Greedy menu upgrades performed across all admitted jobs.
        upgrades: usize,
        /// Wall-clock latency of the redistribution (ns).
        latency_ns: u64,
    },
    /// One completed cell of a sweep grid.
    SweepCell {
        /// Cell position in the deterministic expansion order.
        index: usize,
        /// Cluster size of the cell.
        nodes: usize,
        /// Budget tier label.
        budget: String,
        /// Policy name.
        policy: String,
        /// Workload seed.
        seed: u64,
        /// Simulated makespan (s).
        makespan_s: f64,
        /// Total cluster energy (J).
        total_energy_j: f64,
    },
    /// A progress note from a [`crate::StreamingReporter`].
    Progress {
        /// Table name the reporter streams into.
        name: String,
        /// Rows received so far.
        done: usize,
        /// Rows expected in total.
        expected: usize,
    },
    /// A worker completed the daemon handshake (daemon-side lifecycle).
    WorkerConnected {
        /// Worker name from its `Hello`.
        worker: String,
    },
    /// The daemon declared a worker dead (daemon-side lifecycle).
    WorkerDead {
        /// Worker name.
        worker: String,
        /// Why: connection loss, heartbeat stall, or protocol violation.
        reason: String,
    },
    /// A cell held by a dead worker went back into the daemon's queue
    /// (daemon-side lifecycle; emitted whether the retry budget allows a
    /// re-run or routes the cell to terminal failure).
    CellReassigned {
        /// Cell index in the sweep grid.
        index: usize,
        /// Worker that held the cell when it died.
        worker: String,
        /// Dispatch attempts the cell has consumed so far.
        attempt: usize,
    },
}

impl TraceEvent {
    /// The `snake_case` kind tag of the variant — the `"event"` field of the
    /// serialized record and the counter key in [`MetricsRegistry`].
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::JobArrival { .. } => "job_arrival",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobCompletion { .. } => "job_completion",
            TraceEvent::NodeFailed { .. } => "node_failed",
            TraceEvent::NodeRecovered { .. } => "node_recovered",
            TraceEvent::SloViolated { .. } => "slo_violated",
            TraceEvent::Redistribute { .. } => "redistribute",
            TraceEvent::SweepCell { .. } => "sweep_cell",
            TraceEvent::Progress { .. } => "progress",
            TraceEvent::WorkerConnected { .. } => "worker_connected",
            TraceEvent::WorkerDead { .. } => "worker_dead",
            TraceEvent::CellReassigned { .. } => "cell_reassigned",
        }
    }

    /// The latency the event carries, for variants that time a hot path.
    /// `None` for variants with no latency field *and* for unsampled
    /// records: latency stamping is sampled on the decide hot path, and
    /// unstamped records carry the sentinel 0 (a real measurement can
    /// never round to 0 ns — a decide is hundreds of ns).
    pub fn latency_ns(&self) -> Option<u64> {
        match self {
            TraceEvent::Decision { latency_ns, .. }
            | TraceEvent::Redistribute { latency_ns, .. } => {
                (*latency_ns > 0).then_some(*latency_ns)
            }
            _ => None,
        }
    }

    /// The registry histogram name for this event's latency samples —
    /// `"{kind}_latency_ns"`, precomputed so [`MetricsRegistry`] delivery
    /// never allocates the `String` per event (or per batch) just to look
    /// the histogram up.
    pub fn latency_metric_name(&self) -> &'static str {
        match self {
            TraceEvent::Decision { .. } => "decision_latency_ns",
            TraceEvent::JobArrival { .. } => "job_arrival_latency_ns",
            TraceEvent::JobStart { .. } => "job_start_latency_ns",
            TraceEvent::JobCompletion { .. } => "job_completion_latency_ns",
            TraceEvent::NodeFailed { .. } => "node_failed_latency_ns",
            TraceEvent::NodeRecovered { .. } => "node_recovered_latency_ns",
            TraceEvent::SloViolated { .. } => "slo_violated_latency_ns",
            TraceEvent::Redistribute { .. } => "redistribute_latency_ns",
            TraceEvent::SweepCell { .. } => "sweep_cell_latency_ns",
            TraceEvent::Progress { .. } => "progress_latency_ns",
            TraceEvent::WorkerConnected { .. } => "worker_connected_latency_ns",
            TraceEvent::WorkerDead { .. } => "worker_dead_latency_ns",
            TraceEvent::CellReassigned { .. } => "cell_reassigned_latency_ns",
        }
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let opt = |v: &Option<f64>| match v {
            Some(x) => Value::Float(*x),
            None => Value::Null,
        };
        let mut m: Vec<(String, Value)> = vec![("event".into(), Value::Str(self.kind().into()))];
        match self {
            TraceEvent::Decision {
                phase,
                controller,
                candidates,
                joint_cells,
                threads,
                freq_step,
                rationale,
                ipc,
                stall_fraction,
                power_cap_w,
                latency_ns,
            } => {
                m.push(("phase".into(), Value::UInt(u64::from(*phase))));
                m.push(("controller".into(), Value::Str((*controller).into())));
                m.push(("candidates".into(), Value::UInt(*candidates as u64)));
                m.push(("joint_cells".into(), Value::UInt(*joint_cells as u64)));
                m.push(("threads".into(), Value::UInt(*threads as u64)));
                m.push(("freq_step".into(), Value::UInt(u64::from(*freq_step))));
                m.push(("rationale".into(), Value::Str((*rationale).into())));
                m.push(("ipc".into(), opt(ipc)));
                m.push(("stall_fraction".into(), opt(stall_fraction)));
                m.push(("power_cap_w".into(), opt(power_cap_w)));
                m.push(("latency_ns".into(), Value::UInt(*latency_ns)));
            }
            TraceEvent::JobArrival { time_s, job, benchmark, width } => {
                m.push(("time_s".into(), Value::Float(*time_s)));
                m.push(("job".into(), Value::UInt(*job as u64)));
                m.push(("benchmark".into(), Value::Str(benchmark.clone())));
                m.push(("width".into(), Value::UInt(*width as u64)));
            }
            TraceEvent::JobStart { time_s, job, width, node_peak_w, exec_time_s } => {
                m.push(("time_s".into(), Value::Float(*time_s)));
                m.push(("job".into(), Value::UInt(*job as u64)));
                m.push(("width".into(), Value::UInt(*width as u64)));
                m.push(("node_peak_w".into(), Value::Float(*node_peak_w)));
                m.push(("exec_time_s".into(), Value::Float(*exec_time_s)));
            }
            TraceEvent::JobCompletion { time_s, job, width, energy_j } => {
                m.push(("time_s".into(), Value::Float(*time_s)));
                m.push(("job".into(), Value::UInt(*job as u64)));
                m.push(("width".into(), Value::UInt(*width as u64)));
                m.push(("energy_j".into(), Value::Float(*energy_j)));
            }
            TraceEvent::NodeFailed { time_s, node }
            | TraceEvent::NodeRecovered { time_s, node } => {
                m.push(("time_s".into(), Value::Float(*time_s)));
                m.push(("node".into(), Value::UInt(*node as u64)));
            }
            TraceEvent::SloViolated { time_s, job, deadline_s, finish_s } => {
                m.push(("time_s".into(), Value::Float(*time_s)));
                m.push(("job".into(), Value::UInt(*job as u64)));
                m.push(("deadline_s".into(), Value::Float(*deadline_s)));
                m.push(("finish_s".into(), Value::Float(*finish_s)));
            }
            TraceEvent::Redistribute {
                time_s,
                startable,
                admitted,
                headroom_before_w,
                headroom_after_w,
                upgrades,
                latency_ns,
            } => {
                m.push(("time_s".into(), Value::Float(*time_s)));
                m.push(("startable".into(), Value::UInt(*startable as u64)));
                m.push(("admitted".into(), Value::UInt(*admitted as u64)));
                m.push(("headroom_before_w".into(), Value::Float(*headroom_before_w)));
                m.push(("headroom_after_w".into(), Value::Float(*headroom_after_w)));
                m.push(("upgrades".into(), Value::UInt(*upgrades as u64)));
                m.push(("latency_ns".into(), Value::UInt(*latency_ns)));
            }
            TraceEvent::SweepCell {
                index,
                nodes,
                budget,
                policy,
                seed,
                makespan_s,
                total_energy_j,
            } => {
                m.push(("index".into(), Value::UInt(*index as u64)));
                m.push(("nodes".into(), Value::UInt(*nodes as u64)));
                m.push(("budget".into(), Value::Str(budget.clone())));
                m.push(("policy".into(), Value::Str(policy.clone())));
                m.push(("seed".into(), Value::UInt(*seed)));
                m.push(("makespan_s".into(), Value::Float(*makespan_s)));
                m.push(("total_energy_j".into(), Value::Float(*total_energy_j)));
            }
            TraceEvent::Progress { name, done, expected } => {
                m.push(("name".into(), Value::Str(name.clone())));
                m.push(("done".into(), Value::UInt(*done as u64)));
                m.push(("expected".into(), Value::UInt(*expected as u64)));
            }
            TraceEvent::WorkerConnected { worker } => {
                m.push(("worker".into(), Value::Str(worker.clone())));
            }
            TraceEvent::WorkerDead { worker, reason } => {
                m.push(("worker".into(), Value::Str(worker.clone())));
                m.push(("reason".into(), Value::Str(reason.clone())));
            }
            TraceEvent::CellReassigned { index, worker, attempt } => {
                m.push(("index".into(), Value::UInt(*index as u64)));
                m.push(("worker".into(), Value::Str(worker.clone())));
                m.push(("attempt".into(), Value::UInt(*attempt as u64)));
            }
        }
        Value::Map(m)
    }
}

/// Interns a string into a `&'static str`.
///
/// [`TraceEvent::Decision`] carries two `&'static str` fields (controller
/// and rationale names) that are string literals on the serializing side.
/// Deserialization leaks each *distinct* name once and reuses it afterwards
/// — the name space is the closed set of controller/rationale labels, so
/// the leak is bounded and a long-running daemon can decode traces forever.
fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED.get_or_init(|| Mutex::new(BTreeSet::new())).lock();
    if let Some(existing) = set.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

impl Deserialize for TraceEvent {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        fn req<T: Deserialize>(m: &Value, key: &str) -> Result<T, SerdeError> {
            T::from_value(m.get(key).ok_or_else(|| SerdeError::missing_field(key))?)
        }
        let kind: String = req(value, "event")?;
        match kind.as_str() {
            "decision" => Ok(TraceEvent::Decision {
                phase: req(value, "phase")?,
                controller: intern(&req::<String>(value, "controller")?),
                candidates: req(value, "candidates")?,
                joint_cells: req(value, "joint_cells")?,
                threads: req(value, "threads")?,
                freq_step: req(value, "freq_step")?,
                rationale: intern(&req::<String>(value, "rationale")?),
                ipc: req(value, "ipc")?,
                stall_fraction: req(value, "stall_fraction")?,
                power_cap_w: req(value, "power_cap_w")?,
                latency_ns: req(value, "latency_ns")?,
            }),
            "job_arrival" => Ok(TraceEvent::JobArrival {
                time_s: req(value, "time_s")?,
                job: req(value, "job")?,
                benchmark: req(value, "benchmark")?,
                width: req(value, "width")?,
            }),
            "job_start" => Ok(TraceEvent::JobStart {
                time_s: req(value, "time_s")?,
                job: req(value, "job")?,
                width: req(value, "width")?,
                node_peak_w: req(value, "node_peak_w")?,
                exec_time_s: req(value, "exec_time_s")?,
            }),
            "job_completion" => Ok(TraceEvent::JobCompletion {
                time_s: req(value, "time_s")?,
                job: req(value, "job")?,
                width: req(value, "width")?,
                energy_j: req(value, "energy_j")?,
            }),
            "node_failed" => Ok(TraceEvent::NodeFailed {
                time_s: req(value, "time_s")?,
                node: req(value, "node")?,
            }),
            "node_recovered" => Ok(TraceEvent::NodeRecovered {
                time_s: req(value, "time_s")?,
                node: req(value, "node")?,
            }),
            "slo_violated" => Ok(TraceEvent::SloViolated {
                time_s: req(value, "time_s")?,
                job: req(value, "job")?,
                deadline_s: req(value, "deadline_s")?,
                finish_s: req(value, "finish_s")?,
            }),
            "redistribute" => Ok(TraceEvent::Redistribute {
                time_s: req(value, "time_s")?,
                startable: req(value, "startable")?,
                admitted: req(value, "admitted")?,
                headroom_before_w: req(value, "headroom_before_w")?,
                headroom_after_w: req(value, "headroom_after_w")?,
                upgrades: req(value, "upgrades")?,
                latency_ns: req(value, "latency_ns")?,
            }),
            "sweep_cell" => Ok(TraceEvent::SweepCell {
                index: req(value, "index")?,
                nodes: req(value, "nodes")?,
                budget: req(value, "budget")?,
                policy: req(value, "policy")?,
                seed: req(value, "seed")?,
                makespan_s: req(value, "makespan_s")?,
                total_energy_j: req(value, "total_energy_j")?,
            }),
            "progress" => Ok(TraceEvent::Progress {
                name: req(value, "name")?,
                done: req(value, "done")?,
                expected: req(value, "expected")?,
            }),
            "worker_connected" => Ok(TraceEvent::WorkerConnected { worker: req(value, "worker")? }),
            "worker_dead" => Ok(TraceEvent::WorkerDead {
                worker: req(value, "worker")?,
                reason: req(value, "reason")?,
            }),
            "cell_reassigned" => Ok(TraceEvent::CellReassigned {
                index: req(value, "index")?,
                worker: req(value, "worker")?,
                attempt: req(value, "attempt")?,
            }),
            other => Err(SerdeError::custom(format!("unknown trace event kind {other:?}"))),
        }
    }
}

/// Receives [`TraceEvent`]s from instrumented decision loops.
///
/// Implementations must be cheap and non-blocking enough to sit on hot
/// paths, and interiorly mutable (`record` takes `&self`): one sink is
/// shared across sweep workers and live-runtime locks via [`SharedSink`].
pub trait TelemetrySink: Send + Sync {
    /// Accepts one event. Called synchronously from the instrumented path.
    fn record(&self, event: &TraceEvent);

    /// Accepts one event by value. Sinks that copy the event into owned
    /// storage anyway ([`RingSink`], [`MemorySink`])
    /// override this to consume it directly, so a hot-path caller pays one
    /// event construction instead of build-plus-clone. The default
    /// forwards to [`TelemetrySink::record`]; behaviour is identical
    /// either way.
    fn record_owned(&self, event: TraceEvent) {
        self.record(&event);
    }

    /// Accepts a batch of span-stamped events in order.
    ///
    /// This is the path causal traces travel: a [`SpanSink`] stamps events
    /// and forwards them here, the distributed daemon re-ingests worker
    /// `TraceBatch` frames through it, and span-aware sinks
    /// ([`JsonlSink`], [`MemorySink`], [`RingSink`], …) override it to
    /// preserve the stamps. The default strips spans and forwards the bare
    /// events to [`TelemetrySink::record`], so span-oblivious sinks (a
    /// metrics registry, a custom aggregator) keep working unchanged.
    fn record_spanned(&self, events: &[SpannedEvent]) {
        for event in events {
            self.record(&event.event);
        }
    }

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Accepts and discards every event — the sink to attach when only the
/// *instrumented code path* should be exercised (byte-identity tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&self, _event: &TraceEvent) {}

    fn record_owned(&self, _event: TraceEvent) {}

    fn record_spanned(&self, _events: &[SpannedEvent]) {}
}

/// Buffers every event in memory, for tests and in-process inspection.
/// Span stamps are kept when events arrive through
/// [`TelemetrySink::record_spanned`] (see [`MemorySink::spanned_events`]).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<SpannedEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// A snapshot of every recorded event, in arrival order, spans
    /// stripped.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().map(|e| e.event.clone()).collect()
    }

    /// A snapshot of every recorded event with its span stamp (if it
    /// arrived with one), in arrival order.
    pub fn spanned_events(&self) -> Vec<SpannedEvent> {
        self.events.lock().clone()
    }

    /// Drains and returns every recorded event, spans stripped.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock()).into_iter().map(|e| e.event).collect()
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events.lock().push(SpannedEvent::unspanned(event.clone()));
    }

    fn record_owned(&self, event: TraceEvent) {
        self.events.lock().push(SpannedEvent::unspanned(event));
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        self.events.lock().extend_from_slice(events);
    }
}

/// Appends one compact JSON object per event to a file — the sink behind
/// the benchmark binaries' `--trace PATH` flag. Events arriving through
/// [`TelemetrySink::record_spanned`] keep their span keys on the line.
///
/// Write errors (full disk, closed descriptor) must not panic or stall the
/// simulation being observed, but they must not vanish either: each failed
/// write bumps a counter readable as [`JsonlSink::write_errors`], and the
/// first failure prints one warning to stderr.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    path: String,
    errors: std::sync::atomic::AtomicU64,
    warned: std::sync::atomic::AtomicBool,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(&path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
            path: path.as_ref().display().to_string(),
            errors: std::sync::atomic::AtomicU64::new(0),
            warned: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Write/flush failures so far. Non-zero means the trace file is
    /// incomplete even though the run itself carried on.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn note_error(&self, err: &io::Error) {
        use std::sync::atomic::Ordering;
        self.errors.fetch_add(1, Ordering::Relaxed);
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: trace file {}: {err}; the run continues but the trace is incomplete \
                 (further write errors are counted silently)",
                self.path
            );
        }
    }

    fn write_line(&self, out: &mut BufWriter<File>, line: &str) {
        if let Err(err) = writeln!(out, "{line}") {
            self.note_error(&err);
        }
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("path", &self.path)
            .field("write_errors", &self.write_errors())
            .finish_non_exhaustive()
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let line = serde_json::to_string(event).expect("trace events always serialize");
        let mut out = self.out.lock();
        self.write_line(&mut out, &line);
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        let mut out = self.out.lock();
        for event in events {
            let line = serde_json::to_string(event).expect("trace events always serialize");
            self.write_line(&mut out, &line);
        }
    }

    fn flush(&self) {
        if let Err(err) = self.out.lock().flush() {
            self.note_error(&err);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Broadcasts every event to several sinks (e.g. a [`MetricsRegistry`] for
/// aggregation *and* a [`JsonlSink`] for the raw trace).
#[derive(Clone, Default)]
pub struct FanoutSink {
    sinks: Vec<SharedSink>,
}

impl FanoutSink {
    /// Fans out to `sinks`, in order.
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        Self { sinks }
    }
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutSink").field("sinks", &self.sinks.len()).finish()
    }
}

impl TelemetrySink for FanoutSink {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        for sink in &self.sinks {
            sink.record_spanned(events);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Number of log₂ buckets a [`Histogram`] keeps: bucket `i` holds values
/// whose bit length is `i`, so 65 buckets cover the full `u64` range.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed latency histogram: O(1) insertion, 65 fixed buckets,
/// exact count/min/max/mean and approximate quantiles (each bucket spans
/// one power of two, so a quantile is accurate to within ~50 %, plenty for
/// order-of-magnitude latency headlines).
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0.0, min: u64::MAX, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    /// Records one value (typically a latency in ns).
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one (used by batch aggregation:
    /// observe into a thread-local histogram, merge under the lock once).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (bucket, add) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket += add;
        }
    }

    /// The approximate `q`-quantile (`0.0 ..= 1.0`): the geometric midpoint
    /// of the bucket holding the `q`-th value, clamped to the exact
    /// observed min/max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i covers [2^(i-1), 2^i); represent it by 1.5·2^(i-1).
                let mid = if i == 0 { 0.0 } else { 1.5 * (i as f64 - 1.0).exp2() };
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// An immutable summary of the histogram's current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: if self.count == 0 { 0.0 } else { self.sum / self.count as f64 },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A point-in-time summary of one [`Histogram`]: exact count/min/max/mean
/// plus approximate p50/p95/p99 (same unit as the recorded values).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named counters, gauges and latency [`Histogram`]s.
///
/// As a [`TelemetrySink`] it aggregates instead of storing: every event
/// bumps the counter named after its [`TraceEvent::kind`], and events that
/// carry a latency ([`TraceEvent::latency_ns`]) feed the
/// `"<kind>_latency_ns"` histogram — so attaching a registry to an
/// instrumented loop yields decisions/s and p50/p95/p99 headlines with no
/// per-event storage.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to the counter `name` (created at 0 on first use).
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        *self.inner.lock().counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of the counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.lock().counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner.lock().gauges.insert(name.to_string(), value);
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().gauges.get(name).copied()
    }

    /// Records one value into the histogram `name` (created on first use).
    pub fn observe(&self, name: &str, value: u64) {
        self.inner.lock().histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// A snapshot of the histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner.lock().histograms.get(name).map(Histogram::snapshot)
    }

    /// Snapshots of every histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner.lock().histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
    }

    /// Renders the whole registry as plain `name value` lines, one metric
    /// per line, deterministically ordered — the text exposition the
    /// cluster daemon serves over `Message::MetricsRequest` and
    /// `cluster_daemon --metrics` prints. Histograms expand into
    /// `_count`/`_min`/`_max`/`_mean`/`_p50`/`_p95`/`_p99` lines.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.inner.lock();
        let mut out = String::new();
        for (name, value) in &inner.counters {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &inner.gauges {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in &inner.histograms {
            let snap = histogram.snapshot();
            let _ = writeln!(out, "{name}_count {}", snap.count);
            let _ = writeln!(out, "{name}_min {}", snap.min);
            let _ = writeln!(out, "{name}_max {}", snap.max);
            let _ = writeln!(out, "{name}_mean {}", snap.mean);
            let _ = writeln!(out, "{name}_p50 {}", snap.p50);
            let _ = writeln!(out, "{name}_p95 {}", snap.p95);
            let _ = writeln!(out, "{name}_p99 {}", snap.p99);
        }
        out
    }

    /// Batch aggregation core: tallies the batch into per-kind totals and
    /// scratch histograms *outside* the lock — the kind set is tiny, so a
    /// linear scan beats any map — then applies one map update per
    /// distinct kind. A naive per-event loop costs a `String` allocation
    /// and a `BTreeMap` walk per event (two for latency-carrying events);
    /// on the `RingSink` drainer that made delivery more expensive than
    /// the decide loop being traced. Names are only allocated the first
    /// time a kind appears in the registry.
    fn aggregate<'a>(&self, events: impl Iterator<Item = &'a TraceEvent>) {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        let mut latencies: Vec<(&'static str, Histogram)> = Vec::new();
        for event in events {
            let kind = event.kind();
            match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((kind, 1)),
            }
            if let Some(ns) = event.latency_ns() {
                let name = event.latency_metric_name();
                match latencies.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, h)) => h.observe(ns),
                    None => {
                        let mut h = Histogram::default();
                        h.observe(ns);
                        latencies.push((name, h));
                    }
                }
            }
        }
        if counts.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        for (kind, n) in counts {
            match inner.counters.get_mut(kind) {
                Some(counter) => *counter += n,
                None => {
                    inner.counters.insert(kind.to_string(), n);
                }
            }
        }
        for (name, scratch) in latencies {
            // `name` is the precomputed `&'static` histogram key; the
            // `String` is only allocated the first time a kind appears.
            match inner.histograms.get_mut(name) {
                Some(histogram) => histogram.merge(&scratch),
                None => {
                    inner.histograms.insert(name.to_string(), scratch);
                }
            }
        }
    }
}

impl TelemetrySink for MetricsRegistry {
    fn record(&self, event: &TraceEvent) {
        let kind = event.kind();
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(kind) {
            Some(counter) => *counter += 1,
            None => {
                inner.counters.insert(kind.to_string(), 1);
            }
        }
        if let Some(ns) = event.latency_ns() {
            let name = event.latency_metric_name();
            match inner.histograms.get_mut(name) {
                Some(histogram) => histogram.observe(ns),
                None => {
                    let mut h = Histogram::default();
                    h.observe(ns);
                    inner.histograms.insert(name.to_string(), h);
                }
            }
        }
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        // Aggregation ignores spans.
        self.aggregate(events.iter().map(|event| &event.event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(latency_ns: u64) -> TraceEvent {
        TraceEvent::Decision {
            phase: 7,
            controller: "decision-table",
            candidates: 5,
            joint_cells: 20,
            threads: 2,
            freq_step: 1,
            rationale: "Predicted",
            ipc: Some(1.25),
            stall_fraction: Some(0.4),
            power_cap_w: Some(140.0),
            latency_ns,
        }
    }

    #[test]
    fn kinds_and_latencies_are_exposed() {
        assert_eq!(decision(9).kind(), "decision");
        assert_eq!(decision(9).latency_ns(), Some(9));
        assert_eq!(decision(0).latency_ns(), None, "0 is the unsampled sentinel");
        let arrival =
            TraceEvent::JobArrival { time_s: 0.0, job: 1, benchmark: "CG".into(), width: 2 };
        assert_eq!(arrival.kind(), "job_arrival");
        assert_eq!(arrival.latency_ns(), None);
    }

    #[test]
    fn events_serialize_flat_with_an_event_tag() {
        let v = decision(123).to_value();
        assert_eq!(v.get("event"), Some(&Value::Str("decision".into())));
        assert_eq!(v.get("phase"), Some(&Value::UInt(7)));
        assert_eq!(v.get("rationale"), Some(&Value::Str("Predicted".into())));
        assert_eq!(v.get("latency_ns"), Some(&Value::UInt(123)));
        let line = serde_json::to_string(&decision(123)).unwrap();
        assert!(line.starts_with("{\"event\":\"decision\""), "{line}");
        assert!(!line.contains('\n'));

        let mut none = decision(1);
        if let TraceEvent::Decision { ipc, stall_fraction, power_cap_w, .. } = &mut none {
            *ipc = None;
            *stall_fraction = None;
            *power_cap_w = None;
        }
        assert_eq!(none.to_value().get("ipc"), Some(&Value::Null));
    }

    #[test]
    fn every_event_variant_round_trips_through_json() {
        let events = vec![
            decision(123),
            TraceEvent::JobArrival { time_s: 1.5, job: 3, benchmark: "CG".into(), width: 2 },
            TraceEvent::JobStart {
                time_s: 2.0,
                job: 3,
                width: 2,
                node_peak_w: 151.25,
                exec_time_s: 40.5,
            },
            TraceEvent::JobCompletion { time_s: 42.5, job: 3, width: 2, energy_j: 1.25e4 },
            TraceEvent::NodeFailed { time_s: 17.25, node: 5 },
            TraceEvent::NodeRecovered { time_s: 33.5, node: 5 },
            TraceEvent::SloViolated { time_s: 99.0, job: 3, deadline_s: 80.0, finish_s: 99.0 },
            TraceEvent::Redistribute {
                time_s: 42.5,
                startable: 4,
                admitted: 3,
                headroom_before_w: 200.0,
                headroom_after_w: 12.5,
                upgrades: 2,
                latency_ns: 777,
            },
            TraceEvent::SweepCell {
                index: 9,
                nodes: 8,
                budget: "tight".into(),
                policy: "power-aware".into(),
                seed: 2007,
                makespan_s: 512.0,
                total_energy_j: 9.5e5,
            },
            TraceEvent::Progress { name: "sweep".into(), done: 3, expected: 48 },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "round-trip of {json}");
        }

        // Option fields survive as Null.
        let mut none = decision(1);
        if let TraceEvent::Decision { ipc, stall_fraction, power_cap_w, .. } = &mut none {
            *ipc = None;
            *stall_fraction = None;
            *power_cap_w = None;
        }
        let back: TraceEvent =
            serde_json::from_str(&serde_json::to_string(&none).unwrap()).unwrap();
        assert_eq!(back, none);

        // Deserialized &'static str fields intern to the same content, and
        // repeated decodes reuse the same interned pointer.
        if let (
            TraceEvent::Decision { controller: a, .. },
            TraceEvent::Decision { controller: b, .. },
        ) = (
            serde_json::from_str::<TraceEvent>(&serde_json::to_string(&decision(1)).unwrap())
                .unwrap(),
            serde_json::from_str::<TraceEvent>(&serde_json::to_string(&decision(2)).unwrap())
                .unwrap(),
        ) {
            assert!(std::ptr::eq(a, b));
        } else {
            panic!("decisions decode as decisions");
        }
    }

    #[test]
    fn deserialize_rejects_unknown_kinds_and_missing_fields() {
        let err = serde_json::from_str::<TraceEvent>("{\"event\":\"warp_drive\"}").unwrap_err();
        assert!(err.to_string().contains("warp_drive"), "{err}");
        let err =
            serde_json::from_str::<TraceEvent>("{\"event\":\"progress\",\"done\":1}").unwrap_err();
        assert!(err.to_string().contains("name") || err.to_string().contains("expected"), "{err}");
        assert!(serde_json::from_str::<TraceEvent>("{\"done\":1}").is_err());
    }

    #[test]
    fn memory_sink_buffers_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&decision(1));
        sink.record(&decision(2));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].latency_ns(), Some(1));
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        sink.record(&decision(1));
        sink.flush();
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_record_per_line() {
        let path = std::env::temp_dir().join("actor_telemetry_jsonl_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&decision(11));
        sink.record(&TraceEvent::Progress { name: "sweep".into(), done: 1, expected: 2 });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("event"), Some(&Value::Str("decision".into())));
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("done"), Some(&Value::UInt(1)));
        drop(sink);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MetricsRegistry::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.record(&decision(5));
        fan.flush();
        assert_eq!(a.len(), 1);
        assert_eq!(b.counter("decision"), 1);
    }

    #[test]
    fn record_spanned_default_and_overrides_agree() {
        let events: Vec<SpannedEvent> =
            [decision(10), decision(20)].into_iter().map(SpannedEvent::unspanned).collect();
        // The registry's batch aggregation matches one `record` per event.
        let reg = MetricsRegistry::new();
        reg.record_spanned(&events);
        assert_eq!(reg.counter("decision"), 2);
        assert_eq!(reg.histogram("decision_latency_ns").unwrap().count, 2);
        let one_by_one = MetricsRegistry::new();
        for event in &events {
            one_by_one.record(&event.event);
        }
        assert_eq!(reg.render_text(), one_by_one.render_text());

        let mem = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![mem.clone()]);
        fan.record_spanned(&events);
        assert_eq!(mem.spanned_events(), events);

        // The default implementation forwards each bare event to `record`.
        struct Count(Mutex<usize>);
        impl TelemetrySink for Count {
            fn record(&self, _event: &TraceEvent) {
                *self.0.lock() += 1;
            }
        }
        let count = Count(Mutex::new(0));
        count.record_spanned(&events);
        assert_eq!(*count.0.lock(), 2);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_accurate() {
        let mut h = Histogram::default();
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.quantile(0.5), 0.0);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!((snap.min, snap.max), (1, 1000));
        assert!((snap.mean - 500.5).abs() < 1e-9);
        // log2 buckets: the true p50 is 500, the bucket midpoint 1.5·256.
        assert!(snap.p50 >= 250.0 && snap.p50 <= 1000.0, "p50 = {}", snap.p50);
        assert!(snap.p95 >= snap.p50 && snap.p99 >= snap.p95);
        assert!(snap.p99 <= snap.max as f64);

        let mut single = Histogram::default();
        single.observe(42);
        let snap = single.snapshot();
        assert_eq!((snap.min, snap.max), (42, 42));
        assert_eq!(snap.p50, 42.0);
        assert_eq!(snap.p99, 42.0);
        // Zero lands in bucket 0 without panicking.
        single.observe(0);
        assert_eq!(single.snapshot().min, 0);
        single.observe(u64::MAX);
        assert_eq!(single.snapshot().max, u64::MAX);
    }

    #[test]
    fn registry_counts_events_and_buckets_latencies() {
        let reg = MetricsRegistry::new();
        reg.record(&decision(100));
        reg.record(&decision(200));
        reg.record(&TraceEvent::JobArrival {
            time_s: 0.0,
            job: 0,
            benchmark: "IS".into(),
            width: 1,
        });
        assert_eq!(reg.counter("decision"), 2);
        assert_eq!(reg.counter("job_arrival"), 1);
        assert_eq!(reg.counter("nonexistent"), 0);
        let snap = reg.histogram("decision_latency_ns").unwrap();
        assert_eq!(snap.count, 2);
        assert_eq!((snap.min, snap.max), (100, 200));
        assert!(reg.histogram("job_arrival_latency_ns").is_none());
        assert_eq!(reg.counters().len(), 2);
        assert_eq!(reg.histograms().len(), 1);

        reg.incr("custom");
        reg.add("custom", 4);
        assert_eq!(reg.counter("custom"), 5);
        reg.set_gauge("headroom_w", 42.5);
        assert_eq!(reg.gauge("headroom_w"), Some(42.5));
        assert_eq!(reg.gauge("missing"), None);
        reg.observe("manual", 7);
        assert_eq!(reg.histogram("manual").unwrap().count, 1);
    }

    fn span(seq: u64, cell: Option<u64>) -> SpanContext {
        SpanContext { run_id: 42, source: "worker-1".into(), seq, cell }
    }

    #[test]
    fn lifecycle_events_round_trip_through_json() {
        let events = vec![
            TraceEvent::WorkerConnected { worker: "local-0".into() },
            TraceEvent::WorkerDead { worker: "local-0".into(), reason: "heartbeat stall".into() },
            TraceEvent::CellReassigned { index: 7, worker: "local-0".into(), attempt: 2 },
        ];
        assert_eq!(events[0].kind(), "worker_connected");
        assert_eq!(events[1].kind(), "worker_dead");
        assert_eq!(events[2].kind(), "cell_reassigned");
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "round-trip of {json}");
            assert_eq!(event.latency_ns(), None);
        }
    }

    #[test]
    fn spanned_events_serialize_flat_and_round_trip() {
        let spanned = SpannedEvent { span: Some(span(9, Some(3))), event: decision(123) };
        let v = spanned.to_value();
        // Flat: the event's own keys plus the span keys, one object.
        assert_eq!(v.get("event"), Some(&Value::Str("decision".into())));
        assert_eq!(v.get("run_id"), Some(&Value::UInt(42)));
        assert_eq!(v.get("source"), Some(&Value::Str("worker-1".into())));
        assert_eq!(v.get("seq"), Some(&Value::UInt(9)));
        assert_eq!(v.get("cell"), Some(&Value::UInt(3)));

        let json = serde_json::to_string(&spanned).unwrap();
        let back: SpannedEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spanned);

        // The same line still decodes as a bare TraceEvent (span keys are
        // ignored), so pre-span consumers keep working.
        let bare: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(bare, spanned.event);

        // And an unspanned line decodes with span: None, cell: Null works.
        let unspanned = SpannedEvent::unspanned(decision(5));
        let back: SpannedEvent =
            serde_json::from_str(&serde_json::to_string(&unspanned).unwrap()).unwrap();
        assert_eq!(back.span, None);
        let no_cell = SpannedEvent { span: Some(span(0, None)), event: decision(5) };
        let back: SpannedEvent =
            serde_json::from_str(&serde_json::to_string(&no_cell).unwrap()).unwrap();
        assert_eq!(back, no_cell);
    }

    #[test]
    fn span_sink_stamps_dense_sequences_and_preserves_foreign_spans() {
        let mem = Arc::new(MemorySink::new());
        let sink = SpanSink::new(mem.clone(), 42, "worker-1");
        sink.record(&decision(1));
        sink.set_cell(Some(3));
        sink.record(&decision(2));
        sink.record(&decision(3));
        sink.record(&decision(4));
        sink.set_cell(None);
        sink.record(&decision(5));
        // A foreign, already-stamped event passes through untouched.
        let foreign = SpannedEvent {
            span: Some(SpanContext { run_id: 7, source: "other".into(), seq: 99, cell: None }),
            event: decision(6),
        };
        sink.record_spanned(std::slice::from_ref(&foreign));
        // A mixed batch stamps only the unstamped member.
        sink.record_spanned(&[foreign.clone(), SpannedEvent::unspanned(decision(7))]);

        let got = mem.spanned_events();
        // 5 stamped singles + 1 foreign + the 2-event mixed batch.
        assert_eq!(got.len(), 8);
        let own: Vec<&SpannedEvent> =
            got.iter().filter(|e| e.span.as_ref().unwrap().source == "worker-1").collect();
        let seqs: Vec<u64> = own.iter().map(|e| e.span.as_ref().unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "dense per-source sequence");
        let cells: Vec<Option<u64>> = own.iter().map(|e| e.span.as_ref().unwrap().cell).collect();
        assert_eq!(cells, vec![None, Some(3), Some(3), Some(3), None, None]);
        assert_eq!(got[5], foreign);
        assert_eq!(got[6].span.as_ref().unwrap().seq, 99, "foreign span kept in mixed batch");
        assert_eq!(sink.stamped(), 6);
    }

    #[test]
    fn ring_sink_delivers_everything_off_thread_and_flush_waits() {
        let mem = Arc::new(MemorySink::new());
        let ring = RingSink::new(mem.clone());
        for i in 0..2000u64 {
            // 1-based: latency 0 is the unsampled sentinel `latency_ns()`
            // hides.
            ring.record(&decision(i + 1));
        }
        ring.flush();
        assert_eq!(mem.len(), 2000, "flush waits for the drainer");
        assert_eq!(ring.dropped_events(), 0);
        assert_eq!(ring.delivered_events(), 2000);
        let latencies: Vec<u64> = mem.events().iter().map(|e| e.latency_ns().unwrap()).collect();
        assert!(latencies.windows(2).all(|w| w[0] < w[1]), "single-producer order preserved");
    }

    #[test]
    fn deferred_ring_parks_until_flush_and_relieves_pressure() {
        let mem = Arc::new(MemorySink::new());
        let ring = RingSink::deferred(mem.clone(), 64);
        for i in 0..8u64 {
            ring.record(&decision(i + 1));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(mem.len(), 0, "gate closed: nothing delivered before flush");
        ring.flush();
        assert_eq!(mem.len(), 8, "flush opens the gate and waits for delivery");
        assert_eq!(ring.dropped_events(), 0);
        // Backlog past half the capacity drains without a flush.
        for i in 0..40u64 {
            ring.record(&decision(i + 1));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while mem.len() < 48 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(mem.len(), 48, "pressure relief drains a deferred ring");
        assert_eq!(ring.dropped_events(), 0);
    }

    #[test]
    fn ring_sink_counts_drops_instead_of_blocking() {
        // An inner sink that wedges until released, so the ring must fill.
        struct Gate(Mutex<()>);
        impl TelemetrySink for Gate {
            fn record(&self, _event: &TraceEvent) {
                let _hold = self.0.lock();
            }
        }
        let gate = Arc::new(Gate(Mutex::new(())));
        let held = gate.0.lock();
        let ring = RingSink::with_capacity(gate.clone(), 64);
        // Capacity rounds to 64; the drainer may pull a few into its batch
        // before wedging on the gate, so overfill generously.
        for i in 0..10_000u64 {
            ring.record(&decision(i));
        }
        assert!(ring.dropped_events() > 0, "overflow must drop, not block");
        drop(held);
        ring.flush();
        let total = ring.delivered_events() + ring.dropped_events();
        assert_eq!(total, 10_000, "every event is either delivered or counted as dropped");
    }

    #[test]
    fn ring_sink_drop_drains_the_remainder() {
        let mem = Arc::new(MemorySink::new());
        let ring = RingSink::new(mem.clone());
        for i in 1..=3 {
            ring.record(&decision(i));
        }
        drop(ring);
        assert_eq!(mem.len(), 3, "drop delivers buffered events synchronously");
    }

    #[test]
    fn ring_sink_preserves_spans() {
        let mem = Arc::new(MemorySink::new());
        let ring = RingSink::new(mem.clone());
        let spanned = SpannedEvent { span: Some(span(4, Some(1))), event: decision(9) };
        ring.record_spanned(std::slice::from_ref(&spanned));
        ring.flush();
        assert_eq!(mem.spanned_events(), vec![spanned]);
    }

    #[test]
    fn jsonl_sink_counts_write_errors_once_warned() {
        // /dev/full accepts the open but fails every flushed write with
        // ENOSPC — exactly the "disk filled mid-trace" failure mode.
        if !Path::new("/dev/full").exists() {
            return;
        }
        let sink = JsonlSink::create("/dev/full").unwrap();
        assert_eq!(sink.write_errors(), 0);
        sink.record(&decision(1));
        sink.flush();
        let after_first = sink.write_errors();
        assert!(after_first >= 1, "flush surfaces ENOSPC");
        sink.record(&decision(2));
        sink.flush();
        assert!(sink.write_errors() > after_first, "subsequent failures keep counting");
        // Drop flushes again; it must not panic on a persistently full disk.
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.0), 0.0);
        assert_eq!(empty.quantile(1.0), 0.0);
        assert_eq!(empty.count(), 0);

        // Single sample: every quantile is that sample.
        let mut one = Histogram::default();
        one.observe(700);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 700.0, "q={q}");
        }

        // q outside [0, 1] clamps rather than panics.
        assert_eq!(one.quantile(-3.0), 700.0);
        assert_eq!(one.quantile(7.0), 700.0);

        // q=0 maps to the first value's bucket, q=1 to the last's; answers
        // are bucket midpoints, within a factor of two of the true value
        // and clamped to [min, max].
        let mut h = Histogram::default();
        h.observe(1);
        h.observe(1 << 20);
        assert!((1.0..=2.0).contains(&h.quantile(0.0)), "q=0 -> {}", h.quantile(0.0));
        assert_eq!(h.quantile(1.0), (1u64 << 20) as f64, "q=1 clamps to the exact max");

        // Values in the overflow (top log2) bucket: bit length 64, bucket
        // index 64 — must not index out of bounds and must clamp to max.
        let mut top = Histogram::default();
        top.observe(u64::MAX);
        top.observe(u64::MAX - 1);
        top.observe(1u64 << 63);
        assert_eq!(top.count(), 3);
        // All three share bucket 64; answers are its midpoint clamped into
        // the exact [min, max] envelope.
        for q in [0.0, 0.5, 1.0] {
            let v = top.quantile(q);
            assert!(v >= (1u64 << 63) as f64 && v <= u64::MAX as f64, "q={q} -> {v}");
        }
        let snap = top.snapshot();
        assert_eq!((snap.min, snap.max), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn registry_renders_deterministic_text() {
        let reg = MetricsRegistry::new();
        reg.incr("cells_completed");
        reg.add("cells_completed", 2);
        reg.set_gauge("workers_live", 2.0);
        reg.record(&decision(100));
        let text = reg.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"cells_completed 3"), "{text}");
        assert!(lines.contains(&"decision 1"), "{text}");
        assert!(lines.contains(&"workers_live 2"), "{text}");
        assert!(lines.contains(&"decision_latency_ns_count 1"), "{text}");
        assert!(lines.contains(&"decision_latency_ns_min 100"), "{text}");
        assert_eq!(text, reg.render_text(), "rendering is deterministic");
    }
}
