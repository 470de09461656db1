//! Outside-in tracing for the traced run: spans recorded around calls into
//! each crate's public functions, kept in memory and summarised when the
//! run ends. Nothing here reaches inside the library crates, so a span
//! covers everything the called layer does, including work it parallelises
//! internally.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cluster_rpc::Wire;
use cluster_sched::{Assignment, SchedContext, SchedulerPolicy, POLICY_NAMES};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer operation, e.g. `annlib.train`.
    pub name: &'static str,
    /// Duration (ns).
    pub dur_ns: u64,
    /// Nesting depth on the main thread; spans recorded on worker threads
    /// or inside another span are at depth ≥ 1.
    pub depth: u8,
}

/// An in-memory span recorder. Each thread records into its own tracer;
/// worker tracers are merged into the main one when they finish.
#[derive(Debug, Default)]
pub struct Tracer {
    depth: u8,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for a worker thread of this one: every span it records
    /// nests below the current depth.
    pub fn child(&self) -> Self {
        Self { depth: self.depth + 1, spans: Vec::new() }
    }

    /// Times `f` as one span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start);
        out
    }

    /// Times `f` as one span named `name`, letting `f` record nested spans.
    pub fn nested<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        self.record(name, start);
        out
    }

    /// Records a span from `start` to now.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            depth: self.depth,
        });
    }

    /// Adopts a finished worker tracer's spans.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations (s) of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 * 1e-9).collect()
    }

    /// Total time (s) in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Time (s) covered by top-level spans. Top-level spans never overlap,
    /// so this is the part of the traced wall attributed to some layer.
    pub fn top_level_s(&self) -> f64 {
        self.spans.iter().filter(|s| s.depth == 0).map(|s| s.dur_ns as f64 * 1e-9).sum()
    }

    /// A table of the spans per (name, depth) — calls, total time, share of
    /// the traced wall — written to stderr when the traced run ends.
    pub fn summary(&self, wall_s: f64) -> String {
        let mut names: Vec<(&'static str, u8)> = Vec::new();
        for s in &self.spans {
            if !names.contains(&(s.name, s.depth)) {
                names.push((s.name, s.depth));
            }
        }
        let mut out = format!("{:<48} {:>10} {:>12} {:>8}\n", "span", "calls", "total s", "% wall");
        for (name, depth) in names {
            let matching = self.spans.iter().filter(|s| s.name == name && s.depth == depth);
            let (calls, total) = matching.fold((0usize, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
            let total_s = total as f64 * 1e-9;
            out.push_str(&format!(
                "{:<48} {calls:>10} {total_s:>12.6} {:>7.2}%\n",
                format!("{}{name}", "  ".repeat(depth as usize)),
                100.0 * total_s / wall_s
            ));
        }
        out
    }
}

/// Span name of each policy's `assign`, in [`POLICY_NAMES`] order.
pub const ASSIGN_SPANS: [&str; POLICY_NAMES.len()] = [
    "policy.fcfs.assign",
    "policy.backfill.assign",
    "policy.power-aware.assign",
    "policy.power-aware-dvfs.assign",
    "policy.power-aware-coordinated.assign",
];

/// A scheduling policy that times every `assign` call of the policy it
/// wraps, recording one span per call. Decisions pass through untouched,
/// so a cluster run under the wrapper reproduces the bare run exactly.
pub struct TimedPolicy<'a> {
    inner: Box<dyn SchedulerPolicy>,
    span: &'static str,
    tracer: &'a mut Tracer,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`, whose name must be one of [`POLICY_NAMES`].
    pub fn new(inner: Box<dyn SchedulerPolicy>, tracer: &'a mut Tracer) -> Self {
        let idx = POLICY_NAMES
            .iter()
            .position(|p| *p == inner.name())
            .expect("every built-in policy is listed in POLICY_NAMES");
        Self { inner, span: ASSIGN_SPANS[idx], tracer }
    }
}

impl SchedulerPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        let start = Instant::now();
        let out = self.inner.assign(ctx);
        self.tracer.record(self.span, start);
        out
    }

    fn set_telemetry(&mut self, sink: actor_core::telemetry::SharedSink) {
        self.inner.set_telemetry(sink);
    }
}

/// Bytes moved over every connection of one daemon.
#[derive(Debug, Default)]
pub struct ByteCounts {
    /// Bytes the daemon read.
    pub read: AtomicU64,
    /// Bytes the daemon wrote.
    pub written: AtomicU64,
}

/// A transport that counts the bytes passing through the wire it wraps.
pub struct CountingWire {
    inner: Box<dyn Wire>,
    counts: Arc<ByteCounts>,
}

impl CountingWire {
    /// Wraps `inner`, adding its traffic to `counts`.
    pub fn new(inner: Box<dyn Wire>, counts: Arc<ByteCounts>) -> Self {
        Self { inner, counts }
    }
}

impl Read for CountingWire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counts.read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for CountingWire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Wire for CountingWire {
    fn try_clone_wire(&self) -> io::Result<Box<dyn Wire>> {
        Ok(Box::new(Self { inner: self.inner.try_clone_wire()?, counts: Arc::clone(&self.counts) }))
    }

    fn shutdown_wire(&self) -> io::Result<()> {
        self.inner.shutdown_wire()
    }
}
