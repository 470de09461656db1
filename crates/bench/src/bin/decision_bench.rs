//! `decision_bench` — hot-path throughput headlines for the control plane
//! and the cluster event loop (ROADMAP item 3: decisions/s and events/s at
//! 64–256 simulated nodes).
//!
//! Two measured sections:
//!
//! 1. **Decisions/s** — a tight [`ControlPlane::decide`] loop over every
//!    (benchmark, phase) of the ANN-trained workload model with full joint
//!    DVFS+DCT candidate menus, cycling three per-phase power caps (just
//!    above single-thread power, mid-range, and ample). The loop runs in
//!    two interleaved arms, best-of-5 each: **untraced** (no telemetry
//!    sink at all — the pure hot path) and **traced** (a lock-free
//!    [`RingSink`] in front of the registry, the recommended
//!    hot-loop attachment). The difference of the two is the telemetry
//!    overhead headline: `bench_check` gates the absolute per-decision
//!    ring cost `trace_overhead_ns` against a ceiling, with the
//!    `traced_ratio` floor as a backstop (see `bench_check`'s docs).
//!    Decide latency from the traced arm is bucketed into the registry's
//!    `decision_latency_ns` histogram; its p50/p95/p99 snapshot lands in
//!    the JSON artefact.
//! 2. **Events/s** — full cluster simulations under the `power-aware`
//!    policy at 64 nodes (`--fast`) or 64/128/256 nodes, with a light
//!    workload of 4 jobs per node and a 0.7-fraction budget, best-of-3,
//!    recording through a deferred [`RingSink`] so serialization and any
//!    `--trace` file writes drain outside the timed window. Every traced
//!    record (job arrival/start/completion, controller decision) counts
//!    as an event. `sim_events` counts the same records minus the
//!    `decision`s, so it moves with the simulation alone, not with how
//!    many decisions a policy records; it is reported, not gated.
//!
//! Writes `results/decision_bench.json`; `bench_check` collects
//! `decision_bench_decisions_per_sec`, `decision_bench_traced_decisions_per_sec`,
//! `decision_bench_traced_ratio`, `decision_bench_trace_overhead_ns`,
//! `decision_bench_events_per_sec`, `decision_bench_events_per_sec_largest`,
//! `decision_bench_wall_clock_s` and (under `--features alloc-count`)
//! `decision_bench_allocs_per_decision` from it and gates them against the
//! committed baseline plus the absolute floors/ceilings described in its
//! docs. Flags: `--fast` (reduced ANN training + the small
//! grid, CI runs this), `--seed N`, `--trace PATH` (JSONL telemetry fanned
//! out alongside the registry).

use std::sync::Arc;
use std::time::Instant;

use actor_bench::{FileReporter, Harness};
use actor_core::control_plane::ControlPlane;
use actor_core::controller::{
    CandidatePerf, DvfsSpace, JointPerf, PhaseSample, PowerPerfController,
};
use actor_core::report::fmt3;
use actor_core::telemetry::{
    FanoutSink, HistogramSnapshot, MetricsRegistry, RingSink, SharedSink, TelemetrySink,
};
use actor_core::Reporter;
use cluster_sched::{
    budget_from_fraction, policy_by_name_fleet, simulate_fleet, ClusterSpec, MachineMix,
    WorkloadModel, WorkloadSpec,
};
use phase_rt::{MachineShape, PhaseId};
use serde::Serialize;
use xeon_sim::Machine;

/// One pre-built decide case: a phase with its observation sample, DCT
/// candidate menu, joint DVFS×DCT menu, and the three power caps to cycle.
struct PhaseCase {
    pid: PhaseId,
    sample: PhaseSample,
    candidates: Vec<CandidatePerf>,
    joint: Vec<JointPerf>,
    caps: [f64; 3],
}

fn phase_cases(model: &WorkloadModel) -> Vec<PhaseCase> {
    let mut cases = Vec::new();
    for id in model.benchmark_ids() {
        let k = model.knowledge(id);
        for (idx, phase) in k.phases.iter().enumerate() {
            let candidates: Vec<CandidatePerf> = phase.candidate_menu().to_vec();
            let powers: Vec<f64> = candidates.iter().filter_map(|c| c.avg_power_w).collect();
            let lo = powers.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = powers.iter().copied().fold(0.0f64, f64::max);
            cases.push(PhaseCase {
                pid: model.phase_id(id, idx),
                sample: phase.sample(),
                candidates,
                joint: phase.joint_candidates().to_vec(),
                // Tight-but-feasible, mid-range, and ample: the cap axis a
                // node-share actually traverses as cluster headroom moves.
                caps: [lo * 1.05, (lo + hi) / 2.0, hi + 10.0],
            });
        }
    }
    cases
}

/// Sum of every registry counter — the traced-event total.
fn counter_total(registry: &MetricsRegistry) -> u64 {
    registry.counters().iter().map(|(_, n)| *n).sum()
}

#[derive(Debug, Clone, Serialize)]
struct NodeRun {
    nodes: usize,
    jobs: usize,
    power_budget_w: f64,
    makespan_s: f64,
    events: u64,
    /// `events` without the `decision` records.
    sim_events: u64,
    sim_events_per_sec: f64,
    wall_clock_s: f64,
}

#[derive(Debug, Clone, Serialize)]
struct DecisionBenchOutput {
    fast: bool,
    /// Decisions per measured arm run (each of the interleaved
    /// untraced/traced repeats executes exactly this many).
    decisions: u64,
    /// Best untraced repeat's wall clock.
    decide_wall_clock_s: f64,
    /// Best untraced repeat's throughput — the pure hot path.
    decisions_per_sec: f64,
    /// Best RingSink-traced repeat's throughput.
    traced_decisions_per_sec: f64,
    /// `traced_decisions_per_sec / decisions_per_sec` — the telemetry
    /// overhead headline, gated against an absolute floor by
    /// `bench_check`.
    traced_ratio: f64,
    /// Absolute per-decision cost of the attached ring sink:
    /// `1/traced − 1/untraced`, in ns. Scale-invariant — unlike the ratio,
    /// it does not erode as the decide itself gets faster — and gated
    /// against an absolute ceiling by `bench_check`.
    trace_overhead_ns: f64,
    /// Allocations per decision on the untraced path, measured by a
    /// dedicated decide pass under the `alloc-count` counting allocator;
    /// `null` without the feature.
    allocs_per_decision: Option<f64>,
    /// Events the ring discarded rather than block the decide loop
    /// (expected 0 at default capacity; nonzero means the drainer fell
    /// behind the loop for a full ring).
    ring_dropped_events: u64,
    node_runs: Vec<NodeRun>,
    events: u64,
    events_wall_clock_s: f64,
    events_per_sec: f64,
    /// Every node run's `sim_events`, and their rate over the same wall.
    sim_events: u64,
    sim_events_per_sec: f64,
    /// Nodes of the largest simulated cluster (64 under `--fast`, 256
    /// otherwise).
    largest_nodes: usize,
    /// Events/s of the largest cluster alone — the at-scale headline (the
    /// aggregate above mixes node counts in full mode).
    events_per_sec_largest: f64,
    /// Combined measured wall clock (every decide repeat of both arms plus
    /// the events section; model training excluded) — the slowdown gate's
    /// denominator.
    wall_clock_s: f64,
    decision_latency_ns: Option<HistogramSnapshot>,
    event_counts: Vec<(String, u64)>,
}

/// One timed decide run: `target` decisions through `plane`, returning the
/// wall clock.
fn run_decide<C: PowerPerfController>(
    plane: &mut ControlPlane<C>,
    cases: &[PhaseCase],
    ladder: &xeon_sim::params::FreqLadder,
    target: u64,
) -> f64 {
    let mut decisions = 0u64;
    let started = Instant::now();
    'decide: loop {
        for case in cases {
            for &cap in &case.caps {
                plane
                    .decide(
                        case.pid,
                        &case.candidates,
                        Some(DvfsSpace { ladder, joint: &case.joint }),
                        Some(cap),
                    )
                    .unwrap_or_else(|v| panic!("{v}"));
                decisions += 1;
                if decisions >= target {
                    break 'decide;
                }
            }
        }
    }
    started.elapsed().as_secs_f64()
}

fn main() {
    let harness = Harness::from_env();
    let fast = harness.args.fast;
    let exp = harness.experiment();

    eprintln!("building the workload model (leave-one-out ANN training over the NPB suite)...");
    let fleet = exp.fleet_model(&[MachineMix::uniform()]).expect("fleet model construction failed");
    let model = fleet.reference();

    let registry = Arc::new(MetricsRegistry::new());
    let sink: SharedSink = match harness.telemetry_sink() {
        Some(trace) => Arc::new(FanoutSink::new(vec![registry.clone() as SharedSink, trace])),
        None => registry.clone(),
    };

    // Section 1: the tight decide loop, two interleaved arms (interleaving
    // shares thermal/frequency drift fairly between them), best-of-5 each.
    let cases = phase_cases(model);
    let ladder = model.freq_ladder();
    let mut bare_plane = ControlPlane::new(model.decision_table(), MachineShape::quad_core());
    // Windows must comfortably exceed the scheduler-noise floor: at ~2 M
    // decisions/s a 20 k-decision run is ~10 ms, inside the jitter of one
    // timeslice on a busy host, and the measured ratio swings ±20 %.
    let target: u64 = if fast { 100_000 } else { 200_000 };
    // The traced arm records through the lock-free ring in flight-recorder
    // mode, sized to hold one full repeat: the hot loop pays only the
    // push, and delivery to the registry (and any --trace file) happens in
    // the untimed flush between repeats. This isolates what the decide
    // loop itself pays for an attached sink — the design claim the
    // `traced_ratio` headline gates — instead of folding in drainer CPU
    // time, which overlaps with the producer on any multi-core host but
    // serialises with it on a single-core one.
    // Over twice the burst: a deferred ring starts draining on its own at
    // half capacity (pressure relief), which must not fire mid-repeat.
    // The ring drains into the registry alone: fanning half a million
    // synthetic decide records out to a --trace JSONL would dwarf the file
    // with noise (the cluster section below is the trace worth keeping)
    // and bench the file system instead of the sink.
    let ring =
        Arc::new(RingSink::deferred(registry.clone() as SharedSink, target as usize * 2 + 4096));
    let mut traced_plane = ControlPlane::new(model.decision_table(), MachineShape::quad_core())
        .with_telemetry(ring.clone() as SharedSink);
    for case in &cases {
        bare_plane.observe(case.pid, &case.sample);
        traced_plane.observe(case.pid, &case.sample);
    }
    const REPEATS: usize = 5;
    eprintln!(
        "decide loop: {} phase cases x 3 caps, {target} decisions x {REPEATS} repeats x 2 arms \
         (untraced / ring-traced)...",
        cases.len()
    );
    let mut decide_wall_total = 0.0f64;
    let mut bare_wall = f64::INFINITY;
    let mut traced_wall = f64::INFINITY;
    for _ in 0..REPEATS {
        let wall = run_decide(&mut bare_plane, &cases, ladder, target);
        decide_wall_total += wall;
        bare_wall = bare_wall.min(wall);
        let wall = run_decide(&mut traced_plane, &cases, ladder, target);
        decide_wall_total += wall;
        traced_wall = traced_wall.min(wall);
        // Drain the repeat's burst outside the timed window so the next
        // repeat starts with an empty ring (and `dropped` stays 0).
        ring.flush();
    }
    // Wait for the drainer to deliver everything before reading the
    // registry (the ring is asynchronous by design).
    ring.flush();
    let decisions = target;
    let decide_wall = bare_wall;
    let decisions_per_sec = decisions as f64 / bare_wall.max(1e-9);
    let traced_decisions_per_sec = decisions as f64 / traced_wall.max(1e-9);
    let traced_ratio = traced_decisions_per_sec / decisions_per_sec.max(1e-9);
    let trace_overhead_ns =
        (1.0 / traced_decisions_per_sec.max(1e-9) - 1.0 / decisions_per_sec.max(1e-9)) * 1e9;
    let decide_ring_dropped = ring.dropped_events();
    // Allocation audit (only under `--features alloc-count`): one dedicated
    // untimed decide pass with the counting allocator sampled around it.
    let allocs_per_decision = actor_bench::allocation_count().map(|before| {
        run_decide(&mut bare_plane, &cases, ladder, target);
        let after = actor_bench::allocation_count().expect("counter present once enabled");
        (after - before) as f64 / target as f64
    });

    // Section 2: cluster event throughput at scale. The simulation records
    // through its own deferred ring into the full sink chain (registry +
    // optional `--trace` JSONL): with a file sink attached synchronously,
    // JSON serialization and disk writes dominate the timed window and the
    // headline measures the file system instead of the event loop. The ring
    // is flushed (and the registry read) outside the clock.
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;
    let node_counts: &[usize] = if fast { &[64] } else { &[64, 128, 256] };
    let mut node_runs = Vec::new();
    let mut events_total = 0u64;
    let mut sim_events_total = 0u64;
    let mut events_wall = 0.0f64;
    let mut cluster_ring_dropped = 0u64;
    for &nodes in node_counts {
        let spec = ClusterSpec {
            nodes,
            power_budget_w: budget_from_fraction(
                nodes,
                idle_w,
                cluster_sched::sweep::DEFAULT_MAX_NODE_W,
                0.7,
            ),
            machines: MachineMix::uniform(),
            faults: cluster_sched::FaultSpec::default(),
            workload: WorkloadSpec {
                num_jobs: 4 * nodes,
                mean_interarrival_s: 12.0 / nodes as f64,
                node_counts: vec![1, 1, 2, 4],
                ..Default::default()
            },
            seed: harness.args.seed.unwrap_or(2007),
        };
        eprintln!("cluster loop: {nodes} nodes, {} jobs...", spec.workload.num_jobs);
        // Best-of-3, like the decide loop's best-of-5: a 64-node fast run is
        // a ~3 ms window, and a single descheduling blip reads as a 5×
        // throughput swing — far past the absolute floor `bench_check`
        // holds. The simulation is deterministic, so repeats emit identical
        // event streams (same count every time) and only the clock varies.
        const CLUSTER_REPEATS: usize = 3;
        // Capacity comfortably above one repeat's whole event stream (~13
        // events per job at 256 nodes) so `dropped` stays 0 even if the
        // drainer never gets a core until the flush.
        let cluster_ring =
            Arc::new(RingSink::deferred(sink.clone(), spec.workload.num_jobs * 32 + 4096));
        let mut wall = f64::INFINITY;
        let mut events = 0u64;
        let mut sim_events = 0u64;
        let mut makespan_s = 0.0f64;
        for _ in 0..CLUSTER_REPEATS {
            let mut policy = policy_by_name_fleet("power-aware", &fleet).expect("built-in policy");
            let before = counter_total(&registry);
            let decisions_before = registry.counter("decision");
            let started = Instant::now();
            let report = simulate_fleet(
                &spec,
                &fleet,
                policy.as_mut(),
                Some(cluster_ring.clone() as SharedSink),
            )
            .unwrap_or_else(|e| panic!("simulation failed: {e}"));
            wall = wall.min(started.elapsed().as_secs_f64());
            // Drain between repeats so each starts with an empty ring, and
            // so the registry has everything before the count is read.
            cluster_ring.flush();
            events = counter_total(&registry) - before;
            sim_events = events - (registry.counter("decision") - decisions_before);
            makespan_s = report.makespan_s;
        }
        cluster_ring_dropped += cluster_ring.dropped_events();
        events_total += events;
        sim_events_total += sim_events;
        events_wall += wall;
        node_runs.push(NodeRun {
            nodes,
            jobs: spec.workload.num_jobs,
            power_budget_w: spec.power_budget_w,
            makespan_s,
            events,
            sim_events,
            sim_events_per_sec: sim_events as f64 / wall.max(1e-9),
            wall_clock_s: wall,
        });
    }
    let events_per_sec = events_total as f64 / events_wall.max(1e-9);
    let sim_events_per_sec = sim_events_total as f64 / events_wall.max(1e-9);
    let largest = node_runs.last().expect("at least one node count");
    let largest_nodes = largest.nodes;
    let events_per_sec_largest = largest.events as f64 / largest.wall_clock_s.max(1e-9);
    sink.flush();

    let output = DecisionBenchOutput {
        fast,
        decisions,
        decide_wall_clock_s: decide_wall,
        decisions_per_sec,
        traced_decisions_per_sec,
        traced_ratio,
        trace_overhead_ns,
        allocs_per_decision,
        ring_dropped_events: decide_ring_dropped + cluster_ring_dropped,
        node_runs,
        events: events_total,
        events_wall_clock_s: events_wall,
        events_per_sec,
        sim_events: sim_events_total,
        sim_events_per_sec,
        largest_nodes,
        events_per_sec_largest,
        wall_clock_s: decide_wall_total + events_wall,
        decision_latency_ns: registry.histogram("decision_latency_ns"),
        event_counts: registry.counters(),
    };

    let mut reporter = FileReporter::default();
    reporter.note(&format!(
        "decide: {decisions} decisions in {} s ({} decisions/s untraced)",
        fmt3(decide_wall),
        fmt3(decisions_per_sec)
    ));
    reporter.note(&format!(
        "decide traced: {} decisions/s through the ring sink (ratio {}, overhead {} ns, {} \
         dropped)",
        fmt3(traced_decisions_per_sec),
        fmt3(traced_ratio),
        fmt3(trace_overhead_ns),
        decide_ring_dropped
    ));
    if let Some(allocs) = allocs_per_decision {
        reporter.note(&format!(
            "decide allocations: {} per decision (counting allocator)",
            fmt3(allocs)
        ));
    }
    reporter.note(&format!(
        "cluster: {events_total} traced events in {} s ({} events/s) across {:?} nodes; {} \
         events/s at {largest_nodes} nodes",
        fmt3(events_wall),
        fmt3(events_per_sec),
        node_counts,
        fmt3(events_per_sec_largest)
    ));
    reporter.note(&format!(
        "cluster without decision records: {sim_events_total} simulation events ({} events/s)",
        fmt3(sim_events_per_sec)
    ));
    if let Some(snap) = &output.decision_latency_ns {
        reporter.note(&format!(
            "decide latency: p50 {} ns, p95 {} ns, p99 {} ns (n={})",
            fmt3(snap.p50),
            fmt3(snap.p95),
            fmt3(snap.p99),
            snap.count
        ));
    }
    let json = serde_json::to_string_pretty(&output).expect("output serializes");
    reporter.artifact("decision_bench.json", &json);
}
