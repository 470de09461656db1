//! Property tests of the wire protocol: every frame type round-trips
//! through the in-memory duplex bit-exactly, including nested reports,
//! trace batches, and every typed error — plus framing across message
//! sequences.
//!
//! The vendored proptest has no combinators beyond ranges and
//! `collection::vec`, so cases draw primitive values and deterministic
//! builders assemble each message variant from them.

use actor_core::config::ActorConfig;
use actor_core::telemetry::{SpanContext, SpannedEvent, TraceEvent};
use cluster_rpc::{
    client_handshake, duplex, server_handshake, CellOutcome, Connection, Message, RpcError,
    SweepContext, PROTOCOL_VERSION,
};
use cluster_sched::{ClusterReport, Job, JobOutcome, SweepCell, SweepPoint};
use npb_workloads::BenchmarkId;
use proptest::prelude::*;
use xeon_sim::Configuration;

fn pair() -> (Connection, Connection) {
    let (a, b) = duplex();
    (Connection::new(Box::new(a)).unwrap(), Connection::new(Box::new(b)).unwrap())
}

fn cell(index: usize, nodes: usize, fraction: f64, seed: u64) -> SweepCell {
    SweepCell {
        index,
        point: SweepPoint {
            nodes,
            budget_label: format!("tier-{}", (fraction * 100.0) as u32),
            budget_fraction: fraction,
            policy: "power-aware".into(),
            machines: ["uniform", "mixed", "legacy"][index % 3].into(),
            faults: ["none", "crash", "storm"][nodes % 3].into(),
            arrivals: ["poisson", "bursty", "tenants"][(seed % 3) as usize].into(),
            seed,
        },
    }
}

fn report(nodes: usize, f1: f64, f2: f64, jobs: usize) -> ClusterReport {
    let outcomes = (0..jobs)
        .map(|id| JobOutcome {
            job: Job {
                id,
                benchmark: BenchmarkId::ALL[id % BenchmarkId::ALL.len()],
                arrival_s: f1 * id as f64,
                nodes: 1 + id % nodes.max(1),
                priority: (id % 3) as u8,
                deadline_s: if id % 2 == 0 { Some(f2 + 10.0) } else { None },
                duration_scale: 1.0 + f1,
            },
            nodes: (0..1 + id % nodes.max(1)).collect(),
            start_s: f1 * id as f64 + 0.5,
            finish_s: f1 * id as f64 + f2 + 1.0,
            energy_j: f2 * 1000.0,
            peak_power_w: 80.0 + f1,
            completed: id % 3 != 0,
            decisions: vec![
                ("phase-0".into(), Configuration::ALL[id % Configuration::ALL.len()]),
                ("phase-1".into(), Configuration::ALL[0]),
            ],
        })
        .collect();
    ClusterReport {
        policy: "power-aware".into(),
        nodes,
        machines: ["uniform", "mixed"][nodes % 2].into(),
        power_budget_w: 100.0 + f1 * nodes as f64,
        outcomes,
        makespan_s: f2 + 50.0,
        total_energy_j: f2 * 12_345.0,
        peak_power_w: 90.0 + f1,
        cap_violations: jobs % 2,
        node_failures: jobs % 3,
        killed_jobs: jobs % 2,
    }
}

fn context(seed: u64, f1: f64, hb: u64) -> SweepContext {
    SweepContext {
        config: ActorConfig { seed, ..ActorConfig::fast() },
        benchmarks: BenchmarkId::ALL[..1 + (seed as usize % BenchmarkId::ALL.len())].to_vec(),
        workload: ["default", "light", "quad-test"][seed as usize % 3].into(),
        machines: vec!["uniform".into(), ["mixed", "legacy", "modern"][seed as usize % 3].into()],
        max_node_w: 100.0 + f1,
        heartbeat_ms: hb,
        run_id: seed.wrapping_mul(31),
    }
}

fn trace_events(n: usize, f1: f64, latency: u64) -> Vec<TraceEvent> {
    (0..n)
        .map(|i| match i % 7 {
            0 => TraceEvent::Decision {
                phase: i as u32,
                controller: "ann",
                candidates: 5,
                joint_cells: 20,
                threads: 1 + i % 4,
                freq_step: (i % 3) as u8,
                rationale: "Predicted",
                ipc: if i % 2 == 0 { Some(f1) } else { None },
                stall_fraction: None,
                power_cap_w: Some(f1 + 100.0),
                latency_ns: latency + i as u64,
            },
            1 => TraceEvent::JobArrival {
                time_s: f1 * i as f64,
                job: i,
                benchmark: "CG".into(),
                width: 1 + i % 4,
            },
            2 => TraceEvent::Redistribute {
                time_s: f1,
                startable: i,
                admitted: i / 2,
                headroom_before_w: f1 + 50.0,
                headroom_after_w: f1,
                upgrades: i % 3,
                latency_ns: latency,
            },
            3 => TraceEvent::WorkerConnected { worker: format!("w{i}") },
            4 => TraceEvent::WorkerDead { worker: format!("w{i}"), reason: "stall".into() },
            5 => TraceEvent::CellReassigned { index: i, worker: format!("w{i}"), attempt: i % 3 },
            _ => TraceEvent::Progress { name: "sweep".into(), done: i, expected: n },
        })
        .collect()
}

/// Span-stamped trace events: a mix of stamped (with and without a cell)
/// and unstamped envelopes, as a worker's forward sink would ship them.
fn spanned_events(n: usize, f1: f64, latency: u64, seed: u64) -> Vec<SpannedEvent> {
    trace_events(n, f1, latency)
        .into_iter()
        .enumerate()
        .map(|(i, event)| SpannedEvent {
            span: match i % 3 {
                0 => None,
                r => Some(SpanContext {
                    run_id: seed,
                    source: format!("w{}", seed % 5),
                    seq: i as u64,
                    cell: if r == 1 { Some(i as u64 / 2) } else { None },
                }),
            },
            event,
        })
        .collect()
}

fn rpc_error(pick: usize, a: u32, b: u32, text_seed: u64) -> RpcError {
    match pick % 7 {
        0 => RpcError::Io(format!("io-{text_seed}")),
        1 => RpcError::Truncated,
        2 => RpcError::FrameTooLarge { len: u64::from(a) + (1 << 32) },
        3 => RpcError::Decode { reason: format!("bad-{text_seed}") },
        4 => RpcError::VersionMismatch { ours: a, theirs: b },
        5 => RpcError::Protocol { reason: format!("violation-{text_seed}") },
        _ => RpcError::Closed,
    }
}

/// Every message variant, built from drawn primitives. `pick` selects the
/// variant; the other arguments parameterise its payload.
fn message(pick: usize, idx: usize, nodes: usize, f1: f64, f2: f64, seed: u64) -> Message {
    match pick % 11 {
        0 => Message::Hello { version: seed as u32, worker: format!("w{idx}") },
        1 => Message::HelloAck {
            version: PROTOCOL_VERSION,
            context: context(seed, f1, 1 + seed % 1000),
            traces: seed.is_multiple_of(2),
        },
        2 => Message::AssignCell(cell(idx, nodes, f2 / 200.0 + 0.1, seed)),
        3 => Message::CellResult {
            index: idx,
            outcome: CellOutcome::Completed(report(nodes, f1, f2, idx % 4)),
        },
        4 => Message::CellResult {
            index: idx,
            outcome: CellOutcome::Failed {
                reason: format!("starved-{seed}"),
                panicked: idx.is_multiple_of(2),
            },
        },
        5 => Message::TraceBatch(spanned_events(idx % 9, f1, seed, seed % 1000)),
        6 => Message::Heartbeat,
        7 => Message::Shutdown,
        8 => Message::MetricsRequest,
        9 => Message::MetricsSnapshot {
            text: format!("decision {seed}\nworkers_live {}\n", idx % 8),
        },
        _ => Message::Error(rpc_error(idx, seed as u32, (seed >> 32) as u32, seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One frame of every variant survives the duplex bit-exactly.
    #[test]
    fn every_frame_type_round_trips(
        pick in 0usize..11,
        idx in 0usize..10_000,
        nodes in 1usize..16,
        f1 in 0.0f64..100.0,
        f2 in 0.0f64..100.0,
        seed in 0u64..u64::MAX,
    ) {
        let msg = message(pick, idx, nodes, f1, f2, seed);
        let (a, b) = pair();
        a.send(&msg).map_err(|e| e.to_string())?;
        let got = b.recv().map_err(|e| e.to_string())?;
        prop_assert_eq!(got, msg);
    }

    /// Sequences of frames keep their boundaries: no bleed between
    /// messages, order preserved, and a clean close after the last frame
    /// reads as `Closed`.
    #[test]
    fn frame_sequences_preserve_order_and_boundaries(
        picks in collection::vec(0usize..11, 1..8),
        idx in 0usize..1000,
        nodes in 1usize..8,
        f1 in 0.0f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let msgs: Vec<Message> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| message(p, idx + i, nodes, f1, f1 * 2.0, seed + i as u64))
            .collect();
        let (a, b) = pair();
        for m in &msgs {
            a.send(m).map_err(|e| e.to_string())?;
        }
        drop(a);
        for m in &msgs {
            let got = b.recv().map_err(|e| e.to_string())?;
            prop_assert_eq!(&got, m);
        }
        prop_assert_eq!(b.recv().unwrap_err(), RpcError::Closed);
    }

    /// Corrupting any single byte of a valid frame yields a typed error or
    /// a different-but-valid message — never a panic or a hang.
    #[test]
    fn corrupted_frames_never_panic(
        pick in 0usize..11,
        idx in 0usize..100,
        nodes in 1usize..8,
        f1 in 0.0f64..10.0,
        seed in 0u64..1_000_000,
        corrupt_at in 0usize..64,
        xor in 1u8..=255,
    ) {
        use std::io::Write as _;
        let msg = message(pick, idx, nodes, f1, f1, seed);
        let json = serde_json::to_string(&msg).unwrap();
        let mut frame = (json.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(json.as_bytes());
        let at = corrupt_at % frame.len();
        frame[at] ^= xor;

        let (mut raw, peer) = duplex();
        let conn = Connection::new(Box::new(peer)).unwrap();
        raw.write_all(&frame).unwrap();
        drop(raw);
        // Must terminate with a typed result; corrupting the length header
        // usually lands in Truncated/FrameTooLarge, payload bytes in Decode
        // (or, rarely, a different valid message).
        match conn.recv() {
            Ok(_) | Err(RpcError::Truncated) | Err(RpcError::FrameTooLarge { .. })
            | Err(RpcError::Decode { .. }) | Err(RpcError::Closed) => {}
            Err(other) => return Err(format!("unexpected error class: {other:?}")),
        }
    }
}

/// The full handshake over the duplex, with the context intact — the
/// non-property companion to the proptest frames above.
#[test]
fn handshake_round_trips_the_context() {
    let (daemon, worker) = pair();
    let ctx = context(42, 7.5, 250);
    let server_ctx = ctx.clone();
    let server = std::thread::spawn(move || server_handshake(&daemon, &server_ctx, true).unwrap());
    let got = client_handshake(&worker, "external-1").unwrap();
    assert_eq!(server.join().unwrap(), "external-1");
    assert_eq!(got, (ctx, true));
}

/// `HelloAck::traces` survives the wire both ways, and the worker learns
/// exactly the value the daemon chose.
#[test]
fn hello_ack_carries_the_traces_flag_either_way() {
    for traces in [false, true] {
        let ack =
            Message::HelloAck { version: PROTOCOL_VERSION, context: context(7, 1.0, 50), traces };
        let (a, b) = pair();
        a.send(&ack).unwrap();
        assert_eq!(b.recv().unwrap(), ack);

        let (daemon, worker) = pair();
        let server = std::thread::spawn(move || {
            server_handshake(&daemon, &context(7, 1.0, 50), traces).unwrap()
        });
        let (_, told) = client_handshake(&worker, "w-flag").unwrap();
        assert_eq!(server.join().unwrap(), "w-flag");
        assert_eq!(told, traces);
    }
}

/// A v3 worker (no `traces` flag in its protocol) is refused with a typed
/// version mismatch, on both sides, rather than misreading the ack.
#[test]
fn a_v3_hello_is_rejected_with_a_version_mismatch() {
    assert_eq!(PROTOCOL_VERSION, 4);
    let (daemon, worker) = pair();
    let server = std::thread::spawn(move || server_handshake(&daemon, &context(3, 1.0, 50), true));
    worker.send(&Message::Hello { version: 3, worker: "w-old".into() }).unwrap();
    let mismatch = RpcError::VersionMismatch { ours: 4, theirs: 3 };
    assert_eq!(server.join().unwrap().unwrap_err(), mismatch);
    assert_eq!(worker.recv().unwrap(), Message::Error(mismatch));
}
