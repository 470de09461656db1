//! The wire protocol of the distributed cluster service.
//!
//! The sweep engine (`cluster_sched::sweep`) parallelises across in-process
//! threads; the distributed service splits it into a long-running daemon
//! that owns the [`cluster_sched::WorkloadModel`] and worker processes that
//! execute [`cluster_sched::SweepCell`]s. This crate is the seam between
//! them: a transport-agnostic framing layer plus the typed message set,
//! deliberately tiny so both sides stay testable without a network.
//!
//! * **Frames** — every message is one length-prefixed frame: a 4-byte
//!   little-endian payload length followed by that many bytes of compact
//!   JSON (the workspace's vendored `serde_json`). Frames above
//!   [`MAX_FRAME_LEN`] are rejected before allocation; a clean EOF between
//!   frames is [`RpcError::Closed`], an EOF *inside* a frame is
//!   [`RpcError::Truncated`], and unparseable payloads are
//!   [`RpcError::Decode`] — every failure mode is a typed error, never a
//!   panic.
//! * **Messages** — [`Message`] carries the whole protocol: the
//!   version-checked `Hello`/`HelloAck` handshake (rejected mismatches
//!   surface as [`RpcError::VersionMismatch`] on *both* sides), cell
//!   dispatch and results, batched span-stamped telemetry
//!   ([`actor_core::telemetry::SpannedEvent`] round-trips through serde
//!   with its causal `run_id`/`source`/`seq`/`cell` stamp intact),
//!   heartbeats, shutdown, and the [`request_metrics`] /
//!   [`Message::MetricsSnapshot`] exchange that lets an operator ask a
//!   live daemon for its metrics registry.
//! * **Transports** — [`Wire`] abstracts the byte stream: Unix-domain
//!   sockets for real deployments ([`Connection::connect_unix`]) and an
//!   in-memory [`duplex`] for tests and CI, which exercises the identical
//!   framing code with no sockets at all.
//!
//! A [`Connection`] holds independently lockable reader and writer halves,
//! so one thread can block in [`Connection::recv`] while another sends
//! heartbeats — the shape both the daemon (reader thread per worker,
//! dispatch from the control loop) and the worker (heartbeat thread beside
//! the cell executor) rely on.

pub mod conn;
pub mod message;
pub mod wire;

pub use conn::{
    client_handshake, request_metrics, server_accept, Accepted, Connection, PROTOCOL_VERSION,
};
pub use message::{CellOutcome, Message, RpcError, SweepContext};
pub use wire::{duplex, DuplexWire, Wire, MAX_FRAME_LEN};
