//! Message-level connections: framing, send/recv, and the version
//! handshake.

use std::io::{self, Read, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;

use parking_lot::Mutex;
use serde_json;

use crate::message::{Message, RpcError, SweepContext};
use crate::wire::{Wire, MAX_FRAME_LEN};

/// The protocol version both ends must agree on during the
/// `Hello`/`HelloAck` handshake. Bump on any wire-visible change to
/// [`Message`] or the framing.
///
/// v2: `TraceBatch` carries span-stamped events, `SweepContext` gained
/// `run_id`, and the `MetricsRequest`/`MetricsSnapshot` exchange exists.
///
/// v3: the scenario engine. `SweepContext` gained `machines` (the mix
/// names whose fleet the worker must train), `SweepCell` points carry
/// `machines`/`faults`/`arrivals` coordinates, and `ClusterReport` gained
/// `machines`/`node_failures`/`killed_jobs`.
///
/// v4: demand-driven telemetry. `HelloAck` gained `traces`, and a worker
/// told `false` sends no `TraceBatch` frames.
pub const PROTOCOL_VERSION: u32 = 4;

/// A message-level connection over any [`Wire`].
///
/// Reader and writer halves sit behind *separate* locks: one thread can
/// block in [`Connection::recv`] while another [`Connection::send`]s — the
/// daemon reads results on a per-worker thread while dispatching from its
/// control loop, and a worker sends heartbeats beside its blocked cell
/// loop. [`Connection::shutdown`] tears both down from any thread, waking
/// a blocked `recv` with [`RpcError::Closed`].
pub struct Connection {
    reader: Mutex<Box<dyn Wire>>,
    writer: Mutex<Box<dyn Wire>>,
    ctrl: Box<dyn Wire>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

impl Connection {
    /// Wraps a wire, cloning it into independent reader/writer handles.
    pub fn new(wire: Box<dyn Wire>) -> io::Result<Self> {
        let reader = wire.try_clone_wire()?;
        let ctrl = wire.try_clone_wire()?;
        Ok(Self { reader: Mutex::new(reader), writer: Mutex::new(wire), ctrl })
    }

    /// Connects to a daemon's Unix-domain socket at `path`.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::new(Box::new(UnixStream::connect(path)?))
    }

    /// Sends one message as one frame (length header + compact JSON).
    pub fn send(&self, msg: &Message) -> Result<(), RpcError> {
        let json =
            serde_json::to_string(msg).map_err(|e| RpcError::Decode { reason: e.to_string() })?;
        let bytes = json.as_bytes();
        if bytes.len() > MAX_FRAME_LEN {
            return Err(RpcError::FrameTooLarge { len: bytes.len() as u64 });
        }
        let mut w = self.writer.lock();
        w.write_all(&(bytes.len() as u32).to_le_bytes())?;
        w.write_all(bytes)?;
        w.flush()?;
        Ok(())
    }

    /// Receives the next message, blocking until a full frame arrives.
    ///
    /// A clean close between frames is [`RpcError::Closed`]; EOF inside a
    /// frame is [`RpcError::Truncated`]; an oversized header is
    /// [`RpcError::FrameTooLarge`] (checked before allocation); an
    /// unparseable payload is [`RpcError::Decode`].
    pub fn recv(&self) -> Result<Message, RpcError> {
        let mut r = self.reader.lock();
        let mut header = [0u8; 4];
        read_full(&mut **r, &mut header, true)?;
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(RpcError::FrameTooLarge { len: len as u64 });
        }
        let mut payload = vec![0u8; len];
        read_full(&mut **r, &mut payload, false)?;
        drop(r);
        let text = std::str::from_utf8(&payload)
            .map_err(|e| RpcError::Decode { reason: e.to_string() })?;
        serde_json::from_str(text).map_err(|e| RpcError::Decode { reason: e.to_string() })
    }

    /// Closes both directions; a peer (or sibling thread) blocked in
    /// [`Connection::recv`] observes [`RpcError::Closed`].
    pub fn shutdown(&self) {
        let _ = self.ctrl.shutdown_wire();
    }
}

/// `read_exact` with frame-aware EOF classification: EOF with nothing read
/// at a frame boundary is a clean close, anywhere else a truncation.
fn read_full(r: &mut dyn Read, buf: &mut [u8], frame_boundary: bool) -> Result<(), RpcError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if frame_boundary && filled == 0 {
                    RpcError::Closed
                } else {
                    RpcError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Worker side of the handshake: sends `Hello`, expects a version-matching
/// `HelloAck`, and returns the daemon's [`SweepContext`] and whether the
/// daemon wants the worker's telemetry (`HelloAck::traces`).
pub fn client_handshake(conn: &Connection, worker: &str) -> Result<(SweepContext, bool), RpcError> {
    conn.send(&Message::Hello { version: PROTOCOL_VERSION, worker: worker.to_string() })?;
    match conn.recv()? {
        Message::HelloAck { version, context, traces } if version == PROTOCOL_VERSION => {
            Ok((context, traces))
        }
        Message::HelloAck { version, .. } => {
            Err(RpcError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version })
        }
        Message::Error(e) => Err(e),
        other => {
            Err(RpcError::Protocol { reason: format!("expected HelloAck, got {}", other.kind()) })
        }
    }
}

/// What a daemon-side [`server_accept`] found on a fresh connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Accepted {
    /// A worker completed the `Hello`/`HelloAck` handshake; the payload is
    /// its name. The connection stays open for cell dispatch.
    Worker(String),
    /// The peer was a metrics client: its `MetricsRequest` was answered
    /// with a `MetricsSnapshot` and the exchange is over — drop the
    /// connection.
    MetricsServed,
}

/// Daemon side of connection acceptance: the first frame decides whether
/// the peer is a worker (version-matching `Hello` → `HelloAck` carrying
/// `context` and `traces`) or a metrics client (`MetricsRequest` →
/// `MetricsSnapshot` rendered by `metrics`, when one is provided).
///
/// A mismatched worker version is *told* to the worker via
/// [`Message::Error`] before this side fails, and a `MetricsRequest` on a
/// daemon with no registry attached is answered the same way.
pub fn server_accept(
    conn: &Connection,
    context: &SweepContext,
    traces: bool,
    metrics: Option<&dyn Fn() -> String>,
) -> Result<Accepted, RpcError> {
    match conn.recv()? {
        Message::Hello { version, worker } if version == PROTOCOL_VERSION => {
            conn.send(&Message::HelloAck {
                version: PROTOCOL_VERSION,
                context: context.clone(),
                traces,
            })?;
            Ok(Accepted::Worker(worker))
        }
        Message::Hello { version, .. } => {
            let err = RpcError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version };
            let _ = conn.send(&Message::Error(err.clone()));
            Err(err)
        }
        Message::MetricsRequest => match metrics {
            Some(render) => {
                conn.send(&Message::MetricsSnapshot { text: render() })?;
                Ok(Accepted::MetricsServed)
            }
            None => {
                let err =
                    RpcError::Protocol { reason: "this daemon serves no metrics registry".into() };
                let _ = conn.send(&Message::Error(err.clone()));
                Err(err)
            }
        },
        other => {
            Err(RpcError::Protocol { reason: format!("expected Hello, got {}", other.kind()) })
        }
    }
}

/// Client side of the metrics exchange: sends `MetricsRequest` as the
/// connection's first (and only) frame and returns the daemon's text
/// exposition.
pub fn request_metrics(conn: &Connection) -> Result<String, RpcError> {
    conn.send(&Message::MetricsRequest)?;
    match conn.recv()? {
        Message::MetricsSnapshot { text } => Ok(text),
        Message::Error(e) => Err(e),
        other => Err(RpcError::Protocol {
            reason: format!("expected MetricsSnapshot, got {}", other.kind()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::duplex;

    fn pair() -> (Connection, Connection) {
        let (a, b) = duplex();
        (Connection::new(Box::new(a)).unwrap(), Connection::new(Box::new(b)).unwrap())
    }

    fn context() -> SweepContext {
        SweepContext {
            config: actor_core::config::ActorConfig::fast(),
            benchmarks: vec![npb_workloads::BenchmarkId::Cg],
            workload: "light".into(),
            machines: vec!["uniform".into()],
            max_node_w: 160.0,
            heartbeat_ms: 100,
            run_id: 77,
        }
    }

    #[test]
    fn send_recv_round_trips_a_message() {
        let (a, b) = pair();
        a.send(&Message::Heartbeat).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Heartbeat);
        b.send(&Message::Shutdown).unwrap();
        assert_eq!(a.recv().unwrap(), Message::Shutdown);
    }

    #[test]
    fn clean_close_is_closed_and_midframe_close_is_truncated() {
        // Clean close: drop the peer between frames.
        let (a, b) = pair();
        drop(a);
        assert_eq!(b.recv().unwrap_err(), RpcError::Closed);

        // Truncation: a header promising bytes that never arrive.
        let (mut raw, peer) = duplex();
        let conn = Connection::new(Box::new(peer)).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(b"only a few").unwrap();
        drop(raw);
        assert_eq!(conn.recv().unwrap_err(), RpcError::Truncated);

        // Truncation inside the header itself.
        let (mut raw, peer) = duplex();
        let conn = Connection::new(Box::new(peer)).unwrap();
        raw.write_all(&[1u8, 2]).unwrap();
        drop(raw);
        assert_eq!(conn.recv().unwrap_err(), RpcError::Truncated);
    }

    #[test]
    fn oversized_and_corrupt_frames_are_typed_errors() {
        let (mut raw, peer) = duplex();
        let conn = Connection::new(Box::new(peer)).unwrap();
        raw.write_all(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes()).unwrap();
        assert!(matches!(conn.recv().unwrap_err(), RpcError::FrameTooLarge { .. }));

        let (mut raw, peer) = duplex();
        let conn = Connection::new(Box::new(peer)).unwrap();
        let garbage = b"not json at all";
        raw.write_all(&(garbage.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(garbage).unwrap();
        assert!(matches!(conn.recv().unwrap_err(), RpcError::Decode { .. }));

        // Valid JSON that is not a Message is still a decode error.
        let (mut raw, peer) = duplex();
        let conn = Connection::new(Box::new(peer)).unwrap();
        let not_a_message = b"{\"Warp\":9}";
        raw.write_all(&(not_a_message.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(not_a_message).unwrap();
        assert!(matches!(conn.recv().unwrap_err(), RpcError::Decode { .. }));
    }

    #[test]
    fn handshake_agrees_on_versions_and_ships_the_context() {
        let (daemon, worker) = pair();
        let ctx = context();
        let server =
            std::thread::spawn(move || server_accept(&daemon, &context(), true, None).unwrap());
        let got = client_handshake(&worker, "w0").unwrap();
        assert_eq!(server.join().unwrap(), Accepted::Worker("w0".into()));
        assert_eq!(got, (ctx, true));
    }

    #[test]
    fn version_mismatch_is_rejected_on_both_sides() {
        let (daemon, worker) = pair();
        let server = std::thread::spawn(move || server_accept(&daemon, &context(), false, None));
        // A worker from the future.
        worker
            .send(&Message::Hello { version: PROTOCOL_VERSION + 1, worker: "w9".into() })
            .unwrap();
        let server_err = server.join().unwrap().unwrap_err();
        assert_eq!(
            server_err,
            RpcError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: PROTOCOL_VERSION + 1 }
        );
        // The daemon told the worker why before failing.
        match worker.recv().unwrap() {
            Message::Error(RpcError::VersionMismatch { ours, theirs }) => {
                assert_eq!((ours, theirs), (PROTOCOL_VERSION, PROTOCOL_VERSION + 1));
            }
            other => panic!("expected a version-mismatch Error frame, got {other:?}"),
        }
    }

    #[test]
    fn protocol_violations_name_the_unexpected_message() {
        let (daemon, worker) = pair();
        worker.send(&Message::Heartbeat).unwrap();
        let err = server_accept(&daemon, &context(), false, None).unwrap_err();
        assert!(err.to_string().contains("Heartbeat"), "{err}");
    }

    #[test]
    fn shutdown_wakes_a_blocked_receiver() {
        let (a, b) = pair();
        let reader = std::thread::spawn(move || b.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(a);
        assert_eq!(reader.join().unwrap().unwrap_err(), RpcError::Closed);
    }

    #[test]
    fn metrics_request_is_served_when_a_registry_renders() {
        let (daemon, client) = pair();
        let server = std::thread::spawn(move || {
            server_accept(
                &daemon,
                &context(),
                true,
                Some(&|| "decision 3\nworkers_live 2\n".into()),
            )
        });
        let text = request_metrics(&client).unwrap();
        assert_eq!(server.join().unwrap().unwrap(), Accepted::MetricsServed);
        assert!(text.contains("workers_live 2"), "{text}");
    }

    #[test]
    fn metrics_request_without_a_registry_is_a_told_protocol_error() {
        let (daemon, client) = pair();
        let server = std::thread::spawn(move || server_accept(&daemon, &context(), false, None));
        let err = request_metrics(&client).unwrap_err();
        assert!(matches!(err, RpcError::Protocol { .. }), "{err}");
        assert!(matches!(server.join().unwrap().unwrap_err(), RpcError::Protocol { .. }));
    }

    #[test]
    fn server_accept_still_handshakes_workers_beside_metrics() {
        let (daemon, worker) = pair();
        let server = std::thread::spawn(move || {
            server_accept(&daemon, &context(), true, Some(&|| String::new()))
        });
        let got = client_handshake(&worker, "w3").unwrap();
        assert_eq!(server.join().unwrap().unwrap(), Accepted::Worker("w3".into()));
        assert_eq!(got, (context(), true));
    }

    #[test]
    fn concurrent_send_and_recv_do_not_deadlock() {
        let (a, b) = pair();
        let a = std::sync::Arc::new(a);
        let a2 = std::sync::Arc::clone(&a);
        // One thread blocks receiving while the same connection sends.
        let recv = std::thread::spawn(move || a2.recv().unwrap());
        a.send(&Message::Heartbeat).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Heartbeat);
        b.send(&Message::Shutdown).unwrap();
        assert_eq!(recv.join().unwrap(), Message::Shutdown);
    }
}
