//! A client-facing frame server on the reactor: the serving tier's front
//! half.
//!
//! Peer connections (the [`TcpTransport`](crate::TcpTransport)) are
//! symmetric, dialed, and speak [`Envelope`](crate::Envelope)s; *client*
//! connections are the opposite — accepted only, untrusted, and cheap:
//! 10k of them must cost the same fixed poller pool as 10. The
//! [`FrameServer`] owns a listener plus every connection accepted from
//! it, all driven by the same `poll(2)` reactor the transport uses, and
//! exposes exactly three things:
//!
//! * an **event stream** ([`ClientEvent`]: connect / opaque frame /
//!   disconnect) drained by the serving tier's logic thread,
//! * a **send** path ([`FrameServer::send`]) queueing one varint-framed
//!   reply toward a client (bounded per-connection queue, zero-copy
//!   refcounted frames, vectored writes — the PR 6 machinery verbatim),
//! * a **kick** ([`FrameServer::kick`]) that flushes whatever reply is
//!   already queued and closes the connection.
//!
//! Framing on the wire is `[varint length][payload]` in both directions —
//! the same shape as the inter-server protocol, but the payload is opaque
//! here: the tier above owns the client protocol (`paso-proxy` speaks
//! `ProxyClientFrame`/`ProxyServerFrame` over it). Client frames are
//! capped far below the peer `MAX_FRAME`: a client hello that claims a
//! 64 MiB body is an attack, not a workload.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver};

use paso_telemetry::Telemetry;

use crate::ledger::{NetCounters, NetStats};
use crate::reactor::{ClientEvent, ClientId, ClientRegistry, Frame, Reactor};
use crate::transport::TransportTuning;

/// Outcome of queueing one frame toward a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued (delivery still depends on the client staying alive).
    Queued,
    /// The connection's bounded send queue is full — the client reads too
    /// slowly. The frame was dropped and counted; callers decide whether
    /// to kick.
    Backpressure,
    /// No such client (already disconnected or kicked).
    Gone,
}

/// A reactor-driven TCP server handing opaque varint-delimited frames to
/// (and from) many cheap client connections.
///
/// Dropping the server closes the listener and every client socket; the
/// poller/dialer threads are joined (same lifecycle guarantees as the
/// transport, covered by the leak test).
pub struct FrameServer {
    reactor: Reactor,
    reg: Arc<ClientRegistry>,
    events: Receiver<ClientEvent>,
    counters: Arc<NetCounters>,
    shutdown: Arc<AtomicBool>,
    port: u16,
}

impl std::fmt::Debug for FrameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameServer")
            .field("port", &self.port)
            .finish_non_exhaustive()
    }
}

impl FrameServer {
    /// Binds `127.0.0.1:0` and starts the poller pool. `max_frame` caps a
    /// single client frame (connections exceeding it are killed and the
    /// violation counted in [`NetStats::poll_errors`]).
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn bind(tuning: TransportTuning, max_frame: usize) -> io::Result<FrameServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let port = listener.local_addr()?.port();
        // A registry of its own: the handles keep its counters alive.
        let counters = Arc::new(NetCounters::new(&Telemetry::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let reactor = Reactor::start(tuning.clone(), Arc::clone(&counters), Arc::clone(&shutdown));
        let (tx, events) = unbounded();
        let reg = Arc::new(ClientRegistry::new(tx, tuning.queue_depth, max_frame));
        reactor.add_client_listener(0, listener, Arc::clone(&reg));
        Ok(FrameServer {
            reactor,
            reg,
            events,
            counters,
            shutdown,
            port,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Blocks up to `timeout` for the next client event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ClientEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Non-blocking event poll.
    pub fn try_recv(&self) -> Option<ClientEvent> {
        self.events.try_recv().ok()
    }

    /// Queues one payload toward `client` as a `[varint len][payload]`
    /// frame (the length prefix is added by the writer from scratch
    /// space; the payload itself is never copied again).
    pub fn send(&self, client: ClientId, payload: Vec<u8>) -> SendOutcome {
        let conn = {
            let conns = self.reg.conns.lock();
            match conns.get(&client.0) {
                Some(c) => Arc::clone(c),
                None => return SendOutcome::Gone,
            }
        };
        if conn.is_closed() {
            return SendOutcome::Gone;
        }
        let frame: Frame = payload.into();
        match conn.try_push(frame) {
            Ok(true) => {
                self.reactor.wake_owner(&conn);
                SendOutcome::Queued
            }
            Ok(false) => SendOutcome::Queued,
            Err(_) => {
                self.counters.dropped.add(1.0);
                SendOutcome::Backpressure
            }
        }
    }

    /// Administratively closes `client`: replies already queued are
    /// flushed (best effort, one final drain), then the socket drops and
    /// a [`ClientEvent::Disconnected`] is emitted. Unknown ids are a
    /// no-op — disconnects race with kicks by design.
    pub fn kick(&self, client: ClientId) {
        let conn = {
            let conns = self.reg.conns.lock();
            conns.get(&client.0).map(Arc::clone)
        };
        if let Some(conn) = conn {
            conn.close();
            self.reactor.wake_owner(&conn);
        }
    }

    /// Number of currently connected clients.
    pub fn clients_open(&self) -> usize {
        self.reg.conns.lock().len()
    }

    /// Message-path counters (drops from backpressure, absorbed I/O
    /// errors in [`NetStats::poll_errors`], bytes/frames written).
    pub fn net_stats(&self) -> NetStats {
        self.counters.snapshot()
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.reactor.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        paso_wire::put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out
    }

    fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
        let mut len = 0u64;
        let mut shift = 0u32;
        let mut byte = [0u8; 1];
        loop {
            stream.read_exact(&mut byte).ok()?;
            len |= u64::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let mut payload = vec![0u8; len as usize];
        stream.read_exact(&mut payload).ok()?;
        Some(payload)
    }

    fn server() -> FrameServer {
        FrameServer::bind(TransportTuning::default(), 1 << 20).expect("bind")
    }

    #[test]
    fn accepts_frames_and_replies() {
        let srv = server();
        let mut c = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        let id = match srv.recv_timeout(Duration::from_secs(2)) {
            Some(ClientEvent::Connected(id)) => id,
            other => panic!("expected Connected, got {other:?}"),
        };
        c.write_all(&frame(b"hello")).unwrap();
        match srv.recv_timeout(Duration::from_secs(2)) {
            Some(ClientEvent::Frame(got, payload)) => {
                assert_eq!(got, id);
                assert_eq!(payload, b"hello");
            }
            other => panic!("expected Frame, got {other:?}"),
        }
        assert_eq!(srv.send(id, b"world".to_vec()), SendOutcome::Queued);
        assert_eq!(read_frame(&mut c).unwrap(), b"world");
        assert_eq!(srv.clients_open(), 1);
    }

    #[test]
    fn pipelined_frames_arrive_in_order() {
        let srv = server();
        let mut c = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        let Some(ClientEvent::Connected(_)) = srv.recv_timeout(Duration::from_secs(2)) else {
            panic!("no connect event");
        };
        let mut burst = Vec::new();
        for i in 0..100u8 {
            burst.extend_from_slice(&frame(&[i; 3]));
        }
        c.write_all(&burst).unwrap();
        for i in 0..100u8 {
            match srv.recv_timeout(Duration::from_secs(2)) {
                Some(ClientEvent::Frame(_, payload)) => assert_eq!(payload, [i; 3]),
                other => panic!("expected frame {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn disconnect_emits_event_and_forgets_client() {
        let srv = server();
        let c = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        let id = match srv.recv_timeout(Duration::from_secs(2)) {
            Some(ClientEvent::Connected(id)) => id,
            other => panic!("expected Connected, got {other:?}"),
        };
        drop(c);
        match srv.recv_timeout(Duration::from_secs(2)) {
            Some(ClientEvent::Disconnected(got)) => assert_eq!(got, id),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert_eq!(srv.clients_open(), 0);
        assert_eq!(srv.send(id, b"late".to_vec()), SendOutcome::Gone);
    }

    #[test]
    fn kick_flushes_queued_reply_then_closes() {
        let srv = server();
        let mut c = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        let id = match srv.recv_timeout(Duration::from_secs(2)) {
            Some(ClientEvent::Connected(id)) => id,
            other => panic!("expected Connected, got {other:?}"),
        };
        // Queue the goodbye, then kick: the client must still read the
        // goodbye before EOF (auth-denial pattern).
        assert_eq!(srv.send(id, b"denied".to_vec()), SendOutcome::Queued);
        srv.kick(id);
        assert_eq!(read_frame(&mut c).unwrap(), b"denied");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "clean EOF after the flushed goodbye");
        match srv.recv_timeout(Duration::from_secs(2)) {
            Some(ClientEvent::Disconnected(got)) => assert_eq!(got, id),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn oversize_client_frame_kills_the_connection_not_the_server() {
        let srv = FrameServer::bind(TransportTuning::default(), 64).expect("bind");
        let mut c = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        let Some(ClientEvent::Connected(_)) = srv.recv_timeout(Duration::from_secs(2)) else {
            panic!("no connect event");
        };
        c.write_all(&frame(&[0u8; 65])).unwrap();
        assert!(matches!(
            srv.recv_timeout(Duration::from_secs(2)),
            Some(ClientEvent::Disconnected(_))
        ));
        assert!(
            srv.net_stats().poll_errors >= 1,
            "violation must be counted"
        );
        // The server still accepts fresh clients.
        let _c2 = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        assert!(matches!(
            srv.recv_timeout(Duration::from_secs(2)),
            Some(ClientEvent::Connected(_))
        ));
    }

    #[test]
    fn many_concurrent_clients_on_fixed_pollers() {
        let srv = server();
        let mut conns = Vec::new();
        for _ in 0..64 {
            conns.push(TcpStream::connect(("127.0.0.1", srv.port())).unwrap());
        }
        let mut ids = Vec::new();
        for _ in 0..64 {
            match srv.recv_timeout(Duration::from_secs(2)) {
                Some(ClientEvent::Connected(id)) => ids.push(id),
                other => panic!("expected Connected, got {other:?}"),
            }
        }
        assert_eq!(srv.clients_open(), 64);
        for (i, c) in conns.iter_mut().enumerate() {
            c.write_all(&frame(&[i as u8])).unwrap();
        }
        let mut seen = 0;
        while seen < 64 {
            match srv.recv_timeout(Duration::from_secs(2)) {
                Some(ClientEvent::Frame(id, payload)) => {
                    assert_eq!(srv.send(id, payload), SendOutcome::Queued);
                    seen += 1;
                }
                Some(ClientEvent::Connected(_)) | Some(ClientEvent::Disconnected(_)) => {}
                None => panic!("timed out at {seen}/64 frames"),
            }
        }
        for (i, c) in conns.iter_mut().enumerate() {
            assert_eq!(read_frame(c).unwrap(), [i as u8]);
        }
    }
}
