//! Where the live driver counts.
//!
//! A quantity has one increment site and one accumulator, and the
//! accumulator is a handle into the `paso-telemetry` registry. The
//! [`Ledger`] — registry, trace stream, and the epoch trace stamps are
//! measured from — is created *first* and handed to whatever counts
//! (transports, reactor, node threads, gateways). [`NetStats`] and
//! [`ClusterStats`] are typed views *read from* the registry, never a
//! second set of counters.

use std::sync::Arc;
use std::time::Instant;

use paso_telemetry::{Counter, Histogram, Telemetry, TraceBuf, TraceKind};

/// The registry, the trace stream and the timebase one live deployment
/// reports through.
pub struct Ledger {
    telemetry: Arc<Telemetry>,
    trace: Arc<TraceBuf>,
    epoch: Instant,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger").finish_non_exhaustive()
    }
}

impl Ledger {
    /// A fresh registry and trace stream; the epoch is now.
    pub fn new() -> Arc<Self> {
        Arc::new(Ledger {
            telemetry: Arc::new(Telemetry::new()),
            trace: Arc::new(TraceBuf::new()),
            epoch: Instant::now(),
        })
    }

    /// The metrics registry.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The structured trace stream.
    pub fn trace_buf(&self) -> &Arc<TraceBuf> {
        &self.trace
    }

    /// Micros since the epoch — the timebase of every trace event.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one trace event stamped now.
    pub fn trace(&self, node: u32, kind: TraceKind) {
        self.trace.record(self.now_micros(), node, kind);
    }

    /// The cluster-wide view: every field is the registry counter of the
    /// name beside it.
    pub fn cluster_stats(&self) -> ClusterStats {
        let c = |name| self.telemetry.counter(name).get() as u64;
        ClusterStats {
            msgs_sent: c("net.msgs_sent"),
            bytes_sent: c("net.bytes_sent"),
            total_work: c("work.total"),
            msgs_delivered: c("net.msgs_delivered"),
            msgs_dropped: c("net.msgs_dropped"),
            msgs_faulted: c("net.msgs_faulted"),
            msgs_delayed: c("net.msgs_delayed"),
            client_retries: c("client.retries"),
            results_evicted: c("client.results_evicted"),
        }
    }
}

/// Cluster-wide counters: the node-side totals plus the transport's
/// message-path accounting and the client API's retry/eviction activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Messages sent by node protocol logic (`net.msgs_sent`).
    pub msgs_sent: u64,
    /// Bytes handed to live writers (`net.bytes_sent`, see
    /// [`NetStats::bytes_sent`]).
    pub bytes_sent: u64,
    /// Work units charged across all servers (`work.total`).
    pub total_work: u64,
    /// Frames handed off for delivery by the transport.
    pub msgs_delivered: u64,
    /// Frames dropped by the transport failure path (dead peer queue
    /// overflow, missing port, writer loss).
    pub msgs_dropped: u64,
    /// Frames dropped by injected faults.
    pub msgs_faulted: u64,
    /// Frames deferred through the injected-delay line.
    pub msgs_delayed: u64,
    /// Timed-out idempotent client ops re-issued under the same op id.
    pub client_retries: u64,
    /// Unclaimed client results evicted from the completion table.
    pub results_evicted: u64,
}

/// Message-path counters a transport exposes. All counters are
/// monotonic; `bytes_sent` covers only frames actually handed to a live
/// writer, so bytes and delivered/dropped counts reconcile exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes handed to a live, connected writer (TCP) or a mailbox
    /// (channel transport). Network envelopes only.
    pub bytes_sent: u64,
    /// Frames handed off for delivery.
    pub msgs_delivered: u64,
    /// Frames dropped by the *failure path*: missing port, bounded queue
    /// overflow, or loss with a dying connection.
    pub msgs_dropped: u64,
    /// Frames dropped by *injected* faults (lossy link or partition).
    pub msgs_faulted: u64,
    /// Frames that took the injected-delay line before delivery.
    pub msgs_delayed: u64,
    /// I/O errors the transport absorbed instead of panicking: mid-frame
    /// peer death, corrupt length prefixes, failed dials it could not
    /// make non-blocking. Each one killed at most a connection, never
    /// the thread reading or writing it.
    pub poll_errors: u64,
}

/// A transport's handles into the registry, resolved once at
/// construction so the message path never takes the name-table lock. The
/// reactor counts `bytes`/`delivered` as frames fully cross a live socket
/// and `dropped` on mid-write failures; the fault gate counts
/// `faulted`/`delayed` and the link histograms; the rest is the send
/// path's.
pub(crate) struct NetCounters {
    /// `net.bytes_sent`
    pub(crate) bytes: Arc<Counter>,
    /// `net.msgs_delivered`
    pub(crate) delivered: Arc<Counter>,
    /// `net.msgs_dropped`
    pub(crate) dropped: Arc<Counter>,
    /// `net.msgs_faulted`
    pub(crate) faulted: Arc<Counter>,
    /// `net.msgs_delayed`
    pub(crate) delayed: Arc<Counter>,
    /// `net.poll.errors` (see [`NetStats::poll_errors`]).
    pub(crate) errors: Arc<Counter>,
    /// `net.poll.wakeups` — ready-set size per poll return that found
    /// something ready, the I/O thread's or a mailbox's.
    pub(crate) wakeups: Arc<Histogram>,
    /// `net.writev.batch_frames` — frames per vectored write batch.
    pub(crate) batch_frames: Arc<Histogram>,
    /// `net.writev.batch_bytes` — bytes per vectored write batch.
    pub(crate) batch_bytes: Arc<Histogram>,
    /// `net.link.latency_micros` — injected delay per delayed frame.
    pub(crate) link_latency: Arc<Histogram>,
    /// `net.link.jitter_micros` — the jitter component of that delay, so
    /// a dashboard can tell a slow link from a noisy one.
    pub(crate) link_jitter: Arc<Histogram>,
}

impl NetCounters {
    pub(crate) fn new(t: &Telemetry) -> Self {
        NetCounters {
            bytes: t.counter("net.bytes_sent"),
            delivered: t.counter("net.msgs_delivered"),
            dropped: t.counter("net.msgs_dropped"),
            faulted: t.counter("net.msgs_faulted"),
            delayed: t.counter("net.msgs_delayed"),
            errors: t.counter("net.poll.errors"),
            wakeups: t.histogram("net.poll.wakeups"),
            batch_frames: t.histogram("net.writev.batch_frames"),
            batch_bytes: t.histogram("net.writev.batch_bytes"),
            link_latency: t.histogram("net.link.latency_micros"),
            link_jitter: t.histogram("net.link.jitter_micros"),
        }
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            bytes_sent: self.bytes.get() as u64,
            msgs_delivered: self.delivered.get() as u64,
            msgs_dropped: self.dropped.get() as u64,
            msgs_faulted: self.faulted.get() as u64,
            msgs_delayed: self.delayed.get() as u64,
            poll_errors: self.errors.get() as u64,
        }
    }
}

impl std::fmt::Debug for NetCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}
