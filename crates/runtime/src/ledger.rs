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

use paso_telemetry::{metrics, Telemetry, TraceBuf, TraceKind};

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
        let c = |id| self.telemetry.counter(id).get() as u64;
        ClusterStats {
            msgs_sent: c(metrics::NET_MSGS_SENT),
            bytes_sent: c(metrics::NET_BYTES_SENT),
            total_work: c(metrics::WORK_TOTAL),
            msgs_delivered: c(metrics::NET_MSGS_DELIVERED),
            msgs_dropped: c(metrics::NET_MSGS_DROPPED),
            msgs_faulted: c(metrics::NET_MSGS_FAULTED),
            msgs_delayed: c(metrics::NET_MSGS_DELAYED),
            client_retries: c(metrics::CLIENT_RETRIES),
            results_evicted: c(metrics::CLIENT_RESULTS_EVICTED),
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

impl NetStats {
    /// The transport counters `telemetry` holds.
    pub(crate) fn read(telemetry: &Telemetry) -> Self {
        let c = |id| telemetry.counter(id).get() as u64;
        NetStats {
            bytes_sent: c(metrics::NET_BYTES_SENT),
            msgs_delivered: c(metrics::NET_MSGS_DELIVERED),
            msgs_dropped: c(metrics::NET_MSGS_DROPPED),
            msgs_faulted: c(metrics::NET_MSGS_FAULTED),
            msgs_delayed: c(metrics::NET_MSGS_DELAYED),
            poll_errors: c(metrics::NET_POLL_ERRORS),
        }
    }
}
