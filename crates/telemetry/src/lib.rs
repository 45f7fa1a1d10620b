//! Unified telemetry for the PASO workspace.
//!
//! Three pieces, deliberately at the bottom of the dependency graph so both
//! the deterministic simulator and the live threaded runtime can share them:
//!
//! * [`Telemetry`] — a lock-free metrics registry with one slot per row of
//!   the [`metrics`] table: counters, gauges and fixed-bucket histograms,
//!   updated through typed ids as plain atomics.  Snapshots report every
//!   row by name and merge associatively across nodes/threads.
//! * [`TraceBuf`] — a bounded structured trace-event stream (op begin/end,
//!   gcast fan-out, view changes, fault injection).  Timestamps are supplied
//!   by the driver: sim-time micros under simnet, monotonic micros since
//!   start under the live runtime.
//! * [`check_trace`] — an A1–A3 axiom checker (§2 of the paper) that any
//!   test can run over a recorded trace to decide whether the run was legal.

mod axioms;
mod hist;
pub mod metrics;
mod registry;
mod trace;

pub use axioms::{
    check_trace, AxiomReport, AxiomTracker, AxiomTrackerState, AxiomViolation, ObjLife, PendingOp,
};
pub use hist::{HistSnapshot, Histogram, N_BUCKETS};
pub use metrics::{CounterId, GaugeId, HistId, Kind, Metric, METRICS};
pub use registry::{Counter, Gauge, Snapshot, Telemetry, UndeclaredMetric};
pub use trace::{ObjRef, OpKind, Outcome, TraceBuf, TraceEvent, TraceKind};
