//! Unified telemetry for the PASO workspace.
//!
//! Three pieces, deliberately at the bottom of the dependency graph so both
//! the deterministic simulator and the live threaded runtime can share them:
//!
//! * [`Telemetry`] — a lock-free metrics registry of named counters, gauges
//!   and fixed-bucket histograms.  Registration takes a short lock on a name
//!   table; every subsequent update is a plain atomic.  Snapshots are cheap,
//!   consistent-enough views that merge associatively across nodes/threads.
//! * [`TraceBuf`] — a bounded structured trace-event stream (op begin/end,
//!   gcast fan-out, view changes, fault injection).  Timestamps are supplied
//!   by the driver: sim-time micros under simnet, monotonic micros since
//!   start under the live runtime.
//! * [`check_trace`] — an A1–A3 axiom checker (§2 of the paper) that any
//!   test can run over a recorded trace to decide whether the run was legal.

mod axioms;
mod hist;
mod registry;
mod trace;

pub use axioms::{
    check_trace, AxiomReport, AxiomTracker, AxiomTrackerState, AxiomViolation, ObjLife, PendingOp,
};
pub use hist::{HistSnapshot, Histogram, N_BUCKETS};
pub use registry::{intern, Counter, Gauge, Snapshot, Telemetry};
pub use trace::{ObjRef, OpKind, Outcome, TraceBuf, TraceEvent, TraceKind};
