//! The client-op ledger: issue-time and completion-time accounting.
//!
//! Every driver that submits operations on a client's behalf — the
//! simulator, the live cluster's synchronous API, the proxy gateway —
//! records them through one [`OpLedger`], so the `client.op.*` counters,
//! `op.*.latency_micros` histograms and `OpBegin`/`OpEnd` trace events
//! mean the same thing whichever path an op took. The retry policy the
//! live drivers share ([`ClientOp::retryable`], [`retry_slice`]) lives
//! beside it.

use std::sync::Arc;
use std::time::Duration;

use paso_telemetry::{metrics, OpKind, Outcome, Telemetry, TraceBuf, TraceKind};

use crate::wire::{obj_ref, ClientOp};

/// Records client operations into a metrics registry and a trace stream.
pub struct OpLedger {
    telemetry: Arc<Telemetry>,
    trace: Arc<TraceBuf>,
}

impl OpLedger {
    /// A ledger writing into `telemetry` and `trace`.
    pub fn new(telemetry: Arc<Telemetry>, trace: Arc<TraceBuf>) -> Self {
        OpLedger { telemetry, trace }
    }

    /// The registry this ledger writes into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Issue-time accounting: one count and one `OpBegin` per op,
    /// however many times it is later re-sent, so op-level totals of a
    /// simulated and a live run of one workload compare directly.
    pub fn begin(&self, now_micros: u64, node: u32, op_id: u64, op: &ClientOp) {
        let (counter, obj) = match op {
            ClientOp::Insert { object } => (metrics::CLIENT_OP_INSERT, Some(obj_ref(object.id()))),
            ClientOp::Read { .. } => (metrics::CLIENT_OP_READ, None),
            ClientOp::ReadDel { .. } => (metrics::CLIENT_OP_READDEL, None),
        };
        self.telemetry.count(counter, 1.0);
        let op = op.kind();
        self.trace
            .record(now_micros, node, TraceKind::OpBegin { op_id, op, obj });
    }

    /// Completion-time accounting: one latency sample in the op kind's
    /// histogram and one `OpEnd` carrying the outcome.
    pub fn end(
        &self,
        now_micros: u64,
        node: u32,
        op_id: u64,
        op: OpKind,
        latency_micros: u64,
        outcome: Outcome,
    ) {
        let hist = match op {
            OpKind::Insert => metrics::OP_INSERT_LATENCY_MICROS,
            OpKind::Read => metrics::OP_READ_LATENCY_MICROS,
            OpKind::ReadDel => metrics::OP_READDEL_LATENCY_MICROS,
        };
        self.telemetry.record(hist, latency_micros);
        self.trace
            .record(now_micros, node, TraceKind::OpEnd { op_id, op, outcome });
    }

    /// A request re-sent under its original op id. A retry is the *same*
    /// op: no `client.op.*` count, no second `OpBegin`.
    pub fn retried(&self) {
        self.telemetry.count(metrics::CLIENT_RETRIES, 1.0);
    }

    /// A retry's second answer, dropped because the op already returned
    /// to its client.
    pub fn duplicate_answer(&self) {
        self.telemetry.count(metrics::CLIENT_DUP_ANSWERS, 1.0);
    }
}

/// Floor on the per-attempt wait: however the retry budget slices the op
/// deadline, every attempt gets at least this long for its answer to
/// arrive before the next re-send (or the final timeout) fires.
const MIN_RETRY_SLICE: Duration = Duration::from_millis(1);

/// The wait per attempt for an op re-sent up to `budget` times within
/// `op_timeout` (`budget` 0 for an op that is not
/// [`ClientOp::retryable`]). The deadline is sliced across the attempts
/// so retries make the op *more* likely to land within the same client
/// patience instead of stretching it; the slice is clamped from below
/// because with a large budget or a sub-millisecond timeout the division
/// hands each attempt a near-zero wait, and the op burns its whole
/// budget without giving the first request a chance to land.
pub fn retry_slice(op_timeout: Duration, budget: u32) -> Duration {
    (op_timeout / (budget + 1)).max(MIN_RETRY_SLICE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ClientResult;
    use paso_telemetry::ObjRef;
    use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};

    #[test]
    fn each_op_kind_is_booked_once_and_a_retry_adds_only_its_counter() {
        let sc = || SearchCriterion::from(Template::exact(vec![Value::Int(1)]));
        let object = PasoObject::new(ObjectId::new(ProcessId(3), 9), vec![Value::Int(1)]);
        let found = ClientResult::Found(object.clone());
        let cases = [
            (
                ClientOp::Insert { object },
                "insert",
                ClientResult::Inserted,
            ),
            (
                ClientOp::Read {
                    sc: sc(),
                    blocking: false,
                },
                "read",
                found,
            ),
            (
                ClientOp::ReadDel {
                    sc: sc(),
                    blocking: true,
                },
                "readdel",
                ClientResult::TimedOut,
            ),
        ];
        for (op_id, (op, name, result)) in cases.into_iter().enumerate() {
            let telemetry = Arc::new(Telemetry::new());
            let trace = Arc::new(TraceBuf::new());
            let ledger = OpLedger::new(Arc::clone(&telemetry), Arc::clone(&trace));
            let op_id = op_id as u64;
            ledger.begin(10, 2, op_id, &op);
            ledger.end(35, 2, op_id, op.kind(), 25, result.outcome());

            let snap = telemetry.snapshot();
            for other in ["insert", "read", "readdel"] {
                let want = u8::from(other == name);
                let counter = format!("client.op.{other}");
                assert_eq!(snap.counter(&counter), f64::from(want), "{counter}");
                let hist = format!("op.{other}.latency_micros");
                assert_eq!(snap.hist(&hist).count, u64::from(want), "{hist}");
            }
            let obj = (name == "insert").then_some(ObjRef { origin: 3, seq: 9 });
            let kind = op.kind();
            let events: Vec<_> = trace.events().into_iter().map(|e| e.kind).collect();
            assert_eq!(
                events,
                vec![
                    TraceKind::OpBegin {
                        op_id,
                        op: kind,
                        obj
                    },
                    TraceKind::OpEnd {
                        op_id,
                        op: kind,
                        outcome: result.outcome()
                    },
                ]
            );

            ledger.retried();
            let mut want = snap;
            want.counters.insert("client.retries".into(), 1.0);
            assert_eq!(telemetry.snapshot(), want, "a retry bumps one counter");
            assert_eq!(trace.len(), 2, "a retry is the same op: no trace event");
        }
    }

    #[test]
    fn retry_slice_divides_the_deadline_and_clamps_to_the_floor() {
        let secs = Duration::from_secs;
        // budget 0: the single attempt gets the whole timeout.
        assert_eq!(retry_slice(secs(10), 0), secs(10));
        assert_eq!(retry_slice(secs(9), 2), secs(3));
        // 200µs / 51 attempts truncates to ~4µs; the floor keeps every
        // attempt long enough for a reply to arrive.
        assert_eq!(
            retry_slice(Duration::from_micros(200), 50),
            Duration::from_millis(1)
        );
    }
}
