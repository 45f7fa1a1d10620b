//! Deterministic checkpoint/restore of a running simulation.
//!
//! A [`SimCheckpoint`] is a single self-describing byte blob (magic +
//! version + `paso-wire` payload) capturing *everything* that determines
//! the rest of a run: simulated clock, bus state, the RNG's seed and
//! stream position, every actor's state, every pending event **with its
//! original tie-break sequence number**, run statistics, and the metric
//! totals. Restoring into a fresh engine therefore replays the exact
//! remaining trace the uninterrupted run would have produced, byte for
//! byte — asserted by `tests/sim_checkpoint.rs`.
//!
//! Checkpointing requires the actor and message types to implement
//! [`paso_wire::Wire`]; engines whose actors are not wire-encodable simply
//! don't get the API (it lives in a separate `impl` block).
//!
//! Not captured: drained outputs (snapshotting with undrained outputs
//! panics — drain first), the recorded [`Trace`](crate::Trace) so far, and
//! the structured trace-event buffer; a restored run records the *suffix*.

use std::sync::Arc;

use crate::actor::{Actor, NodeId};
use crate::engine::{Engine, EngineConfig, Event, MachineStatus};
use crate::queue::EventQueue;
use crate::stats::{Publisher, Stats};
use crate::time::SimTime;
use paso_telemetry::{CounterId, HistSnapshot, Snapshot, Telemetry, TraceBuf, N_BUCKETS};
use paso_wire::{put_bytes, Reader, Wire, WireError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Leading magic of every checkpoint blob.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PASOCKPT";
/// Format version; bumped on any layout change.
pub const CHECKPOINT_VERSION: u32 = 2;

/// An opaque, self-describing snapshot of a simulation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCheckpoint {
    bytes: Vec<u8>,
}

impl SimCheckpoint {
    /// Total serialized size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The raw blob (magic + version + payload), e.g. for writing to disk.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopts a blob previously produced by
    /// [`Engine::snapshot`], validating magic and version.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        let ckpt = SimCheckpoint { bytes };
        ckpt.check_header()?;
        Ok(ckpt)
    }

    fn check_header(&self) -> Result<Reader<'_>, CheckpointError> {
        if self.bytes.len() < 8 || &self.bytes[..8] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut r = Reader::new(&self.bytes[8..]);
        let version = u32::decode(&mut r)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        Ok(r)
    }
}

/// Why a checkpoint could not be adopted or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with `PASOCKPT`.
    BadMagic,
    /// The blob's format version is not the one this build writes.
    BadVersion(u32),
    /// The checkpoint was taken from an engine with a different machine
    /// count than the one restoring it.
    WrongMachineCount {
        /// `n` of the restoring engine.
        expected: usize,
        /// `n` recorded in the checkpoint.
        found: usize,
    },
    /// The payload failed to decode.
    Decode(WireError),
    /// The payload names a metric the metric table does not declare
    /// with that kind.
    UndeclaredMetric(String),
    /// The restoring engine's configuration violates an [`EngineConfig`]
    /// invariant (branch-time overrides are validated, not trusted).
    InvalidConfig(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a PASO checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (want {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::WrongMachineCount { expected, found } => write!(
                f,
                "checkpoint is for n={found} machines but the engine has n={expected}"
            ),
            CheckpointError::Decode(e) => write!(f, "malformed checkpoint payload: {e}"),
            CheckpointError::UndeclaredMetric(name) => {
                write!(f, "checkpoint names undeclared metric `{name}`")
            }
            CheckpointError::InvalidConfig(why) => {
                write!(f, "invalid engine configuration for restore: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Decode(e)
    }
}

fn encode_status(s: MachineStatus, out: &mut Vec<u8>) {
    let tag: u64 = match s {
        MachineStatus::Up => 0,
        MachineStatus::Crashed => 1,
        MachineStatus::Initializing => 2,
    };
    tag.encode(out);
}

fn decode_status(r: &mut Reader<'_>) -> Result<MachineStatus, WireError> {
    match r.varint()? {
        0 => Ok(MachineStatus::Up),
        1 => Ok(MachineStatus::Crashed),
        2 => Ok(MachineStatus::Initializing),
        tag => Err(WireError::InvalidTag {
            ty: "MachineStatus",
            tag: tag.min(u8::MAX as u64) as u8,
        }),
    }
}

fn encode_event<M: Wire>(ev: &Event<M>, out: &mut Vec<u8>) {
    match ev {
        Event::Deliver {
            to,
            from,
            msg,
            bytes,
            via_bus,
        } => {
            0u64.encode(out);
            to.encode(out);
            from.encode(out);
            (*bytes as u64).encode(out);
            via_bus.encode(out);
            msg.encode(out);
        }
        Event::Timer { node, tag, epoch } => {
            1u64.encode(out);
            node.encode(out);
            tag.encode(out);
            epoch.encode(out);
        }
        Event::Crash { node, churn } => {
            2u64.encode(out);
            node.encode(out);
            churn.encode(out);
        }
        Event::Repair { node, churn } => {
            3u64.encode(out);
            node.encode(out);
            churn.encode(out);
        }
        Event::InitDone { node, epoch } => {
            4u64.encode(out);
            node.encode(out);
            epoch.encode(out);
        }
        Event::ChurnTick => 5u64.encode(out),
    }
}

fn decode_event<M: Wire>(r: &mut Reader<'_>) -> Result<Event<M>, WireError> {
    match r.varint()? {
        0 => Ok(Event::Deliver {
            to: NodeId::decode(r)?,
            from: NodeId::decode(r)?,
            bytes: u64::decode(r)? as usize,
            via_bus: bool::decode(r)?,
            msg: M::decode(r)?,
        }),
        1 => Ok(Event::Timer {
            node: NodeId::decode(r)?,
            tag: u64::decode(r)?,
            epoch: u64::decode(r)?,
        }),
        2 => Ok(Event::Crash {
            node: NodeId::decode(r)?,
            churn: bool::decode(r)?,
        }),
        3 => Ok(Event::Repair {
            node: NodeId::decode(r)?,
            churn: bool::decode(r)?,
        }),
        4 => Ok(Event::InitDone {
            node: NodeId::decode(r)?,
            epoch: u64::decode(r)?,
        }),
        5 => Ok(Event::ChurnTick),
        tag => Err(WireError::InvalidTag {
            ty: "SimEvent",
            tag: tag.min(u8::MAX as u64) as u8,
        }),
    }
}

fn encode_hist(h: &HistSnapshot, out: &mut Vec<u8>) {
    h.buckets.to_vec().encode(out);
    h.count.encode(out);
    h.sum.encode(out);
    h.min.encode(out);
    h.max.encode(out);
}

fn decode_hist(r: &mut Reader<'_>) -> Result<HistSnapshot, WireError> {
    let buckets: Vec<u64> = Vec::decode(r)?;
    if buckets.len() != N_BUCKETS {
        return Err(WireError::Malformed("histogram bucket count"));
    }
    let mut h = HistSnapshot::empty();
    h.buckets.copy_from_slice(&buckets);
    h.count = u64::decode(r)?;
    h.sum = u64::decode(r)?;
    h.min = u64::decode(r)?;
    h.max = u64::decode(r)?;
    Ok(h)
}

fn encode_named_f64s<K: AsRef<str>>(map: &std::collections::BTreeMap<K, f64>, out: &mut Vec<u8>) {
    (map.len() as u64).encode(out);
    for (name, value) in map {
        put_bytes(out, name.as_ref().as_bytes());
        value.encode(out);
    }
}

fn decode_named_f64s(
    r: &mut Reader<'_>,
) -> Result<std::collections::BTreeMap<String, f64>, WireError> {
    let n = r.varint()? as usize;
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..n {
        let name = String::decode(r)?;
        let value = f64::decode(r)?;
        map.insert(name, value);
    }
    Ok(map)
}

impl<A> Engine<A>
where
    A: Actor + Wire,
    A::Msg: Wire,
{
    /// Captures the engine's complete state as a [`SimCheckpoint`].
    ///
    /// Buffered telemetry is flushed first, so the checkpoint's metric
    /// totals equal what an observer of the registry would see.
    ///
    /// # Panics
    ///
    /// Panics if emitted outputs have not been drained with
    /// [`take_outputs`](Engine::take_outputs) — outputs are not
    /// checkpointed, and silently dropping them would lose client
    /// completions.
    pub fn snapshot(&mut self) -> SimCheckpoint {
        assert!(
            self.outputs.is_empty(),
            "drain outputs with take_outputs() before snapshotting"
        );
        self.flush_telemetry();
        let mut out = Vec::with_capacity(64 * self.config.n);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        CHECKPOINT_VERSION.encode(&mut out);

        // Clock, bus, fault bookkeeping.
        (self.config.n as u64).encode(&mut out);
        self.now.as_micros().encode(&mut out);
        self.bus_free_at.as_micros().encode(&mut out);
        self.queue.next_seq().encode(&mut out);
        (self.concurrent_failures as u64).encode(&mut out);

        // RNG: seed plus position in the keystream.
        put_bytes(&mut out, &self.rng.get_seed());
        self.rng.get_word_pos().encode(&mut out);

        // Arena columns (timer keys are rebuilt from the queue on restore).
        for i in 0..self.config.n {
            encode_status(self.arena.status[i], &mut out);
            self.arena.epoch[i].encode(&mut out);
            self.arena.churned[i].encode(&mut out);
            self.arena.actors[i].encode(&mut out);
        }

        // Pending events, sorted by (time, seq) with their *original*
        // sequence numbers so restored ties break identically.
        let mut pending: Vec<(SimTime, u64, &Event<A::Msg>)> = self.queue.iter_pending().collect();
        pending.sort_by_key(|(t, s, _)| (*t, *s));
        (pending.len() as u64).encode(&mut out);
        for (time, seq, ev) in pending {
            time.as_micros().encode(&mut out);
            seq.encode(&mut out);
            encode_event(ev, &mut out);
        }

        // Run statistics.
        self.stats.msgs_sent.encode(&mut out);
        self.stats.total_msg_cost.encode(&mut out);
        self.stats.total_bytes.encode(&mut out);
        self.stats.dropped_msgs.encode(&mut out);
        self.stats.bus_busy_micros.encode(&mut out);
        self.stats.work.encode(&mut out);
        self.stats.crashes.encode(&mut out);
        self.stats.recoveries.encode(&mut out);
        (self.stats.max_concurrent_failures as u64).encode(&mut out);
        self.stats.events_processed.encode(&mut out);
        let bumped: std::collections::BTreeMap<&str, f64> = CounterId::all()
            .map(|id| (id.name(), self.stats.counter(id)))
            .filter(|(_, value)| *value != 0.0)
            .collect();
        encode_named_f64s(&bumped, &mut out);

        // Metric totals.
        let snap = self.telemetry.snapshot();
        encode_named_f64s(&snap.counters, &mut out);
        encode_named_f64s(&snap.gauges, &mut out);
        (snap.hists.len() as u64).encode(&mut out);
        for (name, hist) in &snap.hists {
            name.encode(&mut out);
            encode_hist(hist, &mut out);
        }

        SimCheckpoint { bytes: out }
    }

    /// Rewinds this engine to `ckpt`'s state. Everything observable is
    /// replaced: clock, RNG position, actors, pending events (with their
    /// original tie-break order), statistics, and a **fresh** telemetry
    /// registry and trace buffer seeded with the checkpointed totals —
    /// fresh because the engine's existing registry may be shared with
    /// observers whose counts would otherwise double.
    pub fn restore(&mut self, ckpt: &SimCheckpoint) -> Result<(), CheckpointError> {
        let mut r = ckpt.check_header()?;

        let n = u64::decode(&mut r)? as usize;
        if n != self.config.n {
            return Err(CheckpointError::WrongMachineCount {
                expected: self.config.n,
                found: n,
            });
        }
        let now = SimTime::from_micros(u64::decode(&mut r)?);
        let bus_free_at = SimTime::from_micros(u64::decode(&mut r)?);
        let next_seq = u64::decode(&mut r)?;
        let concurrent_failures = u64::decode(&mut r)? as usize;

        let seed_bytes = r.byte_string().map_err(CheckpointError::Decode)?;
        let seed: [u8; 32] = seed_bytes
            .try_into()
            .map_err(|_| CheckpointError::Decode(WireError::Malformed("rng seed length")))?;
        let word_pos = u64::decode(&mut r)?;

        let mut status = Vec::with_capacity(n);
        let mut epoch = Vec::with_capacity(n);
        let mut churned = Vec::with_capacity(n);
        let mut actors = Vec::with_capacity(n);
        for _ in 0..n {
            status.push(decode_status(&mut r)?);
            epoch.push(u64::decode(&mut r)?);
            churned.push(bool::decode(&mut r)?);
            actors.push(A::decode(&mut r)?);
        }

        let n_events = u64::decode(&mut r)? as usize;
        let mut queue = EventQueue::new();
        queue.reserve(n_events);
        let mut timers: Vec<Vec<crate::queue::EventKey>> = vec![Vec::new(); n];
        for _ in 0..n_events {
            let time = SimTime::from_micros(u64::decode(&mut r)?);
            let seq = u64::decode(&mut r)?;
            let ev: Event<A::Msg> = decode_event(&mut r)?;
            let timer_node = match &ev {
                Event::Timer { node, .. } => Some(*node),
                _ => None,
            };
            let key = queue.push_with_seq(time, seq, ev);
            if let Some(node) = timer_node {
                timers[node.index()].push(key);
            }
        }
        queue.set_next_seq(next_seq);

        let mut stats = Stats::new(n);
        stats.msgs_sent = u64::decode(&mut r)?;
        stats.total_msg_cost = f64::decode(&mut r)?;
        stats.total_bytes = u64::decode(&mut r)?;
        stats.dropped_msgs = u64::decode(&mut r)?;
        stats.bus_busy_micros = u64::decode(&mut r)?;
        let work: Vec<u64> = Vec::decode(&mut r)?;
        if work.len() != n {
            return Err(CheckpointError::Decode(WireError::Malformed(
                "work column length",
            )));
        }
        stats.set_work(work);
        stats.crashes = u64::decode(&mut r)?;
        stats.recoveries = u64::decode(&mut r)?;
        stats.max_concurrent_failures = u64::decode(&mut r)? as usize;
        stats.events_processed = u64::decode(&mut r)?;
        for (name, value) in decode_named_f64s(&mut r)? {
            let id = CounterId::by_name(&name).ok_or(CheckpointError::UndeclaredMetric(name))?;
            stats.bump(id, value);
        }

        let mut tel_snap = Snapshot {
            counters: decode_named_f64s(&mut r)?,
            gauges: decode_named_f64s(&mut r)?,
            hists: Default::default(),
        };
        let n_hists = r.varint()? as usize;
        for _ in 0..n_hists {
            let name = String::decode(&mut r)?;
            let hist = decode_hist(&mut r)?;
            tel_snap.hists.insert(name, hist);
        }
        // A fresh registry, because the engine's may be shared with
        // observers whose counts would otherwise double.
        let telemetry = Arc::new(Telemetry::new());
        telemetry
            .restore(&tel_snap)
            .map_err(|e| CheckpointError::UndeclaredMetric(e.0))?;

        // Decode complete — now mutate, so a malformed blob can't leave
        // the engine half-restored.
        self.now = now;
        self.bus_free_at = bus_free_at;
        self.concurrent_failures = concurrent_failures;
        self.rng = ChaCha8Rng::from_seed(seed);
        self.rng.set_word_pos(word_pos);
        self.arena.status = status;
        self.arena.epoch = epoch;
        self.arena.churned = churned;
        self.arena.actors = actors;
        self.arena.timers = timers;
        self.queue = queue;
        self.stats = stats;
        self.outputs.clear();
        self.trace.clear();
        *self.tel.get_mut() = Publisher::new();
        self.telemetry = telemetry;
        self.trace_buf = Arc::new(TraceBuf::new());
        // A checkpoint taken without churn has no pending tick; if this
        // engine's config turns churn *on* (a campaign branch), arm the
        // process now. Restoring under the original config leaves the
        // checkpointed tick as-is, so identical-config restores stay
        // byte-identical.
        if let Some(churn) = self.config.churn {
            let has_tick = self
                .queue
                .iter_pending()
                .any(|(_, _, ev)| matches!(ev, Event::ChurnTick));
            if !has_tick {
                self.schedule_churn_tick(&churn);
            }
        }
        Ok(())
    }

    /// Builds a new engine directly in `ckpt`'s state. `config` must have
    /// the checkpoint's `n`; everything else (cost model, network model,
    /// fault plan, churn) may deliberately *differ* — that is how campaign
    /// branches explore alternate futures from an identical past. The
    /// config is validated first: branch-time overrides are user input by
    /// the time they reach a restore, so violations surface as
    /// [`CheckpointError::InvalidConfig`] rather than panics or silently
    /// nonsensical runs.
    pub fn from_checkpoint(
        config: EngineConfig,
        factory: impl Fn(NodeId) -> A + 'static,
        ckpt: &SimCheckpoint,
    ) -> Result<Self, CheckpointError> {
        config.validate().map_err(CheckpointError::InvalidConfig)?;
        // Shell arena: restore decodes every actor from the snapshot, so
        // building n factory actors here would be pure throwaway work.
        let mut engine = Engine::new_unstarted(config, factory, false);
        engine.restore(ckpt)?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, NodeEvent};
    use crate::cost::WireSized;
    use crate::engine::TraceEntry;
    use paso_telemetry::metrics;

    /// A checkpointable counter actor: counts pings, replies with pongs,
    /// and keeps a running total that must survive restore.
    #[derive(Debug, Clone, PartialEq)]
    struct Counting {
        id: NodeId,
        seen: u64,
    }

    paso_wire::wire_struct!(Counting { id, seen });

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u64);

    impl WireSized for Ping {
        fn wire_size(&self) -> usize {
            16
        }
    }

    paso_wire::wire_struct!(Ping { 0 });

    impl Actor for Counting {
        type Msg = Ping;
        type Output = u64;

        fn handle(&mut self, ctx: &mut Context<'_, Ping, u64>, ev: NodeEvent<Ping>) {
            match ev {
                NodeEvent::Start => ctx.set_timer(SimTime::from_millis(7), 1),
                NodeEvent::Message { msg, .. } => {
                    self.seen += 1;
                    ctx.emit(self.seen);
                    ctx.charge_work(2);
                    ctx.count(metrics::OP_RETRY_REPLAYED, 1.0);
                    if msg.0 > 0 {
                        let next = NodeId((self.id.0 + 1) % ctx.n() as u32);
                        ctx.send(next, Ping(msg.0 - 1));
                    }
                }
                NodeEvent::Timer { .. } => {
                    ctx.send_local(Ping(0));
                }
                _ => {}
            }
        }
    }

    fn fresh(seed: u64) -> Engine<Counting> {
        let mut cfg = EngineConfig::for_tests(4);
        cfg.seed = seed;
        cfg.record_trace = true;
        cfg.fault_plan = FaultPlanForTest::plan();
        Engine::new(cfg, |id| Counting { id, seen: 0 })
    }

    /// Indirection so the uninterrupted and restored runs share one plan.
    struct FaultPlanForTest;
    impl FaultPlanForTest {
        fn plan() -> crate::fault::FaultPlan {
            crate::fault::FaultPlan::none()
                .drop_all(0.1)
                .delay_all(crate::fault::DelayDist::uniform(10, 50))
        }
    }

    fn drive(e: &mut Engine<Counting>, until_ms: u64) {
        e.inject(SimTime::ZERO, NodeId(0), Ping(30));
        e.crash_now(NodeId(2));
        e.repair_now(NodeId(2));
        e.run_until(SimTime::from_millis(until_ms));
        e.take_outputs();
    }

    /// The registry is a published view of `Stats`: every engine total
    /// and every labeled counter reads the same from both.
    fn assert_registry_is_stats(e: &Engine<Counting>) {
        let (stats, snap) = (e.stats(), e.telemetry().snapshot());
        for (id, total) in crate::stats::totals(stats) {
            assert_eq!(snap.counter(id.name()), total, "{}", id.name());
        }
        assert!(stats.counter(metrics::OP_RETRY_REPLAYED) > 0.0);
        for id in CounterId::all() {
            if stats.counter(id) != 0.0 {
                assert_eq!(snap.counter(id.name()), stats.counter(id), "{}", id.name());
            }
        }
    }

    #[test]
    fn restored_run_replays_identical_trace_and_metrics() {
        // Uninterrupted reference run.
        let mut reference = fresh(42);
        drive(&mut reference, 5);
        assert_registry_is_stats(&reference);
        assert!(reference.stats().dropped_msgs > 0 && reference.stats().crashes > 0);
        let mid_len = reference.trace().len();
        reference.run_to_quiescence(100_000);
        let ref_tail: Vec<TraceEntry> = reference.trace()[mid_len..].to_vec();
        let ref_snap = reference.telemetry().snapshot();

        // Same run, checkpointed mid-flight and restored elsewhere.
        let mut original = fresh(42);
        drive(&mut original, 5);
        let ckpt = original.snapshot();
        let mut cfg = EngineConfig::for_tests(4);
        cfg.seed = 42;
        cfg.record_trace = true;
        cfg.fault_plan = FaultPlanForTest::plan();
        let mut restored =
            Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt).unwrap();
        assert_registry_is_stats(&restored);
        restored.run_to_quiescence(100_000);
        assert_registry_is_stats(&restored);

        assert_eq!(restored.trace().as_slice(), ref_tail.as_slice());
        assert_eq!(restored.telemetry().snapshot(), ref_snap);
        assert_eq!(restored.stats().msgs_sent, reference.stats().msgs_sent);
        assert_eq!(
            restored.stats().events_processed,
            reference.stats().events_processed
        );
        assert_eq!(
            restored.stats().total_msg_cost,
            reference.stats().total_msg_cost
        );
        for i in 0..4 {
            assert_eq!(
                restored.actor(NodeId(i)),
                reference.actor(NodeId(i)),
                "actor {i} state diverged"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let mut e = fresh(7);
        drive(&mut e, 3);
        let ckpt = e.snapshot();
        assert!(ckpt.size() > 16);
        let adopted = SimCheckpoint::from_bytes(ckpt.as_bytes().to_vec()).unwrap();
        assert_eq!(adopted, ckpt);
    }

    #[test]
    fn header_validation_rejects_garbage() {
        assert_eq!(
            SimCheckpoint::from_bytes(b"NOTACKPT----".to_vec()).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        99u32.encode(&mut bytes);
        assert_eq!(
            SimCheckpoint::from_bytes(bytes).unwrap_err(),
            CheckpointError::BadVersion(99)
        );
    }

    #[test]
    fn restore_rejects_wrong_machine_count() {
        let mut e = fresh(1);
        drive(&mut e, 2);
        let ckpt = e.snapshot();
        let cfg = EngineConfig::for_tests(8); // n mismatch
        let err = Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::WrongMachineCount {
                expected: 8,
                found: 4
            }
        );
    }

    #[test]
    fn restore_refuses_a_metric_the_table_does_not_declare() {
        let mut e = fresh(1);
        drive(&mut e, 2);
        let good = e.snapshot().as_bytes().to_vec();
        // The name's first occurrence is in the `Stats` counter section,
        // its second in the registry's. Each case swaps one of them for a
        // name of the same length, which keeps the blob decodable: a
        // one-byte rename, and `proxy.gossip.recv`, a row the table once
        // declared, as an older checkpoint would still name it.
        let name = b"op.retry.replayed";
        let at: Vec<usize> = (0..good.len())
            .filter(|&i| good[i..].starts_with(name))
            .collect();
        assert_eq!(at.len(), 2);
        for undeclared in ["op.retry.replayex", "proxy.gossip.recv"] {
            assert_eq!(undeclared.len(), name.len());
            for &i in &at {
                let mut bytes = good.clone();
                bytes[i..i + name.len()].copy_from_slice(undeclared.as_bytes());
                let mut target = fresh(1);
                let telemetry = Arc::clone(target.telemetry());
                let err = CheckpointError::UndeclaredMetric(undeclared.into());
                let ckpt = SimCheckpoint::from_bytes(bytes).unwrap();
                assert_eq!(target.restore(&ckpt), Err(err));
                assert_eq!(target.now(), SimTime::ZERO, "nothing restored");
                assert_eq!(target.stats().msgs_sent, 0);
                assert!(Arc::ptr_eq(target.telemetry(), &telemetry));
            }
        }
    }

    #[test]
    fn from_checkpoint_validates_branch_time_config_overrides() {
        use crate::fault::ChurnModel;

        let mut e = fresh(3);
        drive(&mut e, 2);
        let ckpt = e.snapshot();

        // Inverted init window.
        let mut cfg = EngineConfig::for_tests(4);
        cfg.init_min = SimTime::from_millis(5);
        cfg.init_max = SimTime::from_millis(1);
        let err = Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::InvalidConfig(_)), "{err}");

        // Churn model built by hand (bypassing the constructor's asserts),
        // as a branch override would.
        let mut cfg = EngineConfig::for_tests(4);
        cfg.churn = Some(ChurnModel {
            crash_rate_hz: 0.0,
            mean_downtime: SimTime::from_millis(5),
            max_concurrent: 2,
        });
        let err = Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::InvalidConfig(_)), "{err}");

        // Non-finite cost model.
        let mut cfg = EngineConfig::for_tests(4);
        cfg.cost_model = crate::cost::CostModel {
            alpha: f64::NAN,
            beta: 0.1,
        };
        let err = Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::InvalidConfig(_)), "{err}");

        // The unmodified config still restores.
        let mut cfg = EngineConfig::for_tests(4);
        cfg.seed = 3;
        cfg.record_trace = true;
        cfg.fault_plan = FaultPlanForTest::plan();
        assert!(Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt).is_ok());
    }

    #[test]
    fn branch_can_disable_churn_from_a_churning_checkpoint() {
        use crate::fault::ChurnModel;

        let mut cfg = EngineConfig::for_tests(4);
        cfg.churn = Some(ChurnModel::new(200.0, SimTime::from_millis(2), 2));
        let mut e = Engine::new(cfg, |id| Counting { id, seen: 0 });
        e.run_until(SimTime::from_millis(50));
        e.take_outputs();
        let crashes_so_far = e.stats().crashes;
        assert!(crashes_so_far > 0, "base run must churn");
        let ckpt = e.snapshot();

        // The checkpoint carries a pending ChurnTick; with churn turned
        // off it must expire harmlessly instead of panicking.
        let mut quiet = Engine::from_checkpoint(
            EngineConfig::for_tests(4),
            |id| Counting { id, seen: 0 },
            &ckpt,
        )
        .expect("restore with churn disabled");
        quiet.run_until(SimTime::from_secs(2));
        assert_eq!(
            quiet.stats().crashes,
            crashes_so_far,
            "no new crashes once churn is off"
        );
    }

    #[test]
    fn branch_can_enable_churn_on_a_churn_free_checkpoint() {
        use crate::fault::ChurnModel;

        let mut e = Engine::new(EngineConfig::for_tests(4), |id| Counting { id, seen: 0 });
        e.run_until(SimTime::from_millis(20));
        e.take_outputs();
        let ckpt = e.snapshot();
        assert_eq!(e.stats().crashes, 0);

        // No tick in the checkpoint, so restore must arm the process.
        let mut cfg = EngineConfig::for_tests(4);
        cfg.churn = Some(ChurnModel::new(200.0, SimTime::from_millis(2), 2));
        let mut churny = Engine::from_checkpoint(cfg, |id| Counting { id, seen: 0 }, &ckpt)
            .expect("restore with churn enabled");
        churny.run_until(SimTime::from_secs(1));
        assert!(
            churny.stats().crashes > 0,
            "enabled churn must actually crash machines"
        );
    }

    /// Arms timers tag 1 (5 ms) and tag 2 (9 ms) on start, cancels the
    /// tag a message names, and emits each tag that fires.
    #[derive(Debug, Clone, PartialEq)]
    struct Alarm {
        id: NodeId,
    }

    paso_wire::wire_struct!(Alarm { id });

    impl Actor for Alarm {
        type Msg = Ping;
        type Output = u64;

        fn handle(&mut self, ctx: &mut Context<'_, Ping, u64>, ev: NodeEvent<Ping>) {
            match ev {
                NodeEvent::Start => {
                    ctx.set_timer(SimTime::from_millis(5), 1);
                    ctx.set_timer(SimTime::from_millis(9), 2);
                }
                NodeEvent::Message { msg, .. } => ctx.cancel_timer(msg.0),
                NodeEvent::Timer { tag } => ctx.emit(tag),
                _ => {}
            }
        }
    }

    #[test]
    fn a_timer_set_before_a_save_can_be_cancelled_after_restore() {
        let mut e = Engine::new(EngineConfig::for_tests(2), |id| Alarm { id });
        e.run_until(SimTime::from_millis(1));
        let ckpt = e.snapshot();
        let mut restored =
            Engine::from_checkpoint(EngineConfig::for_tests(2), |id| Alarm { id }, &ckpt).unwrap();
        restored.inject(restored.now(), NodeId(1), Ping(1));
        restored.run_to_quiescence(100);
        let fired: Vec<(u32, u64)> = restored
            .take_outputs()
            .into_iter()
            .map(|(_, node, tag)| (node.0, tag))
            .collect();
        assert_eq!(fired, [(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn snapshot_is_stable_across_identical_runs() {
        let mut a = fresh(5);
        drive(&mut a, 4);
        let mut b = fresh(5);
        drive(&mut b, 4);
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "checkpoint bytes must be deterministic"
        );
    }
}
