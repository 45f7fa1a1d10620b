//! A checkpointable tuple-store workload for campaigns.
//!
//! [`TupleActor`] is a deliberately small PASO-shaped protocol: each key has
//! a *home* node (`key mod n`) that owns its authoritative copy and fans
//! replicas out to `λ` successors, acking the client insert once all
//! replicas confirm (§3's basic support set, collapsed to one group per
//! key).  It records `OpBegin`/`OpEnd` trace events in the shared axiom
//! vocabulary, so the A1–A3 checker applies to its runs unchanged, and it
//! implements [`Wire`] so the campaign driver can checkpoint and branch it.
//!
//! Two properties make it the campaign test vehicle:
//!
//! * **Branchable parameters** — `SetLambda` retargets the replication
//!   degree *mid-run*, so branches can explore different λ futures from an
//!   identical past.
//! * **Plantable bug** — built with `leak_takes`, a `Take` returns the
//!   object but forgets to remove it, so a later `Take` of the same key
//!   consumes it twice: a planted A2 `DoubleConsume` at a deterministic
//!   event index for the bisector to find.
//!
//! Object identity is `ObjRef { origin: key, seq: insert op id }` — op ids
//! are globally unique, so re-inserting a key after a consume (or after the
//! home crashed and lost its state) creates a *different* object rather
//! than a false `DuplicateInsert`.

use std::collections::BTreeMap;

use paso_simnet::{
    Actor, Context, Engine, EngineConfig, FaultScript, NodeEvent, NodeId, SimTime, WireSized,
};
use paso_telemetry::{ObjRef, OpKind, Outcome, TraceKind};
use paso_wire::Wire;

use crate::driver::Scenario;

/// Messages of the tuple-store protocol (client ops are injected, the rest
/// flow node-to-node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleMsg {
    /// Client insert of `val` under `key`, handled by the key's home node.
    Insert { op: u64, key: u64, val: u64 },
    /// Client read.
    Read { op: u64, key: u64 },
    /// Client read&del.
    Take { op: u64, key: u64 },
    /// Home → successor: store a replica.
    Replicate {
        key: u64,
        val: u64,
        version: u64,
        home: NodeId,
    },
    /// Successor → home: replica stored.
    Ack { key: u64 },
    /// Home → successor: drop the replica (key was consumed).
    Purge { key: u64 },
    /// Control: retarget the replication degree (campaign branch knob).
    SetLambda { lambda: u32 },
}

paso_wire::wire_enum!(TupleMsg {
    0 => Insert { op, key, val },
    1 => Read { op, key },
    2 => Take { op, key },
    3 => Replicate { key, val, version, home },
    4 => Ack { key },
    5 => Purge { key },
    6 => SetLambda { lambda },
});

impl WireSized for TupleMsg {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

/// Operation completions surfaced to the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleOut {
    /// Insert fully replicated and acknowledged.
    Inserted { op: u64, key: u64 },
    /// Read completed (`found` = hit).
    Read { op: u64, key: u64, found: bool },
    /// Read&del completed (`found` = hit-and-consumed).
    Taken { op: u64, key: u64, found: bool },
}

/// An in-flight insert at its home node, waiting for replica acks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingIns {
    op: u64,
    left: u32,
}

paso_wire::wire_struct!(PendingIns { op, left });

/// The tuple-store protocol state machine (one per node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleActor {
    id: NodeId,
    lambda: u32,
    leak_takes: bool,
    /// `key → (val, insert op id)`; the op id doubles as the object's
    /// `seq` in trace events.
    store: BTreeMap<u64, (u64, u64)>,
    pending: BTreeMap<u64, PendingIns>,
}

paso_wire::wire_struct!(TupleActor {
    id,
    lambda,
    leak_takes,
    store,
    pending
});

impl TupleActor {
    /// A fresh node with replication degree `lambda`. With `leak_takes`
    /// every `Take` returns the object but *keeps it in the store* — the
    /// planted A2 violation for bisection fixtures.
    pub fn new(id: NodeId, lambda: u32, leak_takes: bool) -> Self {
        TupleActor {
            id,
            lambda,
            leak_takes,
            store: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Current replication degree (branch assertions).
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Number of keys currently held (authoritative + replicas).
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// The `λ` successor nodes that replicate this node's keys.
    fn successors(&self, n: usize) -> Vec<NodeId> {
        let fanout = (self.lambda as usize).min(n.saturating_sub(1));
        (1..=fanout as u32)
            .map(|i| NodeId((self.id.0 + i) % n as u32))
            .collect()
    }

    fn handle_msg(&mut self, ctx: &mut Context<'_, TupleMsg, TupleOut>, msg: TupleMsg) {
        match msg {
            TupleMsg::Insert { op, key, val } => {
                let obj = ObjRef {
                    origin: key,
                    seq: op,
                };
                ctx.trace(TraceKind::OpBegin {
                    op_id: op,
                    op: OpKind::Insert,
                    obj: Some(obj),
                });
                self.store.insert(key, (val, op));
                let peers = self.successors(ctx.n());
                if peers.is_empty() {
                    ctx.trace(TraceKind::OpEnd {
                        op_id: op,
                        op: OpKind::Insert,
                        outcome: Outcome::Inserted,
                    });
                    ctx.emit(TupleOut::Inserted { op, key });
                } else {
                    self.pending.insert(
                        key,
                        PendingIns {
                            op,
                            left: peers.len() as u32,
                        },
                    );
                    let home = self.id;
                    ctx.send_many(
                        peers,
                        TupleMsg::Replicate {
                            key,
                            val,
                            version: op,
                            home,
                        },
                    );
                }
            }
            TupleMsg::Replicate {
                key,
                val,
                version,
                home,
            } => {
                self.store.insert(key, (val, version));
                ctx.send(home, TupleMsg::Ack { key });
            }
            TupleMsg::Ack { key } => {
                if let Some(p) = self.pending.get_mut(&key) {
                    p.left -= 1;
                    if p.left == 0 {
                        let p = self.pending.remove(&key).expect("pending entry present");
                        ctx.trace(TraceKind::OpEnd {
                            op_id: p.op,
                            op: OpKind::Insert,
                            outcome: Outcome::Inserted,
                        });
                        ctx.emit(TupleOut::Inserted { op: p.op, key });
                    }
                }
            }
            TupleMsg::Read { op, key } => {
                ctx.trace(TraceKind::OpBegin {
                    op_id: op,
                    op: OpKind::Read,
                    obj: None,
                });
                let hit = self.store.get(&key).copied();
                let outcome = match hit {
                    Some((_, version)) => Outcome::Found(ObjRef {
                        origin: key,
                        seq: version,
                    }),
                    None => Outcome::Fail,
                };
                ctx.trace(TraceKind::OpEnd {
                    op_id: op,
                    op: OpKind::Read,
                    outcome,
                });
                ctx.emit(TupleOut::Read {
                    op,
                    key,
                    found: hit.is_some(),
                });
            }
            TupleMsg::Take { op, key } => {
                ctx.trace(TraceKind::OpBegin {
                    op_id: op,
                    op: OpKind::ReadDel,
                    obj: None,
                });
                let hit = self.store.get(&key).copied();
                let outcome = match hit {
                    Some((_, version)) => {
                        if !self.leak_takes {
                            self.store.remove(&key);
                            let peers = self.successors(ctx.n());
                            if !peers.is_empty() {
                                ctx.send_many(peers, TupleMsg::Purge { key });
                            }
                        }
                        Outcome::Found(ObjRef {
                            origin: key,
                            seq: version,
                        })
                    }
                    None => Outcome::Fail,
                };
                ctx.trace(TraceKind::OpEnd {
                    op_id: op,
                    op: OpKind::ReadDel,
                    outcome,
                });
                ctx.emit(TupleOut::Taken {
                    op,
                    key,
                    found: hit.is_some(),
                });
            }
            TupleMsg::Purge { key } => {
                self.store.remove(&key);
            }
            TupleMsg::SetLambda { lambda } => {
                self.lambda = lambda;
            }
        }
    }
}

impl Actor for TupleActor {
    type Msg = TupleMsg;
    type Output = TupleOut;

    fn handle(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        event: NodeEvent<Self::Msg>,
    ) {
        if let NodeEvent::Message { msg, .. } = event {
            self.handle_msg(ctx, msg);
        }
    }
}

/// Shape of a generated tuple workload.
#[derive(Debug, Clone)]
pub struct TupleScenarioSpec {
    /// Ensemble size.
    pub n: usize,
    /// Initial replication degree.
    pub lambda: u32,
    /// Workload seed (drives op mix and key choice).
    pub seed: u64,
    /// Number of client operations to inject.
    pub ops: usize,
    /// Key space size (small → frequent re-use, which is what exercises
    /// take/re-insert and the planted leak).
    pub keys: u64,
    /// Spacing between consecutive injections.
    pub gap: SimTime,
    /// Plant the leaky-take bug.
    pub leak_takes: bool,
    /// Optional crash/repair script.
    pub faults: Option<FaultScript>,
}

impl TupleScenarioSpec {
    /// A small, densely-keyed default: enough take/re-take traffic that a
    /// planted leak trips within a few dozen events.
    pub fn small(seed: u64) -> Self {
        TupleScenarioSpec {
            n: 4,
            lambda: 1,
            seed,
            ops: 120,
            keys: 8,
            gap: SimTime::from_micros(300),
            leak_takes: false,
            faults: None,
        }
    }
}

/// Deterministic splitmix64 — the workload generator's only randomness, so
/// scenarios are reproducible from `seed` alone without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Builds a seeded tuple-store scenario: a mixed insert/read/take stream
/// over a small key space, each op injected at its key's home node.  Op
/// ids start at 1 and increase in injection order.
pub fn tuple_scenario(spec: &TupleScenarioSpec) -> Scenario<TupleActor> {
    let mut config = EngineConfig::for_tests(spec.n);
    config.seed = spec.seed;
    let mut rng = spec.seed;
    let mut injections = Vec::with_capacity(spec.ops);
    for i in 0..spec.ops {
        let op = (i + 1) as u64;
        let at = SimTime::from_micros(spec.gap.as_micros() * (i as u64 + 1));
        let key = splitmix64(&mut rng) % spec.keys;
        let home = NodeId((key % spec.n as u64) as u32);
        let msg = match splitmix64(&mut rng) % 100 {
            0..=49 => TupleMsg::Insert {
                op,
                key,
                val: splitmix64(&mut rng),
            },
            50..=74 => TupleMsg::Read { op, key },
            _ => TupleMsg::Take { op, key },
        };
        injections.push((at, home, msg));
    }
    let lambda = spec.lambda;
    let leak = spec.leak_takes;
    Scenario {
        config,
        factory: std::sync::Arc::new(move |id| TupleActor::new(id, lambda, leak)),
        injections,
        faults: spec.faults.clone(),
    }
}

/// Builds the engine for a spec directly (tests that don't need the
/// campaign driver).
pub fn tuple_engine(spec: &TupleScenarioSpec) -> Engine<TupleActor> {
    tuple_scenario(spec).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_telemetry::check_trace;
    use paso_wire::{decode_exact, encode_to_vec};

    /// Every variant round-trips, and `wire_size` — charged on every
    /// simulated send and computed arithmetically — equals the real byte
    /// count at each varint width boundary.
    #[test]
    fn msgs_round_trip_and_wire_size_is_the_encoded_length() {
        for v in [0, 127, 128, 1 << 14, u64::MAX] {
            let home = NodeId(v as u32);
            for m in [
                TupleMsg::Insert {
                    op: v,
                    key: v,
                    val: v,
                },
                TupleMsg::Read { op: v, key: v },
                TupleMsg::Take { op: v, key: v },
                TupleMsg::Replicate {
                    key: v,
                    val: v,
                    version: v,
                    home,
                },
                TupleMsg::Ack { key: v },
                TupleMsg::Purge { key: v },
                TupleMsg::SetLambda { lambda: v as u32 },
            ] {
                let bytes = encode_to_vec(&m);
                assert_eq!(m.wire_size(), bytes.len(), "{m:?}");
                assert_eq!(decode_exact::<TupleMsg>(&bytes).unwrap(), m);
            }
        }
    }

    #[test]
    fn correct_actor_produces_axiom_clean_runs() {
        let spec = TupleScenarioSpec::small(42);
        let mut engine = tuple_engine(&spec);
        engine.run_until(SimTime::from_micros(1_000_000));
        let outputs = engine.take_outputs();
        assert!(!outputs.is_empty());
        let report = check_trace(&engine.trace_buf().events());
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.consumes > 0, "workload never consumed anything");
    }

    #[test]
    fn leaky_actor_plants_a_double_consume() {
        let spec = TupleScenarioSpec {
            leak_takes: true,
            ..TupleScenarioSpec::small(42)
        };
        let mut engine = tuple_engine(&spec);
        engine.run_until(SimTime::from_micros(1_000_000));
        engine.take_outputs();
        let report = check_trace(&engine.trace_buf().events());
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, paso_telemetry::AxiomViolation::DoubleConsume { .. })),
            "leak planted no DoubleConsume: {:?}",
            report.violations
        );
    }

    #[test]
    fn set_lambda_retargets_replication() {
        let mut engine = Engine::new(EngineConfig::for_tests(4), |id| {
            TupleActor::new(id, 1, false)
        });
        engine.inject(
            SimTime::from_micros(10),
            NodeId(0),
            TupleMsg::SetLambda { lambda: 3 },
        );
        engine.inject(
            SimTime::from_micros(20),
            NodeId(0),
            TupleMsg::Insert {
                op: 1,
                key: 0,
                val: 5,
            },
        );
        engine.run_until(SimTime::from_micros(100_000));
        let outputs = engine.take_outputs();
        assert!(outputs
            .iter()
            .any(|(_, _, o)| matches!(o, TupleOut::Inserted { op: 1, .. })));
        assert_eq!(engine.actor(NodeId(0)).lambda(), 3);
        // All three successors hold a replica.
        for peer in 1..4 {
            assert_eq!(engine.actor(NodeId(peer)).stored(), 1);
        }
    }
}
