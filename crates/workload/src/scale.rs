//! A PASO-flavoured shard actor for scale experiments.
//!
//! [`ShardActor`] is the workload the million-process simnet benchmarks
//! drive: a deterministic key→home sharded tuple store with λ-successor
//! replication, small enough that per-node state is a few hundred bytes
//! at rest, and free of any dependence on the membership oracle — so the
//! engine can run it with `membership_oracle: false` and faults stay O(1)
//! at any `n`.
//!
//! Protocol (all message counts are per *operation*, independent of `n`):
//!
//! - `insert(key, val)`: injected at `home(key) = key mod n`. The home
//!   stores locally, fans `Replicate` out to its λ successors, and emits
//!   [`ShardOut::Inserted`] once every successor acked (immediately when
//!   λ = 0). Acks from crashed replicas never arrive; the pending entry
//!   is abandoned when the op's slot is reused (scale runs measure
//!   throughput, not availability — the full PASO stack is what provides
//!   recovery semantics).
//! - `read(key)`: injected at the home, answered locally with
//!   [`ShardOut::Read`] — a hit iff the key was inserted first.
//!
//! Both the actor and its messages implement [`paso_wire::Wire`], which is
//! what makes engines running this workload checkpointable.

use std::collections::BTreeMap;

use paso_simnet::{Actor, Context, NodeEvent, NodeId, WireSized};

/// Messages of the shard protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// Client → home: store `val` under `key` and replicate.
    Insert {
        /// The key (homed at `key mod n`).
        key: u64,
        /// The value.
        val: u64,
    },
    /// Home → successor: store a replica.
    Replicate {
        /// The key.
        key: u64,
        /// The value.
        val: u64,
        /// The home that is collecting acks.
        home: NodeId,
    },
    /// Successor → home: replica stored.
    Ack {
        /// The key being acknowledged.
        key: u64,
    },
    /// Client → home: look `key` up.
    Read {
        /// The key.
        key: u64,
    },
}

paso_wire::wire_enum!(ShardMsg {
    0 => Insert { key, val },
    1 => Replicate { key, val, home },
    2 => Ack { key },
    3 => Read { key },
});

impl WireSized for ShardMsg {
    fn wire_size(&self) -> usize {
        match self {
            ShardMsg::Insert { .. } => 24,
            ShardMsg::Replicate { .. } => 28,
            ShardMsg::Ack { .. } => 12,
            ShardMsg::Read { .. } => 12,
        }
    }
}

/// Operation completions surfaced to the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOut {
    /// An insert finished replicating.
    Inserted {
        /// The key.
        key: u64,
    },
    /// A read completed.
    Read {
        /// The key.
        key: u64,
        /// Whether the key was present at its home.
        found: bool,
    },
}

/// The shard actor. Create with [`ShardActor::factory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardActor {
    id: NodeId,
    lambda: u32,
    store: BTreeMap<u64, u64>,
    /// Outstanding insert ack counts, keyed by the inserted key.
    pending: BTreeMap<u64, u32>,
    inserts: u64,
    read_hits: u64,
    read_misses: u64,
}

paso_wire::wire_struct!(ShardActor {
    id,
    lambda,
    store,
    pending,
    inserts,
    read_hits,
    read_misses
});

impl ShardActor {
    /// A factory closure for [`Engine::new`](paso_simnet::Engine::new)
    /// with replication degree `lambda` (each key is copied to its home's
    /// `lambda` successors).
    pub fn factory(lambda: u32) -> impl Fn(NodeId) -> ShardActor {
        move |id| ShardActor {
            id,
            lambda,
            store: BTreeMap::new(),
            pending: BTreeMap::new(),
            inserts: 0,
            read_hits: 0,
            read_misses: 0,
        }
    }

    /// The home node of `key` in an ensemble of `n` machines.
    pub fn home(key: u64, n: usize) -> NodeId {
        NodeId((key % n as u64) as u32)
    }

    /// Number of keys stored on this node (own plus replicas).
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// Completed inserts coordinated by this node.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Read hits answered by this node.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }

    /// Read misses answered by this node.
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }
}

impl Actor for ShardActor {
    type Msg = ShardMsg;
    type Output = ShardOut;

    fn handle(&mut self, ctx: &mut Context<'_, ShardMsg, ShardOut>, ev: NodeEvent<ShardMsg>) {
        let NodeEvent::Message { from, msg } = ev else {
            return; // no timers, no membership dependence
        };
        ctx.charge_work(1);
        match msg {
            ShardMsg::Insert { key, val } => {
                self.store.insert(key, val);
                if self.lambda == 0 {
                    self.inserts += 1;
                    ctx.emit(ShardOut::Inserted { key });
                    return;
                }
                self.pending.insert(key, self.lambda);
                let n = ctx.n() as u32;
                let me = self.id.0;
                let to: Vec<NodeId> = (1..=self.lambda).map(|i| NodeId((me + i) % n)).collect();
                ctx.send_many(
                    to,
                    ShardMsg::Replicate {
                        key,
                        val,
                        home: self.id,
                    },
                );
            }
            ShardMsg::Replicate { key, val, home } => {
                self.store.insert(key, val);
                ctx.send(home, ShardMsg::Ack { key });
            }
            ShardMsg::Ack { key } => {
                let _ = from;
                if let Some(left) = self.pending.get_mut(&key) {
                    *left -= 1;
                    if *left == 0 {
                        self.pending.remove(&key);
                        self.inserts += 1;
                        ctx.emit(ShardOut::Inserted { key });
                    }
                }
            }
            ShardMsg::Read { key } => {
                let found = self.store.contains_key(&key);
                if found {
                    self.read_hits += 1;
                } else {
                    self.read_misses += 1;
                }
                ctx.emit(ShardOut::Read { key, found });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_simnet::{Engine, EngineConfig, SimTime};
    use paso_wire::{decode_exact, encode_to_vec};

    fn engine(n: usize, lambda: u32) -> Engine<ShardActor> {
        Engine::new(EngineConfig::for_tests(n), ShardActor::factory(lambda))
    }

    #[test]
    fn insert_replicates_to_lambda_successors_then_completes() {
        let mut e = engine(5, 2);
        let key = 7; // home = 2
        e.inject(
            SimTime::ZERO,
            ShardActor::home(key, 5),
            ShardMsg::Insert { key, val: 9 },
        );
        e.run_to_quiescence(100);
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 1);
        assert!(matches!(outs[0].2, ShardOut::Inserted { key: 7 }));
        // Replicate ×2 + Ack ×2 on the bus.
        assert_eq!(e.stats().msgs_sent, 4);
        assert_eq!(e.actor(NodeId(2)).stored(), 1);
        assert_eq!(e.actor(NodeId(3)).stored(), 1);
        assert_eq!(e.actor(NodeId(4)).stored(), 1);
        assert_eq!(e.actor(NodeId(0)).stored(), 0);
    }

    #[test]
    fn read_hits_after_insert_and_misses_before() {
        let mut e = engine(4, 1);
        let key = 6; // home = 2
        e.inject(
            SimTime::ZERO,
            ShardActor::home(key, 4),
            ShardMsg::Read { key },
        );
        e.inject(
            SimTime::from_millis(1),
            ShardActor::home(key, 4),
            ShardMsg::Insert { key, val: 1 },
        );
        e.inject(
            SimTime::from_millis(2),
            ShardActor::home(key, 4),
            ShardMsg::Read { key },
        );
        e.run_to_quiescence(100);
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 3);
        assert!(matches!(outs[0].2, ShardOut::Read { found: false, .. }));
        assert!(matches!(outs[2].2, ShardOut::Read { found: true, .. }));
        assert_eq!(e.actor(NodeId(2)).read_hits(), 1);
        assert_eq!(e.actor(NodeId(2)).read_misses(), 1);
    }

    #[test]
    fn lambda_zero_completes_without_bus_traffic() {
        let mut e = engine(3, 0);
        e.inject(
            SimTime::ZERO,
            NodeId(1),
            ShardMsg::Insert { key: 1, val: 1 },
        );
        e.run_to_quiescence(10);
        assert_eq!(e.take_outputs().len(), 1);
        assert_eq!(e.stats().msgs_sent, 0);
    }

    #[test]
    fn actor_state_roundtrips_through_wire() {
        let mut e = engine(4, 1);
        for key in 0..20u64 {
            e.inject(
                SimTime::from_micros(key * 10),
                ShardActor::home(key, 4),
                ShardMsg::Insert { key, val: key * 2 },
            );
        }
        e.run_to_quiescence(1_000);
        e.take_outputs();
        for node in 0..4 {
            let actor = e.actor(NodeId(node));
            let bytes = encode_to_vec(actor);
            let back: ShardActor = decode_exact(&bytes).unwrap();
            assert_eq!(&back, actor);
        }
    }

    #[test]
    fn messages_roundtrip_through_wire() {
        let msgs = [
            ShardMsg::Insert { key: 5, val: 6 },
            ShardMsg::Replicate {
                key: 5,
                val: 6,
                home: NodeId(3),
            },
            ShardMsg::Ack { key: 5 },
            ShardMsg::Read { key: 5 },
        ];
        for m in msgs {
            let bytes = encode_to_vec(&m);
            assert_eq!(decode_exact::<ShardMsg>(&bytes).unwrap(), m);
        }
    }
}
