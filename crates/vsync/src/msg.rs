//! Wire messages of the virtual synchrony protocol.

use paso_simnet::{NodeId, WireSized};
use paso_wire::{Frame, Wire};

use crate::group::{GroupId, View, ViewId};

/// A gcast request id, unique per origin node: `(origin, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId {
    /// The issuing node.
    pub origin: NodeId,
    /// Per-origin sequence number.
    pub seq: u64,
}

paso_wire::wire_struct!(ReqId { origin, seq });

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.origin, self.seq)
    }
}

/// One leader-sequenced delivery, as shipped in a delta state transfer:
/// the receiver replays these through its app layer to catch up from its
/// durable watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Leader-stamped total-order sequence within the group's epoch.
    pub seq: u64,
    /// Identity of the delivered request (dedup on replay).
    pub req: ReqId,
    /// The application payload.
    pub payload: Frame,
}

paso_wire::wire_struct!(LogEntry { seq, req, payload });

/// Protocol messages. `App` payloads are opaque byte strings owned by the
/// layered application (the PASO memory server).
#[derive(Debug, Clone, PartialEq)]
pub enum VsyncMsg {
    /// Fan-out copy of a gcast to one group member.
    Gcast {
        /// Target group.
        group: GroupId,
        /// Request identity (for dedup and retries).
        req: ReqId,
        /// The origin's acknowledged floor, as a distance below `req.seq`:
        /// every request of this origin with a sequence under
        /// `req.seq - ack` has completed there and will never be retried,
        /// so members may forget it. Stamped by the origin on every
        /// attempt; relays and the leader's fan-out copy it unchanged.
        ack: u64,
        /// Leader-stamped total-order sequence. `0` on the unsequenced
        /// origin→leader hop; the leader stamps a positive value before
        /// fanning out, and members log `(seq, req, payload)` for delta
        /// state transfer and the durable WAL.
        seq: u64,
        /// Application payload, encoded once by the origin and shared
        /// (refcounted) across every per-member copy of the fan-out.
        payload: Frame,
    },
    /// "Each of g-name's members sends an empty message to ... g-name's
    /// 'leader' indicating that it has finished processing" (§3.3).
    GcastDone {
        /// Target group.
        group: GroupId,
        /// The request being acknowledged.
        req: ReqId,
    },
    /// The single response the leader sends back to the origin once all
    /// members are done.
    GcastResp {
        /// Target group.
        group: GroupId,
        /// The request being answered.
        req: ReqId,
        /// The leader's application response.
        payload: Vec<u8>,
    },
    /// A non-member rejects a gcast addressed to it; the origin merges the
    /// rejecter's (possibly stale) view knowledge and retries elsewhere.
    GcastNack {
        /// Target group.
        group: GroupId,
        /// The rejected request.
        req: ReqId,
        /// The rejecting node's cached view of the group.
        view: View,
    },
    /// Ask the group manager (leader) to admit `joiner`.
    ///
    /// The joiner advertises its last durable watermark so the donor can
    /// ship a delta instead of the full state. `(epoch, seq) = (0, 0)`
    /// means "no durable history — send everything".
    JoinReq {
        /// Target group.
        group: GroupId,
        /// The node wishing to join.
        joiner: NodeId,
        /// History-lineage id of the joiner's durable state (0 = none).
        epoch: u64,
        /// Highest delivery sequence the joiner holds durably.
        seq: u64,
        /// The request the joiner applied at `seq` — a divergence guard:
        /// if the donor's log disagrees about what `seq` was, the
        /// histories forked (e.g. leader-failover seq reuse) and the
        /// donor falls back to a full transfer.
        req: ReqId,
    },
    /// Ask the group manager to remove `leaver`.
    LeaveReq {
        /// Target group.
        group: GroupId,
        /// The node wishing to leave.
        leaver: NodeId,
    },
    /// Manager-broadcast view installation.
    NewView {
        /// Target group.
        group: GroupId,
        /// The view to install.
        view: View,
        /// If this view admits a joiner, the member designated to send it
        /// the state snapshot (the "donor", §4.2).
        donor: Option<NodeId>,
        /// The joiner awaiting state, if any.
        joiner: Option<NodeId>,
    },
    /// A joiner that knows no live member asks every node what it knows
    /// about the group before concluding it is dead.
    ProbeReq {
        /// Target group.
        group: GroupId,
        /// The probing joiner.
        joiner: NodeId,
    },
    /// Answer to a [`VsyncMsg::ProbeReq`].
    ProbeResp {
        /// Target group.
        group: GroupId,
        /// Is the responder itself an installed member? (Authoritative —
        /// hearsay about *other* members is never trusted.)
        member: bool,
        /// Formation grant: the responder promises not to grant another
        /// joiner for a short window, so at most one prober can collect a
        /// unanimous set of grants and re-form a dead group (no split
        /// brain between concurrent probers).
        grant: bool,
        /// On a denial: the joiner currently holding this responder's
        /// grant. Lets competing probers order themselves (the one that
        /// sees a smaller-id holder backs off past the grant window)
        /// instead of refreshing split claims forever.
        holder: Option<NodeId>,
    },
    /// State snapshot sent by the donor to a joiner.
    StateXfer {
        /// Target group.
        group: GroupId,
        /// View in which the snapshot was taken.
        view: ViewId,
        /// Serialized application state for the group's classes.
        state: Vec<u8>,
    },
    /// Incremental state transfer: only the deliveries since the joiner's
    /// advertised durable watermark. Sent instead of [`VsyncMsg::StateXfer`]
    /// when the donor's delivery log still covers the gap.
    StateXferDelta {
        /// Target group.
        group: GroupId,
        /// View in which the delta was taken.
        view: ViewId,
        /// History-lineage id both sides agreed on.
        epoch: u64,
        /// The watermark the delta starts after (exclusive).
        from_seq: u64,
        /// Deliveries in `(from_seq, donor.applied_seq]`, ascending.
        entries: Vec<LogEntry>,
    },
}

paso_wire::wire_enum!(VsyncMsg {
    0 => Gcast { group, req, ack, seq, payload },
    1 => GcastDone { group, req },
    2 => GcastResp { group, req, payload },
    3 => GcastNack { group, req, view },
    4 => JoinReq { group, joiner, epoch, seq, req },
    5 => LeaveReq { group, leaver },
    6 => NewView { group, view, donor, joiner },
    7 => ProbeReq { group, joiner },
    8 => ProbeResp { group, member, grant, holder },
    9 => StateXfer { group, view, state },
    10 => StateXferDelta { group, view, epoch, from_seq, entries },
});

impl VsyncMsg {
    /// The group this message concerns.
    pub fn group(&self) -> GroupId {
        match self {
            VsyncMsg::Gcast { group, .. }
            | VsyncMsg::GcastDone { group, .. }
            | VsyncMsg::GcastResp { group, .. }
            | VsyncMsg::GcastNack { group, .. }
            | VsyncMsg::JoinReq { group, .. }
            | VsyncMsg::LeaveReq { group, .. }
            | VsyncMsg::NewView { group, .. }
            | VsyncMsg::ProbeReq { group, .. }
            | VsyncMsg::ProbeResp { group, .. }
            | VsyncMsg::StateXfer { group, .. }
            | VsyncMsg::StateXferDelta { group, .. } => *group,
        }
    }
}

impl WireSized for VsyncMsg {
    /// The exact encoded size — what the `α + β·|m|` model charges is
    /// what actually crosses the link. Dones stay the paper's "empty
    /// messages": a tag plus three small varints.
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

/// Top-level network message: vsync protocol traffic or opaque
/// application-to-application bytes (e.g. client requests injected at a
/// node, or marker notifications between servers).
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// Virtual-synchrony protocol message.
    Vsync(VsyncMsg),
    /// Application message, delivered to the [`GroupApp`](crate::GroupApp)
    /// directly.
    App(Vec<u8>),
}

paso_wire::wire_enum!(NetMsg {
    0 => Vsync(msg),
    1 => App(bytes),
});

impl WireSized for NetMsg {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ViewId;

    #[test]
    fn req_id_orders_by_origin_then_seq() {
        let a = ReqId {
            origin: NodeId(0),
            seq: 9,
        };
        let b = ReqId {
            origin: NodeId(1),
            seq: 0,
        };
        assert!(a < b);
        assert_eq!(a.to_string(), "m0:9");
    }

    #[test]
    fn wire_sizes() {
        let req = ReqId {
            origin: NodeId(0),
            seq: 0,
        };
        let gcast = VsyncMsg::Gcast {
            group: GroupId(1),
            req,
            ack: 0,
            seq: 0,
            payload: vec![0; 100].into(),
        };
        // tag + group + (origin, seq) + ack + order-seq + payload.
        assert_eq!(gcast.wire_size(), 1 + 1 + 2 + 1 + 1 + (1 + 100));
        let done = VsyncMsg::GcastDone {
            group: GroupId(1),
            req,
        };
        assert_eq!(done.wire_size(), 4, "dones are (nearly) empty messages");
        assert_eq!(NetMsg::App(vec![0; 10]).wire_size(), 1 + 1 + 10);
        assert_eq!(NetMsg::Vsync(done).wire_size(), 5);
    }

    #[test]
    fn wire_size_is_the_encoded_length() {
        let m = NetMsg::Vsync(VsyncMsg::NewView {
            group: GroupId(3),
            view: View::new(ViewId(2), [NodeId(0), NodeId(500)]),
            donor: Some(NodeId(0)),
            joiner: None,
        });
        assert_eq!(m.wire_size(), paso_wire::encode_to_vec(&m).len());
    }

    #[test]
    fn group_accessor_covers_all_variants() {
        let req = ReqId {
            origin: NodeId(0),
            seq: 0,
        };
        let g = GroupId(7);
        let msgs = vec![
            VsyncMsg::Gcast {
                group: g,
                req,
                ack: 0,
                seq: 0,
                payload: Frame::empty(),
            },
            VsyncMsg::GcastDone { group: g, req },
            VsyncMsg::GcastResp {
                group: g,
                req,
                payload: vec![],
            },
            VsyncMsg::GcastNack {
                group: g,
                req,
                view: View::new(ViewId(1), [NodeId(0)]),
            },
            VsyncMsg::ProbeReq {
                group: g,
                joiner: NodeId(1),
            },
            VsyncMsg::ProbeResp {
                group: g,
                member: false,
                grant: true,
                holder: None,
            },
            VsyncMsg::JoinReq {
                group: g,
                joiner: NodeId(0),
                epoch: 0,
                seq: 0,
                req: ReqId::default(),
            },
            VsyncMsg::LeaveReq {
                group: g,
                leaver: NodeId(0),
            },
            VsyncMsg::NewView {
                group: g,
                view: View::new(ViewId(1), [NodeId(0)]),
                donor: None,
                joiner: None,
            },
            VsyncMsg::StateXfer {
                group: g,
                view: ViewId(1),
                state: vec![],
            },
            VsyncMsg::StateXferDelta {
                group: g,
                view: ViewId(1),
                epoch: 1,
                from_seq: 0,
                entries: vec![],
            },
        ];
        for m in msgs {
            assert_eq!(m.group(), g);
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let req = ReqId {
            origin: NodeId(2),
            seq: 300,
        };
        let g = GroupId(7);
        let view = View::new(ViewId(4), [NodeId(0), NodeId(9)]);
        let msgs = vec![
            NetMsg::Vsync(VsyncMsg::Gcast {
                group: g,
                req,
                ack: 200,
                seq: 17,
                payload: vec![1, 2, 3].into(),
            }),
            NetMsg::Vsync(VsyncMsg::GcastDone { group: g, req }),
            NetMsg::Vsync(VsyncMsg::GcastResp {
                group: g,
                req,
                payload: vec![],
            }),
            NetMsg::Vsync(VsyncMsg::GcastNack {
                group: g,
                req,
                view: view.clone(),
            }),
            NetMsg::Vsync(VsyncMsg::JoinReq {
                group: g,
                joiner: NodeId(1),
                epoch: 3,
                seq: 288,
                req: ReqId {
                    origin: NodeId(4),
                    seq: 12,
                },
            }),
            NetMsg::Vsync(VsyncMsg::LeaveReq {
                group: g,
                leaver: NodeId(1),
            }),
            NetMsg::Vsync(VsyncMsg::NewView {
                group: g,
                view,
                donor: Some(NodeId(0)),
                joiner: None,
            }),
            NetMsg::Vsync(VsyncMsg::ProbeReq {
                group: g,
                joiner: NodeId(3),
            }),
            NetMsg::Vsync(VsyncMsg::ProbeResp {
                group: g,
                member: true,
                grant: false,
                holder: Some(NodeId(1)),
            }),
            NetMsg::Vsync(VsyncMsg::StateXfer {
                group: g,
                view: ViewId(2),
                state: vec![1, 2, 3],
            }),
            NetMsg::Vsync(VsyncMsg::StateXferDelta {
                group: g,
                view: ViewId(2),
                epoch: 9,
                from_seq: 41,
                entries: vec![
                    LogEntry {
                        seq: 42,
                        req,
                        payload: vec![5, 6].into(),
                    },
                    LogEntry {
                        seq: 43,
                        req: ReqId {
                            origin: NodeId(1),
                            seq: 7,
                        },
                        payload: Frame::empty(),
                    },
                ],
            }),
            NetMsg::App(vec![9; 40]),
        ];
        for m in msgs {
            let bytes = paso_wire::encode_to_vec(&m);
            assert_eq!(bytes.len(), m.wire_size(), "{m:?}");
            assert_eq!(paso_wire::decode_exact::<NetMsg>(&bytes).unwrap(), m);
            // Every strict prefix must be rejected, never panic.
            for cut in 0..bytes.len() {
                assert!(paso_wire::decode_exact::<NetMsg>(&bytes[..cut]).is_err());
            }
        }
    }
}
