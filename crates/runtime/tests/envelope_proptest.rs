//! Property tests for the transport frame codec: every [`Envelope`]
//! variant round-trips, and corrupt frames are rejected without panicking.

use proptest::prelude::*;

use paso_runtime::Envelope;
use paso_simnet::NodeId;
use paso_vsync::{GroupId, NetMsg, ReqId, VsyncMsg};
use paso_wire::Wire;

fn arb_net_msg() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(NetMsg::App),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(g, o, s)| {
            NetMsg::Vsync(VsyncMsg::GcastDone {
                group: GroupId(g),
                req: ReqId {
                    origin: NodeId(o),
                    seq: s,
                },
            })
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(g, ack, o, s, oseq, payload)| {
                NetMsg::Vsync(VsyncMsg::Gcast {
                    group: GroupId(g),
                    req: ReqId {
                        origin: NodeId(o),
                        seq: s,
                    },
                    ack,
                    seq: oseq,
                    payload: payload.into(),
                })
            }),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    prop_oneof![
        (any::<u32>(), arb_net_msg()).prop_map(|(from, msg)| Envelope::Net {
            from: NodeId(from),
            msg,
        }),
        Just(Envelope::Crash),
        Just(Envelope::Recover),
        any::<u32>().prop_map(|n| Envelope::PeerCrashed(NodeId(n))),
        any::<u32>().prop_map(|n| Envelope::PeerRecovered(NodeId(n))),
        Just(Envelope::Shutdown),
    ]
}

proptest! {
    #[test]
    fn envelope_round_trips(env in arb_envelope()) {
        let bytes = paso_wire::encode_to_vec(&env);
        prop_assert_eq!(bytes.len(), env.encoded_len());
        let back: Envelope = paso_wire::decode_exact(&bytes).unwrap();
        // Envelope has no PartialEq; a stable codec makes re-encoding a
        // faithful identity check.
        prop_assert_eq!(paso_wire::encode_to_vec(&back), bytes);
    }

    #[test]
    fn truncated_frames_reject_without_panic(env in arb_envelope()) {
        let bytes = paso_wire::encode_to_vec(&env);
        for cut in 0..bytes.len() {
            prop_assert!(paso_wire::decode_exact::<Envelope>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        let _ = paso_wire::decode_exact::<Envelope>(&bytes);
    }
}
