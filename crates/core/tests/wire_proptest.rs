//! Property tests for the binary wire codec: `decode ∘ encode = id` for
//! every message variant on the app path, plus "malformed input is
//! rejected, never a panic" under truncation and trailing garbage.

use proptest::prelude::*;

use paso_core::{
    AppMsg, ClientDone, ClientOp, ClientRequest, ClientResult, OpResponse, ReplBatch, ReplOp,
};
use paso_simnet::NodeId;
use paso_storage::Rank;
use paso_types::{
    ClassId, FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
};
use paso_wire::{Wire, WireError};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,8}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(Value::Bytes),
        "[a-z]{1,6}".prop_map(Value::symbol),
        (any::<i64>(), any::<i64>())
            .prop_map(|(a, b)| Value::Tuple(vec![Value::Int(a), Value::Int(b)])),
    ]
}

fn arb_opt_object() -> impl Strategy<Value = Option<PasoObject>> {
    (any::<bool>(), arb_object()).prop_map(|(some, o)| some.then_some(o))
}

fn arb_object() -> impl Strategy<Value = PasoObject> {
    (
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(p, seq, fields)| {
            PasoObject::new(ObjectId::new(ProcessId(p.into()), seq), fields)
        })
}

fn arb_matcher() -> impl Strategy<Value = FieldMatcher> {
    prop_oneof![
        Just(FieldMatcher::Any),
        arb_value().prop_map(FieldMatcher::Exact),
        "[a-z]{0,5}".prop_map(FieldMatcher::Prefix),
        "[a-z]{0,5}".prop_map(FieldMatcher::Contains),
        (any::<i64>(), any::<i64>()).prop_map(|(lo, hi)| FieldMatcher::between(
            Value::Int(lo.min(hi)),
            Value::Int(lo.max(hi))
        )),
        arb_value().prop_map(|v| FieldMatcher::Not(Box::new(FieldMatcher::Exact(v)))),
    ]
}

fn arb_sc() -> impl Strategy<Value = SearchCriterion> {
    proptest::collection::vec(arb_matcher(), 0..4)
        .prop_map(|ms| SearchCriterion::from(Template::new(ms)))
}

fn arb_client_op() -> impl Strategy<Value = ClientOp> {
    prop_oneof![
        arb_object().prop_map(|object| ClientOp::Insert { object }),
        (arb_sc(), any::<bool>()).prop_map(|(sc, blocking)| ClientOp::Read { sc, blocking }),
        (arb_sc(), any::<bool>()).prop_map(|(sc, blocking)| ClientOp::ReadDel { sc, blocking }),
    ]
}

fn arb_app_msg() -> impl Strategy<Value = AppMsg> {
    prop_oneof![
        (any::<u64>(), arb_client_op())
            .prop_map(|(op_id, op)| AppMsg::Client(ClientRequest { op_id, op })),
        any::<u64>().prop_map(|op_id| AppMsg::MarkerWake { op_id }),
        (any::<u64>(), any::<u32>(), arb_sc()).prop_map(|(op_id, class, sc)| {
            AppMsg::RemoteRead {
                op_id,
                class: ClassId(class),
                sc,
            }
        }),
        (any::<u64>(), any::<bool>(), arb_opt_object(), any::<u64>()).prop_map(
            |(op_id, served, found, failed)| AppMsg::RemoteReadResp {
                op_id,
                served,
                found,
                failed,
            }
        ),
        proptest::collection::vec((any::<u64>(), arb_result()), 0..4).prop_map(|dones| {
            AppMsg::DoneBatch(
                dones
                    .into_iter()
                    .map(|(op_id, result)| ClientDone { op_id, result })
                    .collect(),
            )
        }),
    ]
}

fn arb_repl_op() -> impl Strategy<Value = ReplOp> {
    prop_oneof![
        (any::<u32>(), arb_object(), any::<u64>()).prop_map(|(class, object, rank)| {
            ReplOp::Store {
                class: ClassId(class),
                object,
                rank: Rank(rank),
            }
        }),
        (any::<u32>(), arb_sc()).prop_map(|(class, sc)| ReplOp::MemRead {
            class: ClassId(class),
            sc,
        }),
        (any::<u32>(), arb_sc()).prop_map(|(class, sc)| ReplOp::Remove {
            class: ClassId(class),
            sc,
        }),
        (
            any::<u32>(),
            arb_sc(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(class, sc, origin, op_id, expires_micros)| ReplOp::PlaceMarker {
                    class: ClassId(class),
                    sc,
                    origin: NodeId(origin),
                    op_id,
                    expires_micros,
                }
            ),
    ]
}

fn arb_result() -> impl Strategy<Value = ClientResult> {
    prop_oneof![
        Just(ClientResult::Inserted),
        arb_object().prop_map(ClientResult::Found),
        Just(ClientResult::Fail),
        Just(ClientResult::TimedOut),
        Just(ClientResult::Unavailable),
    ]
}

proptest! {
    #[test]
    fn app_msg_round_trips(msg in arb_app_msg()) {
        let bytes = paso_core::encode(&msg);
        prop_assert_eq!(bytes.len(), msg.encoded_len());
        let back: AppMsg = paso_core::try_decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn repl_op_round_trips(op in arb_repl_op()) {
        let bytes = paso_core::encode(&op);
        prop_assert_eq!(bytes.len(), op.encoded_len());
        let back: ReplOp = paso_core::try_decode(&bytes).unwrap();
        prop_assert_eq!(back, op);
    }

    #[test]
    fn repl_batch_and_its_answer_round_trip(
        ops in proptest::collection::vec(arb_repl_op(), 0..5),
        answers in proptest::collection::vec((arb_opt_object(), any::<u64>()), 0..5),
    ) {
        let batch = ReplBatch(ops);
        let bytes = paso_core::encode(&batch);
        prop_assert_eq!(bytes.len(), batch.encoded_len());
        prop_assert_eq!(bytes[0], ReplBatch::TAG);
        for cut in 0..bytes.len() {
            prop_assert!(paso_core::try_decode::<ReplBatch>(&bytes[..cut]).is_err());
        }
        // The two payload shapes never decode as each other.
        prop_assert!(paso_core::try_decode::<ReplOp>(&bytes).is_err());
        for op in &batch.0 {
            prop_assert!(paso_core::try_decode::<ReplBatch>(&paso_core::encode(op)).is_err());
        }
        let back: ReplBatch = paso_core::try_decode(&bytes).unwrap();
        prop_assert_eq!(back, batch);

        let answers: Vec<OpResponse> = answers
            .into_iter()
            .map(|(object, failed)| OpResponse { object, failed })
            .collect();
        let back: Vec<OpResponse> = paso_core::try_decode(&paso_core::encode(&answers)).unwrap();
        prop_assert_eq!(back, answers);
    }

    #[test]
    fn done_and_response_round_trip(
        op_id in any::<u64>(),
        result in arb_result(),
        found in arb_opt_object(),
        failed in any::<u64>(),
    ) {
        let done = ClientDone { op_id, result };
        let back: ClientDone = paso_core::try_decode(&paso_core::encode(&done)).unwrap();
        prop_assert_eq!(back, done);
        let resp = OpResponse { object: found, failed };
        let back: OpResponse = paso_core::try_decode(&paso_core::encode(&resp)).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn truncation_and_trailing_bytes_reject_without_panic(msg in arb_app_msg()) {
        let bytes = paso_core::encode(&msg);
        for cut in 0..bytes.len() {
            prop_assert!(paso_core::try_decode::<AppMsg>(&bytes[..cut]).is_err());
        }
        let mut padded = bytes;
        padded.push(0);
        prop_assert!(paso_core::try_decode::<AppMsg>(&padded).is_err());
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Any outcome is fine as long as it is a clean Ok/Err.
        let _ = paso_core::try_decode::<AppMsg>(&bytes);
        let _ = paso_core::try_decode::<ReplOp>(&bytes);
        let _ = paso_core::try_decode::<OpResponse>(&bytes);
        let _ = paso_core::try_decode::<ReplBatch>(&bytes);
        let _ = paso_core::try_decode::<Vec<OpResponse>>(&bytes);
    }
}

/// A batch cannot nest: its elements are plain `ReplOp`s, where the batch
/// tag is invalid, so a peer feeding a megabyte of batch-tag/length pairs
/// gets `InvalidTag` from the second byte pair on — the decoder never
/// recurses, whatever the input's depth.
#[test]
fn a_nested_batch_tag_is_an_invalid_tag_at_bounded_depth() {
    let nest: Vec<u8> = [ReplBatch::TAG, 1].repeat(512 << 10);
    assert_eq!(nest.len(), 1 << 20);
    assert_eq!(
        paso_core::try_decode::<ReplBatch>(&nest),
        Err(WireError::InvalidTag {
            ty: "ReplOp",
            tag: ReplBatch::TAG
        })
    );
    assert_eq!(
        paso_core::try_decode::<ReplOp>(&nest),
        Err(WireError::InvalidTag {
            ty: "ReplOp",
            tag: ReplBatch::TAG
        })
    );
}

/// An element count the remaining bytes cannot hold is refused before
/// anything is allocated for it.
#[test]
fn a_batch_count_beyond_the_remaining_bytes_is_a_length_overrun() {
    // Tag, then a count of 2^35 with four bytes behind it.
    let lie = [
        ReplBatch::TAG,
        0x80,
        0x80,
        0x80,
        0x80,
        0x80,
        0x01,
        0,
        0,
        0,
        0,
    ];
    assert!(matches!(
        paso_core::try_decode::<ReplBatch>(&lie),
        Err(WireError::LengthOverrun { available: 4, .. })
    ));
    let lie = [7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0, 0, 0];
    assert!(matches!(
        paso_core::try_decode::<AppMsg>(&lie),
        Err(WireError::LengthOverrun { available: 4, .. })
    ));
}
