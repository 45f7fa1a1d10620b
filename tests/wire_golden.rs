//! Golden bytes for the wire format.
//!
//! The round-trip proptests prove `decode(encode(x)) == x`, which a
//! *consistent* change — renumbering two tags, swapping two fields in both
//! directions — sails through. This file pins the exact bytes of one fixed
//! value per variant of every message the system puts on a link or in the
//! WAL, and checks `encoded_len()` (what simnet charges as `|m|` in
//! `α + β·|m|`) against those bytes. A diff here is a wire-format change:
//! append a tag, never renumber.

use std::ops::Bound;

use paso::campaign::{TupleActor, TupleMsg};
use paso::core::{
    AppMsg, ClientDone, ClientOp, ClientRequest, ClientResult, OpResponse, ProxyClientFrame,
    ProxyServerFrame, ReplBatch, ReplOp,
};
use paso::runtime::Envelope;
use paso::simnet::{Engine, EngineConfig, NodeId, SimTime};
use paso::storage::Rank;
use paso::types::{
    ClassId, FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
    ValueType,
};
use paso::vsync::{GroupId, LogEntry, NetMsg, ReqId, View, ViewId, VsyncMsg};
use paso::workload::{ShardActor, ShardMsg};
use paso_durable::WalRecord;
use paso_wire::{decode_exact, encode_to_vec, Wire};

/// Collects `(name, hex)` rows and checks the three properties that do
/// not need the table: `encoded_len` equals the byte count, the bytes
/// decode, and the decoded value re-encodes to the same bytes.
#[derive(Default)]
struct Rows(Vec<(&'static str, String)>);

impl Rows {
    fn pin<T: Wire>(&mut self, name: &'static str, value: &T) {
        let bytes = encode_to_vec(value);
        assert_eq!(value.encoded_len(), bytes.len(), "{name}: encoded_len");
        let back: T = decode_exact(&bytes).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        assert_eq!(encode_to_vec(&back), bytes, "{name}: re-encode");
        let hex = bytes.iter().map(|b| format!("{b:02x}")).collect();
        self.0.push((name, hex));
    }

    /// Compares against the pinned table; on any difference prints the
    /// whole actual table so the change is visible in one place.
    fn check(self, golden: &[(&str, &str)]) {
        let same = self.0.len() == golden.len()
            && self
                .0
                .iter()
                .zip(golden)
                .all(|((n, h), (gn, gh))| n == gn && h == gh);
        if !same {
            let mut actual = String::new();
            for (n, h) in &self.0 {
                actual.push_str(&format!("    (\"{n}\", \"{h}\"),\n"));
            }
            panic!("wire bytes differ from the golden table; actual:\n{actual}");
        }
    }
}

fn obj() -> PasoObject {
    PasoObject::new(
        ObjectId::new(ProcessId(7), 300),
        vec![Value::symbol("job"), Value::Int(-3)],
    )
}

fn sc() -> SearchCriterion {
    SearchCriterion::new(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("job")),
        FieldMatcher::Any,
    ]))
}

fn req() -> ReqId {
    ReqId {
        origin: NodeId(2),
        seq: 300,
    }
}

fn view() -> View {
    View::new(ViewId(4), [NodeId(9), NodeId(0), NodeId(200)])
}

const DATA_MODEL: &[(&str, &str)] = &[
    ("ValueType::Int", "00"),
    ("ValueType::Float", "01"),
    ("ValueType::Bool", "02"),
    ("ValueType::Str", "03"),
    ("ValueType::Bytes", "04"),
    ("ValueType::Symbol", "05"),
    ("ValueType::Tuple", "06"),
    ("Value::Int", "00d704"),
    ("Value::Float", "01000000000000f83f"),
    ("Value::Bool", "0201"),
    ("Value::Str", "030668c3a96c6c6f"),
    ("Value::Bytes", "040300ff07"),
    ("Value::Symbol", "05036a6f62"),
    ("Value::Tuple", "0603000206000200"),
    ("FieldMatcher::Any", "00"),
    ("FieldMatcher::AnyOf", "0105"),
    ("FieldMatcher::Exact", "02000a"),
    ("FieldMatcher::Range(incl,excl)", "03010002020012"),
    ("FieldMatcher::Range(unbounded)", "03000101000000000000d03f"),
    ("FieldMatcher::Prefix", "0403707265"),
    ("FieldMatcher::Contains", "05036d6964"),
    ("FieldMatcher::Not", "06020200"),
    ("FieldMatcher::TupleOf", "070200020004"),
    ("ProcessId", "ac02"),
    ("ObjectId", "07ac02"),
    ("ClassId", "13"),
    ("PasoObject", "07ac020205036a6f620005"),
    ("PasoObject(empty)", "000000"),
    ("Template", "03000000"),
    ("SearchCriterion", "020205036a6f6200"),
    ("Rank", "828014"),
    ("NodeId", "c801"),
];

#[test]
fn data_model_bytes_are_pinned() {
    let mut rows = Rows::default();
    rows.pin("ValueType::Int", &ValueType::Int);
    rows.pin("ValueType::Float", &ValueType::Float);
    rows.pin("ValueType::Bool", &ValueType::Bool);
    rows.pin("ValueType::Str", &ValueType::Str);
    rows.pin("ValueType::Bytes", &ValueType::Bytes);
    rows.pin("ValueType::Symbol", &ValueType::Symbol);
    rows.pin("ValueType::Tuple", &ValueType::Tuple);
    rows.pin("Value::Int", &Value::Int(-300));
    rows.pin("Value::Float", &Value::Float(1.5));
    rows.pin("Value::Bool", &Value::Bool(true));
    rows.pin("Value::Str", &Value::from("héllo"));
    rows.pin("Value::Bytes", &Value::Bytes(vec![0, 255, 7]));
    rows.pin("Value::Symbol", &Value::symbol("job"));
    rows.pin(
        "Value::Tuple",
        &Value::Tuple(vec![
            Value::Int(1),
            Value::Tuple(vec![]),
            Value::Bool(false),
        ]),
    );
    rows.pin("FieldMatcher::Any", &FieldMatcher::Any);
    rows.pin(
        "FieldMatcher::AnyOf",
        &FieldMatcher::AnyOf(ValueType::Symbol),
    );
    rows.pin("FieldMatcher::Exact", &FieldMatcher::Exact(Value::Int(5)));
    rows.pin(
        "FieldMatcher::Range(incl,excl)",
        &FieldMatcher::Range {
            lo: Bound::Included(Value::Int(1)),
            hi: Bound::Excluded(Value::Int(9)),
        },
    );
    rows.pin(
        "FieldMatcher::Range(unbounded)",
        &FieldMatcher::Range {
            lo: Bound::Unbounded,
            hi: Bound::Included(Value::Float(0.25)),
        },
    );
    rows.pin("FieldMatcher::Prefix", &FieldMatcher::Prefix("pre".into()));
    rows.pin(
        "FieldMatcher::Contains",
        &FieldMatcher::Contains("mid".into()),
    );
    rows.pin(
        "FieldMatcher::Not",
        &FieldMatcher::Not(Box::new(FieldMatcher::Exact(Value::Bool(false)))),
    );
    rows.pin(
        "FieldMatcher::TupleOf",
        &FieldMatcher::TupleOf(vec![FieldMatcher::Any, FieldMatcher::Exact(Value::Int(2))]),
    );
    rows.pin("ProcessId", &ProcessId(300));
    rows.pin("ObjectId", &ObjectId::new(ProcessId(7), 300));
    rows.pin("ClassId", &ClassId(19));
    rows.pin("PasoObject", &obj());
    rows.pin(
        "PasoObject(empty)",
        &PasoObject::new(ObjectId::new(ProcessId(0), 0), vec![]),
    );
    rows.pin("Template", &Template::wildcard(3));
    rows.pin("SearchCriterion", &sc());
    rows.pin("Rank", &Rank::new(5, 2));
    rows.pin("NodeId", &NodeId(200));
    rows.check(DATA_MODEL);
}

const CLIENT_AND_REPLICATION: &[(&str, &str)] = &[
    ("ClientOp::Insert", "0007ac020205036a6f620005"),
    ("ClientOp::Read", "01020205036a6f620001"),
    ("ClientOp::ReadDel", "02020205036a6f620000"),
    ("ClientRequest", "838080808080c0030007ac020205036a6f620005"),
    ("ClientResult::Inserted", "00"),
    ("ClientResult::Found", "0107ac020205036a6f620005"),
    ("ClientResult::Fail", "02"),
    ("ClientResult::TimedOut", "03"),
    ("ClientResult::Unavailable", "04"),
    ("ClientDone", "580107ac020205036a6f620005"),
    ("ReplOp::Store", "000107ac020205036a6f620005828014"),
    ("ReplOp::MemRead", "0101020205036a6f6200"),
    ("ReplOp::Remove", "02ac02020205036a6f6200"),
    ("ReplOp::PlaceMarker", "0301020205036a6f62000309c0843d"),
    ("OpResponse(some)", "0107ac020205036a6f62000502"),
    ("OpResponse(none)", "0000"),
    (
        "ReplBatch",
        "8002000107ac020205036a6f6200058280140201020205036a6f6200",
    ),
    ("Vec<OpResponse>", "0200000107ac020205036a6f62000502"),
    ("AppMsg::Client", "000401020205036a6f620000"),
    ("AppMsg::MarkerWake", "01ac02"),
    ("AppMsg::RemoteRead", "020301020205036a6f6200"),
    ("AppMsg::RemoteReadResp", "0303010107ac020205036a6f62000501"),
    ("AppMsg::Done", "050503"),
    (
        "AppMsg::ClientBatch",
        "0602010007ac020205036a6f6200050202020205036a6f620001",
    ),
    ("AppMsg::ClientBatch(empty)", "0600"),
    ("AppMsg::DoneBatch", "07020503580107ac020205036a6f620005"),
    ("ProxyClientFrame::Hello", "002a8de0b7ddf0ddefd6de01"),
    ("ProxyClientFrame::Op", "01ac020007ac020205036a6f620005"),
    ("ProxyServerFrame::Welcome", "00"),
    ("ProxyServerFrame::Denied", "01"),
    ("ProxyServerFrame::Busy", "024d"),
    ("ProxyServerFrame::Done", "034e0107ac020205036a6f620005"),
];

#[test]
fn client_and_replication_bytes_are_pinned() {
    let mut rows = Rows::default();
    rows.pin("ClientOp::Insert", &ClientOp::Insert { object: obj() });
    rows.pin(
        "ClientOp::Read",
        &ClientOp::Read {
            sc: sc(),
            blocking: true,
        },
    );
    rows.pin(
        "ClientOp::ReadDel",
        &ClientOp::ReadDel {
            sc: sc(),
            blocking: false,
        },
    );
    rows.pin(
        "ClientRequest",
        &ClientRequest {
            op_id: (7 << 48) | 3,
            op: ClientOp::Insert { object: obj() },
        },
    );
    rows.pin("ClientResult::Inserted", &ClientResult::Inserted);
    rows.pin("ClientResult::Found", &ClientResult::Found(obj()));
    rows.pin("ClientResult::Fail", &ClientResult::Fail);
    rows.pin("ClientResult::TimedOut", &ClientResult::TimedOut);
    rows.pin("ClientResult::Unavailable", &ClientResult::Unavailable);
    rows.pin(
        "ClientDone",
        &ClientDone {
            op_id: 88,
            result: ClientResult::Found(obj()),
        },
    );
    rows.pin(
        "ReplOp::Store",
        &ReplOp::Store {
            class: ClassId(1),
            object: obj(),
            rank: Rank::new(5, 2),
        },
    );
    rows.pin(
        "ReplOp::MemRead",
        &ReplOp::MemRead {
            class: ClassId(1),
            sc: sc(),
        },
    );
    rows.pin(
        "ReplOp::Remove",
        &ReplOp::Remove {
            class: ClassId(300),
            sc: sc(),
        },
    );
    rows.pin(
        "ReplOp::PlaceMarker",
        &ReplOp::PlaceMarker {
            class: ClassId(1),
            sc: sc(),
            origin: NodeId(3),
            op_id: 9,
            expires_micros: 1_000_000,
        },
    );
    rows.pin(
        "OpResponse(some)",
        &OpResponse {
            object: Some(obj()),
            failed: 2,
        },
    );
    rows.pin(
        "OpResponse(none)",
        &OpResponse {
            object: None,
            failed: 0,
        },
    );
    rows.pin(
        "ReplBatch",
        &ReplBatch(vec![
            ReplOp::Store {
                class: ClassId(1),
                object: obj(),
                rank: Rank::new(5, 2),
            },
            ReplOp::Remove {
                class: ClassId(1),
                sc: sc(),
            },
        ]),
    );
    rows.pin(
        "Vec<OpResponse>",
        &vec![
            OpResponse {
                object: None,
                failed: 0,
            },
            OpResponse {
                object: Some(obj()),
                failed: 2,
            },
        ],
    );
    rows.pin(
        "AppMsg::Client",
        &AppMsg::Client(ClientRequest {
            op_id: 4,
            op: ClientOp::Read {
                sc: sc(),
                blocking: false,
            },
        }),
    );
    rows.pin("AppMsg::MarkerWake", &AppMsg::MarkerWake { op_id: 300 });
    rows.pin(
        "AppMsg::RemoteRead",
        &AppMsg::RemoteRead {
            op_id: 3,
            class: ClassId(1),
            sc: sc(),
        },
    );
    rows.pin(
        "AppMsg::RemoteReadResp",
        &AppMsg::RemoteReadResp {
            op_id: 3,
            served: true,
            found: Some(obj()),
            failed: 1,
        },
    );
    rows.pin(
        "AppMsg::Done",
        &AppMsg::Done(ClientDone {
            op_id: 5,
            result: ClientResult::TimedOut,
        }),
    );
    rows.pin(
        "AppMsg::ClientBatch",
        &AppMsg::ClientBatch(vec![
            ClientRequest {
                op_id: 1,
                op: ClientOp::Insert { object: obj() },
            },
            ClientRequest {
                op_id: 2,
                op: ClientOp::ReadDel {
                    sc: sc(),
                    blocking: true,
                },
            },
        ]),
    );
    rows.pin("AppMsg::ClientBatch(empty)", &AppMsg::ClientBatch(vec![]));
    rows.pin(
        "AppMsg::DoneBatch",
        &AppMsg::DoneBatch(vec![
            ClientDone {
                op_id: 5,
                result: ClientResult::TimedOut,
            },
            ClientDone {
                op_id: 88,
                result: ClientResult::Found(obj()),
            },
        ]),
    );
    rows.pin(
        "ProxyClientFrame::Hello",
        &ProxyClientFrame::Hello {
            tenant: 42,
            token: 0xDEAD_BEEF_0BAD_F00D,
        },
    );
    rows.pin(
        "ProxyClientFrame::Op",
        &ProxyClientFrame::Op {
            seq: 300,
            op: ClientOp::Insert { object: obj() },
        },
    );
    rows.pin("ProxyServerFrame::Welcome", &ProxyServerFrame::Welcome);
    rows.pin("ProxyServerFrame::Denied", &ProxyServerFrame::Denied);
    rows.pin(
        "ProxyServerFrame::Busy",
        &ProxyServerFrame::Busy { seq: 77 },
    );
    rows.pin(
        "ProxyServerFrame::Done",
        &ProxyServerFrame::Done {
            seq: 78,
            result: ClientResult::Found(obj()),
        },
    );
    rows.check(CLIENT_AND_REPLICATION);
    // Tag 4 is retired: an older peer's class-summary gossip frame (here
    // its empty round, tag 4 and a zero-length list) is a decode error,
    // never a panic or a message of another kind.
    let retired = [0x04, 0x00];
    assert_eq!(
        decode_exact::<AppMsg>(&retired),
        Err(paso_wire::WireError::InvalidTag {
            ty: "AppMsg",
            tag: 4
        })
    );
}

const VSYNC_AND_TRANSPORT: &[(&str, &str)] = &[
    ("GroupId", "ac02"),
    ("ViewId", "04"),
    ("View", "04030009c801"),
    ("View(empty)", "0000"),
    ("ReqId", "02ac02"),
    ("LogEntry", "2a02ac02020506"),
    ("VsyncMsg::Gcast", "000702ac02011103010203"),
    ("VsyncMsg::GcastDone", "010702ac02"),
    ("VsyncMsg::GcastResp", "020702ac02020908"),
    ("VsyncMsg::GcastNack", "030702ac0204030009c801"),
    ("VsyncMsg::JoinReq", "04070103a002040c"),
    ("VsyncMsg::LeaveReq", "050701"),
    ("VsyncMsg::NewView", "060704030009c801010000"),
    ("VsyncMsg::ProbeReq", "070703"),
    ("VsyncMsg::ProbeResp", "080701000101"),
    ("VsyncMsg::StateXfer", "09070203010203"),
    (
        "VsyncMsg::StateXferDelta",
        "0a07020929022a02ac020205062b010700",
    ),
    ("NetMsg::Vsync", "00010702ac02"),
    ("NetMsg::App", "01050909090909"),
    ("Envelope::Net", "00c80101020102"),
    ("Envelope::Crash", "01"),
    ("Envelope::Recover", "02"),
    ("Envelope::PeerCrashed", "0303"),
    ("Envelope::PeerRecovered", "04ac02"),
    ("Envelope::Shutdown", "05"),
    ("WalRecord::Delivery", "0007012a03840707736574206b2076"),
    ("WalRecord::Snapshot", "0107012a03ababab"),
    ("WalRecord::Snapshot(tombstone)", "0109000000"),
];

#[test]
fn vsync_transport_and_wal_bytes_are_pinned() {
    let g = GroupId(7);
    let mut rows = Rows::default();
    rows.pin("GroupId", &GroupId(300));
    rows.pin("ViewId", &ViewId(4));
    rows.pin("View", &view());
    rows.pin("View(empty)", &View::empty());
    rows.pin("ReqId", &req());
    rows.pin(
        "LogEntry",
        &LogEntry {
            seq: 42,
            req: req(),
            payload: vec![5, 6].into(),
        },
    );
    rows.pin(
        "VsyncMsg::Gcast",
        &VsyncMsg::Gcast {
            group: g,
            req: req(),
            ack: 1,
            seq: 17,
            payload: vec![1, 2, 3].into(),
        },
    );
    rows.pin(
        "VsyncMsg::GcastDone",
        &VsyncMsg::GcastDone {
            group: g,
            req: req(),
        },
    );
    rows.pin(
        "VsyncMsg::GcastResp",
        &VsyncMsg::GcastResp {
            group: g,
            req: req(),
            payload: vec![9, 8],
        },
    );
    rows.pin(
        "VsyncMsg::GcastNack",
        &VsyncMsg::GcastNack {
            group: g,
            req: req(),
            view: view(),
        },
    );
    rows.pin(
        "VsyncMsg::JoinReq",
        &VsyncMsg::JoinReq {
            group: g,
            joiner: NodeId(1),
            epoch: 3,
            seq: 288,
            req: ReqId {
                origin: NodeId(4),
                seq: 12,
            },
        },
    );
    rows.pin(
        "VsyncMsg::LeaveReq",
        &VsyncMsg::LeaveReq {
            group: g,
            leaver: NodeId(1),
        },
    );
    rows.pin(
        "VsyncMsg::NewView",
        &VsyncMsg::NewView {
            group: g,
            view: view(),
            donor: Some(NodeId(0)),
            joiner: None,
        },
    );
    rows.pin(
        "VsyncMsg::ProbeReq",
        &VsyncMsg::ProbeReq {
            group: g,
            joiner: NodeId(3),
        },
    );
    rows.pin(
        "VsyncMsg::ProbeResp",
        &VsyncMsg::ProbeResp {
            group: g,
            member: true,
            grant: false,
            holder: Some(NodeId(1)),
        },
    );
    rows.pin(
        "VsyncMsg::StateXfer",
        &VsyncMsg::StateXfer {
            group: g,
            view: ViewId(2),
            state: vec![1, 2, 3],
        },
    );
    rows.pin(
        "VsyncMsg::StateXferDelta",
        &VsyncMsg::StateXferDelta {
            group: g,
            view: ViewId(2),
            epoch: 9,
            from_seq: 41,
            entries: vec![
                LogEntry {
                    seq: 42,
                    req: req(),
                    payload: vec![5, 6].into(),
                },
                LogEntry {
                    seq: 43,
                    req: ReqId {
                        origin: NodeId(1),
                        seq: 7,
                    },
                    payload: Vec::new().into(),
                },
            ],
        },
    );
    rows.pin(
        "NetMsg::Vsync",
        &NetMsg::Vsync(VsyncMsg::GcastDone {
            group: g,
            req: req(),
        }),
    );
    rows.pin("NetMsg::App", &NetMsg::App(vec![9; 5]));
    rows.pin(
        "Envelope::Net",
        &Envelope::Net {
            from: NodeId(200),
            msg: NetMsg::App(vec![1, 2]),
        },
    );
    rows.pin("Envelope::Crash", &Envelope::Crash);
    rows.pin("Envelope::Recover", &Envelope::Recover);
    rows.pin("Envelope::PeerCrashed", &Envelope::PeerCrashed(NodeId(3)));
    rows.pin(
        "Envelope::PeerRecovered",
        &Envelope::PeerRecovered(NodeId(300)),
    );
    rows.pin("Envelope::Shutdown", &Envelope::Shutdown);
    rows.pin(
        "WalRecord::Delivery",
        &WalRecord::Delivery {
            group: 7,
            epoch: 1,
            seq: 42,
            origin: 3,
            req_seq: 900,
            payload: b"set k v".to_vec(),
        },
    );
    rows.pin(
        "WalRecord::Snapshot",
        &WalRecord::Snapshot {
            group: 7,
            epoch: 1,
            seq: 42,
            state: vec![0xAB; 3],
        },
    );
    rows.pin(
        "WalRecord::Snapshot(tombstone)",
        &WalRecord::Snapshot {
            group: 9,
            epoch: 0,
            seq: 0,
            state: Vec::new(),
        },
    );
    rows.check(VSYNC_AND_TRANSPORT);
}

const STAND_IN_ACTORS: &[(&str, &str)] = &[
    ("ShardMsg::Insert", "0007ac02"),
    ("ShardMsg::Replicate", "0107ac0202"),
    ("ShardMsg::Ack", "0207"),
    ("ShardMsg::Read", "03ac02"),
    ("TupleMsg::Insert", "000703ac02"),
    ("TupleMsg::Read", "010803"),
    ("TupleMsg::Take", "020903"),
    ("TupleMsg::Replicate", "0303ac020702"),
    ("TupleMsg::Ack", "0403"),
    ("TupleMsg::Purge", "0503"),
    ("TupleMsg::SetLambda", "06ac02"),
    ("ShardActor(pending)", "02020107ac02010702000000"),
    ("ShardActor(home)", "02020107ac0200010101"),
    ("ShardActor(replica)", "03020107ac0200000000"),
    ("TupleActor(pending)", "0301010103ac020701030701"),
    ("TupleActor(home)", "0301010103ac020700"),
    ("TupleActor(replica)", "0001010103ac020700"),
];

/// The checkpointable stand-in workloads: their messages ride simnet
/// links and their actor state is what `Engine::snapshot` serialises.
#[test]
fn stand_in_actor_bytes_are_pinned() {
    let mut rows = Rows::default();
    rows.pin("ShardMsg::Insert", &ShardMsg::Insert { key: 7, val: 300 });
    rows.pin(
        "ShardMsg::Replicate",
        &ShardMsg::Replicate {
            key: 7,
            val: 300,
            home: NodeId(2),
        },
    );
    rows.pin("ShardMsg::Ack", &ShardMsg::Ack { key: 7 });
    rows.pin("ShardMsg::Read", &ShardMsg::Read { key: 300 });
    rows.pin(
        "TupleMsg::Insert",
        &TupleMsg::Insert {
            op: 7,
            key: 3,
            val: 300,
        },
    );
    rows.pin("TupleMsg::Read", &TupleMsg::Read { op: 8, key: 3 });
    rows.pin("TupleMsg::Take", &TupleMsg::Take { op: 9, key: 3 });
    rows.pin(
        "TupleMsg::Replicate",
        &TupleMsg::Replicate {
            key: 3,
            val: 300,
            version: 7,
            home: NodeId(2),
        },
    );
    rows.pin("TupleMsg::Ack", &TupleMsg::Ack { key: 3 });
    rows.pin("TupleMsg::Purge", &TupleMsg::Purge { key: 3 });
    rows.pin("TupleMsg::SetLambda", &TupleMsg::SetLambda { lambda: 300 });

    // Actor state mid-insert (replica acks outstanding, so `pending` is
    // populated) and again at rest.
    let mut shard = Engine::new(EngineConfig::for_tests(5), ShardActor::factory(2));
    shard.inject(
        SimTime::ZERO,
        NodeId(2),
        ShardMsg::Insert { key: 7, val: 300 },
    );
    shard.inject(SimTime::ZERO, NodeId(2), ShardMsg::Read { key: 7 });
    shard.inject(SimTime::ZERO, NodeId(2), ShardMsg::Read { key: 12 });
    while shard.stats().msgs_sent == 0 {
        assert!(shard.step());
    }
    rows.pin("ShardActor(pending)", shard.actor(NodeId(2)));
    shard.run_to_quiescence(1_000);
    rows.pin("ShardActor(home)", shard.actor(NodeId(2)));
    rows.pin("ShardActor(replica)", shard.actor(NodeId(3)));

    let mut tuple = Engine::new(EngineConfig::for_tests(4), |id| {
        TupleActor::new(id, 1, true)
    });
    tuple.inject(
        SimTime::ZERO,
        NodeId(3),
        TupleMsg::Insert {
            op: 7,
            key: 3,
            val: 300,
        },
    );
    while tuple.stats().msgs_sent == 0 {
        assert!(tuple.step());
    }
    rows.pin("TupleActor(pending)", tuple.actor(NodeId(3)));
    tuple.run_to_quiescence(1_000);
    rows.pin("TupleActor(home)", tuple.actor(NodeId(3)));
    rows.pin("TupleActor(replica)", tuple.actor(NodeId(0)));
    rows.check(STAND_IN_ACTORS);
}
