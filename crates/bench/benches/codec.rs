//! Criterion bench — binary wire codec vs the old JSON encoding.
//!
//! Measures, for the three message shapes that dominate bus traffic
//! (client inserts, replicated `store` gcasts, read responses):
//!
//! - encode CPU time, binary vs JSON text (the pre-PR serde_json path,
//!   reproduced with `paso_wire::mini_json`);
//! - decode CPU time for the binary codec;
//! - encoded sizes — the `|m|` of `α + β·|m|`.
//!
//! Besides printing timings it writes `BENCH_PR1.json` at the workspace
//! root recording the byte counts and the JSON/binary size ratio per
//! shape, so the ≥2× reduction is checked into the repo.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use paso_core::{AppMsg, ClientOp, ClientRequest, OpResponse, ReplOp};
use paso_simnet::NodeId;
use paso_storage::Rank;
use paso_types::{
    ClassId, FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
};
use paso_vsync::{GroupId, NetMsg, ReqId, VsyncMsg};
use paso_wire::mini_json::Json;
use paso_wire::Wire;

/// A typical tuple: a symbol head, two ints, a short string.
fn obj(seq: u64) -> PasoObject {
    PasoObject::new(
        ObjectId::new(ProcessId(3), seq),
        vec![
            Value::symbol("task"),
            Value::Int(seq as i64),
            Value::Int(7),
            Value::from("payload-data"),
        ],
    )
}

fn sc() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("task")),
        FieldMatcher::Any,
        FieldMatcher::Any,
        FieldMatcher::Any,
    ]))
}

/// Client insert as injected at a memory server.
fn insert_msg() -> AppMsg {
    AppMsg::Client(ClientRequest {
        op_id: 12_345,
        op: ClientOp::Insert { object: obj(42) },
    })
}

/// The replicated `store` gcast, as it rides inside the vsync layer.
fn store_gcast() -> NetMsg {
    let payload = paso_wire::encode_to_vec(&ReplOp::Store {
        class: ClassId(2),
        object: obj(42),
        rank: Rank::new(90_000, 3),
    });
    NetMsg::Vsync(VsyncMsg::Gcast {
        group: GroupId(4),
        req: ReqId {
            origin: NodeId(3),
            seq: 17,
        },
        ack: 2,
        seq: 23,
        payload: payload.into(),
    })
}

/// A non-blocking read request, matcher-heavy rather than value-heavy.
fn read_msg() -> AppMsg {
    AppMsg::Client(ClientRequest {
        op_id: 12_346,
        op: ClientOp::Read {
            sc: sc(),
            blocking: false,
        },
    })
}

/// The response a read gcast returns.
fn read_resp() -> OpResponse {
    OpResponse {
        object: Some(obj(42)),
        failed: 1,
    }
}

// ---- JSON mirrors of the old serde_json representations ----

fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::obj([("Int", Json::Int(*i))]),
        Value::Float(x) => Json::obj([("Float", Json::Num(*x))]),
        Value::Bool(b) => Json::obj([("Bool", Json::Bool(*b))]),
        Value::Str(s) => Json::obj([("Str", Json::Str(s.clone()))]),
        Value::Bytes(b) => Json::obj([(
            "Bytes",
            Json::Arr(b.iter().map(|x| Json::UInt(u64::from(*x))).collect()),
        )]),
        Value::Symbol(s) => Json::obj([("Symbol", Json::Str(s.clone()))]),
        Value::Tuple(vs) => Json::obj([("Tuple", Json::Arr(vs.iter().map(value_json).collect()))]),
    }
}

fn object_json(o: &PasoObject) -> Json {
    Json::obj([
        (
            "id",
            Json::obj([
                ("creator", Json::UInt(o.id().creator.0)),
                ("seq", Json::UInt(o.id().seq)),
            ]),
        ),
        (
            "fields",
            Json::Arr(o.fields().iter().map(value_json).collect()),
        ),
    ])
}

fn matcher_json(m: &FieldMatcher) -> Json {
    match m {
        FieldMatcher::Any => Json::Str("Any".into()),
        FieldMatcher::Exact(v) => Json::obj([("Exact", value_json(v))]),
        other => Json::obj([("Other", Json::Str(format!("{other:?}")))]),
    }
}

fn sc_json(s: &SearchCriterion) -> Json {
    Json::obj([(
        "template",
        Json::obj([(
            "matchers",
            Json::Arr(s.template().matchers().iter().map(matcher_json).collect()),
        )]),
    )])
}

fn insert_json() -> Json {
    Json::obj([(
        "Client",
        Json::obj([
            ("op_id", Json::UInt(12_345)),
            (
                "op",
                Json::obj([("Insert", Json::obj([("object", object_json(&obj(42)))]))]),
            ),
        ]),
    )])
}

fn store_gcast_json() -> Json {
    let payload_json = Json::obj([(
        "Store",
        Json::obj([
            ("class", Json::UInt(2)),
            ("object", object_json(&obj(42))),
            ("rank", Json::UInt(Rank::new(90_000, 3).0)),
        ]),
    )])
    .render();
    // The old path JSON-encoded the ReplOp, then carried those bytes as a
    // JSON array of numbers inside the JSON-encoded vsync envelope.
    Json::obj([(
        "Vsync",
        Json::obj([(
            "Gcast",
            Json::obj([
                ("group", Json::UInt(4)),
                ("view", Json::UInt(9)),
                (
                    "req",
                    Json::obj([("origin", Json::UInt(3)), ("seq", Json::UInt(17))]),
                ),
                (
                    "payload",
                    Json::Arr(
                        payload_json
                            .as_bytes()
                            .iter()
                            .map(|b| Json::UInt(u64::from(*b)))
                            .collect(),
                    ),
                ),
            ]),
        )]),
    )])
}

fn read_json() -> Json {
    Json::obj([(
        "Client",
        Json::obj([
            ("op_id", Json::UInt(12_346)),
            (
                "op",
                Json::obj([(
                    "Read",
                    Json::obj([("sc", sc_json(&sc())), ("blocking", Json::Bool(false))]),
                )]),
            ),
        ]),
    )])
}

fn read_resp_json() -> Json {
    Json::obj([("object", object_json(&obj(42))), ("failed", Json::UInt(1))])
}

fn bench_codec(c: &mut Criterion) {
    let insert = insert_msg();
    let gcast = store_gcast();
    let read = read_msg();
    let resp = read_resp();

    let shapes: Vec<(&str, Vec<u8>, String)> = vec![
        (
            "insert",
            paso_wire::encode_to_vec(&insert),
            insert_json().render(),
        ),
        (
            "store_gcast",
            paso_wire::encode_to_vec(&gcast),
            store_gcast_json().render(),
        ),
        (
            "read_query",
            paso_wire::encode_to_vec(&read),
            read_json().render(),
        ),
        (
            "read_resp",
            paso_wire::encode_to_vec(&resp),
            read_resp_json().render(),
        ),
    ];

    let mut group = c.benchmark_group("codec");
    group.bench_function("encode_binary/insert", |b| {
        let mut buf = Vec::with_capacity(insert.encoded_len());
        b.iter(|| {
            buf.clear();
            insert.encode(&mut buf);
            black_box(buf.len())
        });
    });
    group.bench_function("encode_json/insert", |b| {
        b.iter(|| black_box(insert_json().render().len()));
    });
    group.bench_function("decode_binary/insert", |b| {
        let bytes = paso_wire::encode_to_vec(&insert);
        b.iter(|| black_box(paso_wire::decode_exact::<AppMsg>(&bytes).unwrap()));
    });
    group.bench_function("encode_binary/store_gcast", |b| {
        let mut buf = Vec::with_capacity(gcast.encoded_len());
        b.iter(|| {
            buf.clear();
            gcast.encode(&mut buf);
            black_box(buf.len())
        });
    });
    group.bench_function("encode_json/store_gcast", |b| {
        b.iter(|| black_box(store_gcast_json().render().len()));
    });
    group.bench_function("decode_binary/store_gcast", |b| {
        let bytes = paso_wire::encode_to_vec(&gcast);
        b.iter(|| black_box(paso_wire::decode_exact::<NetMsg>(&bytes).unwrap()));
    });
    group.finish();

    // Record byte counts at the workspace root.
    let entries: Vec<Json> = shapes
        .iter()
        .map(|(name, bin, json)| {
            Json::obj([
                ("shape", Json::Str((*name).into())),
                ("binary_bytes", Json::UInt(bin.len() as u64)),
                ("json_bytes", Json::UInt(json.len() as u64)),
                ("ratio", Json::Num(json.len() as f64 / bin.len() as f64)),
            ])
        })
        .collect();
    let report = Json::obj([
        ("bench", Json::Str("codec".into())),
        ("shapes", Json::Arr(entries)),
    ])
    .render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR1.json");
    let _ = std::fs::write(path, report + "\n");
    for (name, bin, json) in &shapes {
        println!(
            "codec/{name}: binary {}B vs json {}B ({:.1}x)",
            bin.len(),
            json.len(),
            json.len() as f64 / bin.len() as f64
        );
        assert!(
            json.len() >= 2 * bin.len(),
            "binary codec must be at least 2x smaller for {name}"
        );
    }
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
