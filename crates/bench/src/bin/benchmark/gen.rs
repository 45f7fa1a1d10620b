//! Seeded op-stream generator and the acked-key pool.
//!
//! Every stream (one per connection or caller thread) cycles its keys
//! through *insert → read → read&del*. The whole stream, and therefore
//! every expected result, is fixed from `--seed` before the clock starts:
//!
//! * a pool of `depth` keys is inserted during set-up;
//! * each step inserts one fresh key, reads `reads_per_step` keys drawn
//!   from the **middle half** of the pool, and `read&del`s the pool's
//!   oldest key.
//!
//! A key read at step `t` therefore had its insert issued more than
//! `depth/4` steps earlier and has its `read&del` issued more than
//! `depth/4` steps later. As long as a stream keeps fewer than
//! [`Plan::safe_window`] ops in flight, every read targets a key whose
//! insert is acknowledged and whose delete has not been sent: `Found`
//! with exactly that key is the only correct answer, and the live store
//! stays at `depth` objects per stream.

use std::collections::VecDeque;

use paso_core::{ClientOp, ClientResult};
use paso_types::{FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The three PASO primitives (§2), indexable for per-type sample vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Insert = 0,
    Read = 1,
    ReadDel = 2,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Insert, Kind::Read, Kind::ReadDel];

    /// `kind` alone, or every kind for `None`.
    pub fn selected(kind: Option<Kind>) -> impl Iterator<Item = Kind> {
        Kind::ALL
            .into_iter()
            .filter(move |k| kind.is_none_or(|want| want == *k))
    }

    pub fn label(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Read => "read",
            Kind::ReadDel => "readdel",
        }
    }
}

/// One planned operation on one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    pub kind: Kind,
    pub key: i64,
}

/// What the tuples of a workload look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Field 0, a symbol.
    pub tag: &'static str,
    /// Length of the string payload in field 2; 0 = two-field tuples.
    pub payload_bytes: usize,
    /// Keys live per stream (the acked-key pool depth).
    pub depth: usize,
    /// Reads per inserted key (1 → ⅓ reads, 2 → ½ reads).
    pub reads_per_step: usize,
}

impl Shape {
    /// Ops generated per step of the cycle.
    pub fn ops_per_step(&self) -> usize {
        2 + self.reads_per_step
    }

    /// The tuple stored for `key`.
    pub fn fields(&self, key: i64) -> Vec<Value> {
        let mut f = vec![Value::symbol(self.tag), Value::Int(key)];
        if self.payload_bytes > 0 {
            f.push(Value::Str(self.payload(key)));
        }
        f
    }

    /// Deterministic payload for `key`, so a returned object can be
    /// checked byte for byte without storing a second copy.
    pub fn payload(&self, key: i64) -> String {
        let hex = format!("{key:016x}");
        hex.chars().cycle().take(self.payload_bytes).collect()
    }

    /// Exact-key search criterion (payload field wild).
    pub fn criterion(&self, key: i64) -> SearchCriterion {
        let mut m = vec![
            FieldMatcher::Exact(Value::symbol(self.tag)),
            FieldMatcher::Exact(Value::Int(key)),
        ];
        if self.payload_bytes > 0 {
            m.push(FieldMatcher::Any);
        }
        SearchCriterion::from(Template::new(m))
    }

    /// The object stored for `key`, with id `(creator, key)`: keys are
    /// unique, so ids are too.
    pub fn object(&self, key: i64, creator: u64) -> PasoObject {
        PasoObject::new(
            ObjectId::new(ProcessId(creator), key as u64),
            self.fields(key),
        )
    }

    /// The wire-level operation for a planned op.
    pub fn client_op(&self, op: PlannedOp, creator: u64) -> ClientOp {
        match op.kind {
            Kind::Insert => ClientOp::Insert {
                object: self.object(op.key, creator),
            },
            Kind::Read => ClientOp::Read {
                sc: self.criterion(op.key),
                blocking: false,
            },
            Kind::ReadDel => ClientOp::ReadDel {
                sc: self.criterion(op.key),
                blocking: false,
            },
        }
    }

    /// Is `found` the tuple this workload stored under `key`?
    pub fn object_matches(&self, key: i64, found: &PasoObject) -> bool {
        found.field(1) == Some(&Value::Int(key))
            && (self.payload_bytes == 0
                || found.field(2).and_then(Value::as_str) == Some(self.payload(key).as_str()))
    }

    /// Checks a result against the only answer the pool allows.
    pub fn verdict(&self, op: PlannedOp, result: &ClientResult) -> Verdict {
        match (op.kind, result) {
            (Kind::Insert, ClientResult::Inserted) => Verdict::Ok,
            (Kind::Read | Kind::ReadDel, ClientResult::Found(o))
                if self.object_matches(op.key, o) =>
            {
                Verdict::Ok
            }
            (_, ClientResult::TimedOut | ClientResult::Unavailable) => Verdict::Unserved,
            _ => Verdict::Wrong,
        }
    }
}

/// Outcome of the per-op correctness gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The expected result.
    Ok,
    /// No answer: timeout, `Unavailable`, or (proxy) `Busy`.
    Unserved,
    /// An answer the pool rules out: unexpected miss, wrong object.
    Wrong,
}

/// One stream's complete schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub shape: Shape,
    /// The set-up inserts that fill the pool, oldest key first.
    pub prefill: Vec<PlannedOp>,
    /// The steady-state cycle.
    pub ops: Vec<PlannedOp>,
}

impl Plan {
    /// Builds stream `stream`'s schedule of at least `min_ops` ops.
    pub fn generate(shape: Shape, seed: u64, stream: u64, min_ops: usize) -> Plan {
        assert!(shape.depth >= 4, "pool too shallow to have a middle half");
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // (stream, counter) makes keys unique; the seeded low bits make
        // the generated inputs depend on `--seed` and nothing else.
        let mut counter = 0i64;
        let mut fresh = move |rng: &mut ChaCha8Rng| {
            counter += 1;
            ((stream as i64 + 1) << 44) | (counter << 16) | i64::from(rng.gen_range(0u32..1 << 16))
        };
        let prefill: Vec<PlannedOp> = (0..shape.depth)
            .map(|_| PlannedOp {
                kind: Kind::Insert,
                key: fresh(&mut rng),
            })
            .collect();
        let mut pool: VecDeque<i64> = prefill.iter().map(|op| op.key).collect();
        let steps = min_ops.div_ceil(shape.ops_per_step());
        let mut ops = Vec::with_capacity(steps * shape.ops_per_step());
        let (lo, hi) = (shape.depth / 4, shape.depth - shape.depth / 4);
        for _ in 0..steps {
            let key = fresh(&mut rng);
            ops.push(PlannedOp {
                kind: Kind::Insert,
                key,
            });
            for _ in 0..shape.reads_per_step {
                ops.push(PlannedOp {
                    kind: Kind::Read,
                    key: pool[rng.gen_range(lo..hi)],
                });
            }
            let oldest = pool.pop_front().expect("pool never empties");
            ops.push(PlannedOp {
                kind: Kind::ReadDel,
                key: oldest,
            });
            pool.push_back(key);
        }
        Plan {
            shape,
            prefill,
            ops,
        }
    }

    /// In-flight ops per stream below which every expectation is
    /// unambiguous: the shortest distance, in ops, between a key's insert
    /// and a read of it, or between a read and that key's `read&del`.
    pub fn safe_window(&self) -> usize {
        self.shape.depth / 4 * self.shape.ops_per_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const SHAPE: Shape = Shape {
        tag: "t",
        payload_bytes: 0,
        depth: 64,
        reads_per_step: 1,
    };

    #[test]
    fn same_seed_same_stream_and_seed_changes_inputs() {
        let a = Plan::generate(SHAPE, 7, 0, 3000);
        assert_eq!(a, Plan::generate(SHAPE, 7, 0, 3000));
        assert_ne!(a.ops, Plan::generate(SHAPE, 8, 0, 3000).ops);
        assert_ne!(a.ops, Plan::generate(SHAPE, 7, 1, 3000).ops);
        assert!(a.ops.len() >= 3000);
    }

    /// Replays the schedule with the widest in-flight window it claims to
    /// tolerate: no read may target a key whose insert or `read&del` is
    /// still in flight, and no key is inserted or deleted twice.
    #[test]
    fn pool_never_reads_a_key_with_insert_or_delete_in_flight() {
        for shape in [
            SHAPE,
            Shape {
                depth: 400,
                reads_per_step: 2,
                ..SHAPE
            },
        ] {
            let plan = Plan::generate(shape, 42, 1, 20_000);
            let window = plan.safe_window() - 1;
            let mut inserted_at: HashMap<i64, usize> = HashMap::new();
            let mut deleted_at: HashMap<i64, usize> = HashMap::new();
            for (i, op) in plan.ops.iter().enumerate() {
                match op.kind {
                    Kind::Insert => assert!(inserted_at.insert(op.key, i).is_none()),
                    Kind::ReadDel => assert!(deleted_at.insert(op.key, i).is_none()),
                    Kind::Read => {}
                }
            }
            let mut live = 0usize;
            for (i, op) in plan.ops.iter().enumerate() {
                match op.kind {
                    Kind::Insert => live += 1,
                    Kind::ReadDel => live -= 1,
                    Kind::Read => {
                        // Prefilled keys were acked during set-up.
                        if let Some(&at) = inserted_at.get(&op.key) {
                            assert!(i - at > window, "read {i} overtakes insert {at}");
                        }
                        let del = deleted_at.get(&op.key).copied().unwrap_or(usize::MAX);
                        assert!(del > i && del - i > window, "read {i} races delete {del}");
                    }
                }
                assert!(live <= 1, "store drifts from the pool depth");
            }
        }
    }

    #[test]
    fn verdicts_follow_the_pool() {
        let shape = Shape {
            payload_bytes: 32,
            ..SHAPE
        };
        let key = 99;
        let ins = PlannedOp {
            kind: Kind::Insert,
            key,
        };
        let read = PlannedOp {
            kind: Kind::Read,
            key,
        };
        let ClientOp::Insert { object } = shape.client_op(ins, 0) else {
            panic!("insert expected");
        };
        assert!(shape.criterion(key).matches(&object));
        assert_eq!(
            shape.verdict(read, &ClientResult::Found(object.clone())),
            Verdict::Ok
        );
        assert_eq!(shape.verdict(ins, &ClientResult::Inserted), Verdict::Ok);
        assert_eq!(shape.verdict(read, &ClientResult::Fail), Verdict::Wrong);
        assert_eq!(
            shape.verdict(read, &ClientResult::TimedOut),
            Verdict::Unserved
        );
        let other = PlannedOp {
            kind: Kind::Read,
            key: key + 1,
        };
        assert_eq!(
            shape.verdict(other, &ClientResult::Found(object)),
            Verdict::Wrong
        );
    }
}
