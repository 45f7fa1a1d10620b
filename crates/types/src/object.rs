//! PASO objects and their lifecycle.
//!
//! An object in a PASO memory is an immutable tuple of [`Value`]s with a
//! globally unique identity. The paper (§4) assumes without loss of
//! generality that every object is inserted at most once, "guaranteed, for
//! example, by attaching to each object some unique identification signed by
//! its creating process" — [`ObjectId`] is exactly that identification.
//!
//! The lifecycle automaton of §2 (prenatal → live → dead, axioms A1–A2) is
//! realized by [`Lifecycle`]; the executable semantics checker in
//! `paso-core` uses it to validate runs.

use std::fmt;

use crate::value::Value;

/// Identifier of a compute process (the object creator in [`ObjectId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u64);

paso_wire::wire_struct!(ProcessId { 0 });

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Globally unique object identity: the creating process plus a per-process
/// sequence number. Signing by the creator (as the paper suggests) reduces to
/// the creator being the only party that increments its own sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId {
    /// The creating process.
    pub creator: ProcessId,
    /// Sequence number local to the creator.
    pub seq: u64,
}

paso_wire::wire_struct!(ObjectId { creator, seq });

impl ObjectId {
    /// Creates an object id.
    pub fn new(creator: ProcessId, seq: u64) -> Self {
        ObjectId { creator, seq }
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.creator, self.seq)
    }
}

/// An immutable PASO object: identity plus a tuple of field values.
///
/// There is no modify operation in PASO — "modifying a field is logically
/// equivalent to destroying the old object and creating a new one" (§1) —
/// hence fields are exposed read-only.
///
/// # Examples
///
/// ```
/// use paso_types::{PasoObject, ObjectId, ProcessId, Value};
///
/// let o = PasoObject::new(
///     ObjectId::new(ProcessId(1), 0),
///     vec![Value::symbol("task"), Value::Int(42)],
/// );
/// assert_eq!(o.arity(), 2);
/// assert_eq!(o.field(1), Some(&Value::Int(42)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PasoObject {
    id: ObjectId,
    fields: Vec<Value>,
}

paso_wire::wire_struct!(PasoObject { id, fields });

impl PasoObject {
    /// Creates an object from its identity and fields.
    pub fn new(id: ObjectId, fields: Vec<Value>) -> Self {
        PasoObject { id, fields }
    }

    /// The unique identity of this object.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// All fields, in order.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// The number of fields. Objects may have "an arbitrary number of
    /// fields" (§1), so arity is per-object, not global.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The `i`-th field, or `None` if out of range.
    pub fn field(&self, i: usize) -> Option<&Value> {
        self.fields.get(i)
    }

    /// Exact wire size in bytes under the binary codec, used by the
    /// `α + β·|m|` cost model.
    pub fn wire_size(&self) -> usize {
        paso_wire::Wire::encoded_len(self)
    }

    /// Consumes the object, returning its fields.
    pub fn into_fields(self) -> Vec<Value> {
        self.fields
    }
}

impl fmt::Display for PasoObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.id)?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// The life of an object (§2): "It is initially prenatal. If inserted, the
/// object becomes live. If read&deleted, the object becomes dead."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Lifecycle {
    /// Not yet inserted.
    #[default]
    Prenatal,
    /// Inserted and not yet consumed.
    Live,
    /// Consumed by a `read&del`.
    Dead,
}

impl Lifecycle {
    /// Attempts the `insert` transition (A2: "an object may become alive
    /// only after it is inserted").
    ///
    /// Returns the new state, or `Err` if the object was not prenatal —
    /// which would violate the at-most-one-insert axiom.
    pub fn insert(self) -> Result<Lifecycle, LifecycleError> {
        match self {
            Lifecycle::Prenatal => Ok(Lifecycle::Live),
            other => Err(LifecycleError {
                from: other,
                event: LifecycleEvent::Insert,
            }),
        }
    }

    /// Attempts the `read&del` transition. Only live objects may die (A1b),
    /// and A2 allows at most one consuming `read&del` per object.
    pub fn consume(self) -> Result<Lifecycle, LifecycleError> {
        match self {
            Lifecycle::Live => Ok(Lifecycle::Dead),
            other => Err(LifecycleError {
                from: other,
                event: LifecycleEvent::Consume,
            }),
        }
    }

    /// True iff the object may be returned by a `read` (must be live).
    pub fn is_live(self) -> bool {
        self == Lifecycle::Live
    }
}

impl fmt::Display for Lifecycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Lifecycle::Prenatal => "prenatal",
            Lifecycle::Live => "live",
            Lifecycle::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// The lifecycle event that was attempted in a [`LifecycleError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleEvent {
    /// An `insert` was attempted.
    Insert,
    /// A consuming `read&del` was attempted.
    Consume,
}

/// An illegal lifecycle transition — i.e. a violation of axioms A1–A2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LifecycleError {
    /// State the object was in.
    pub from: Lifecycle,
    /// Event that was attempted.
    pub event: LifecycleEvent,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = match self.event {
            LifecycleEvent::Insert => "insert",
            LifecycleEvent::Consume => "read&del",
        };
        write!(f, "illegal {ev} of a {} object", self.from)
    }
}

impl std::error::Error for LifecycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_basics() {
        let id = ObjectId::new(ProcessId(3), 9);
        let o = PasoObject::new(id, vec![Value::Int(1), Value::from("x")]);
        assert_eq!(o.id(), id);
        assert_eq!(o.arity(), 2);
        assert_eq!(o.field(0), Some(&Value::Int(1)));
        assert_eq!(o.field(2), None);
        assert_eq!(o.fields().len(), 2);
        assert_eq!(
            o.clone().into_fields(),
            vec![Value::Int(1), Value::from("x")]
        );
    }

    #[test]
    fn object_ids_order_by_creator_then_seq() {
        let a = ObjectId::new(ProcessId(1), 5);
        let b = ObjectId::new(ProcessId(1), 6);
        let c = ObjectId::new(ProcessId(2), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display_forms() {
        let o = PasoObject::new(ObjectId::new(ProcessId(1), 2), vec![Value::Int(7)]);
        assert_eq!(o.to_string(), "p1#2(7)");
        assert_eq!(Lifecycle::Live.to_string(), "live");
    }

    #[test]
    fn lifecycle_legal_path() {
        let s = Lifecycle::default();
        assert_eq!(s, Lifecycle::Prenatal);
        let s = s.insert().unwrap();
        assert!(s.is_live());
        let s = s.consume().unwrap();
        assert_eq!(s, Lifecycle::Dead);
    }

    #[test]
    fn lifecycle_rejects_double_insert() {
        let live = Lifecycle::Prenatal.insert().unwrap();
        let err = live.insert().unwrap_err();
        assert_eq!(err.from, Lifecycle::Live);
        assert_eq!(err.event, LifecycleEvent::Insert);
        assert!(err.to_string().contains("insert"));
    }

    #[test]
    fn lifecycle_rejects_consume_of_prenatal_and_dead() {
        assert!(Lifecycle::Prenatal.consume().is_err());
        let dead = Lifecycle::Prenatal.insert().unwrap().consume().unwrap();
        assert!(dead.consume().is_err());
        // A3(c): a dead object remains dead — no transition out of Dead.
        assert!(dead.insert().is_err());
    }

    #[test]
    fn wire_size_includes_id_overhead() {
        // creator varint + seq varint + field count varint + one small int.
        let o = PasoObject::new(ObjectId::new(ProcessId(0), 0), vec![Value::Int(0)]);
        assert_eq!(o.wire_size(), 1 + 1 + 1 + 2);
    }
}
