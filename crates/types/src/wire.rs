//! The data model's one hand-written codec, and the codec tests.
//!
//! Every other type states its layout once, in a `wire_struct!` /
//! `wire_enum!` line next to its definition. [`FieldMatcher`] cannot: its
//! `Range` bounds are `std::ops::Bound<Value>` and `Not` boxes a matcher,
//! neither of which has a `Wire` impl of its own. The convention is the
//! same — one tag byte per variant, fields in order; tag values are part
//! of the wire format, so append new variants and never renumber.

use std::ops::Bound;

use paso_wire::{Reader, Wire, WireError};

use crate::template::FieldMatcher;
use crate::value::{Value, ValueType};

fn encode_bound(b: &Bound<Value>, out: &mut Vec<u8>) {
    match b {
        Bound::Unbounded => out.push(0),
        Bound::Included(v) => {
            out.push(1);
            v.encode(out);
        }
        Bound::Excluded(v) => {
            out.push(2);
            v.encode(out);
        }
    }
}

fn decode_bound(r: &mut Reader<'_>) -> Result<Bound<Value>, WireError> {
    Ok(match r.u8()? {
        0 => Bound::Unbounded,
        1 => Bound::Included(Value::decode(r)?),
        2 => Bound::Excluded(Value::decode(r)?),
        tag => return Err(WireError::InvalidTag { ty: "Bound", tag }),
    })
}

fn bound_len(b: &Bound<Value>) -> usize {
    1 + match b {
        Bound::Unbounded => 0,
        Bound::Included(v) | Bound::Excluded(v) => v.encoded_len(),
    }
}

impl Wire for FieldMatcher {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FieldMatcher::Any => out.push(0),
            FieldMatcher::AnyOf(t) => {
                out.push(1);
                t.encode(out);
            }
            FieldMatcher::Exact(v) => {
                out.push(2);
                v.encode(out);
            }
            FieldMatcher::Range { lo, hi } => {
                out.push(3);
                encode_bound(lo, out);
                encode_bound(hi, out);
            }
            FieldMatcher::Prefix(s) => {
                out.push(4);
                s.encode(out);
            }
            FieldMatcher::Contains(s) => {
                out.push(5);
                s.encode(out);
            }
            FieldMatcher::Not(inner) => {
                out.push(6);
                inner.encode(out);
            }
            FieldMatcher::TupleOf(ms) => {
                out.push(7);
                ms.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => FieldMatcher::Any,
            1 => FieldMatcher::AnyOf(ValueType::decode(r)?),
            2 => FieldMatcher::Exact(Value::decode(r)?),
            3 => FieldMatcher::Range {
                lo: decode_bound(r)?,
                hi: decode_bound(r)?,
            },
            4 => FieldMatcher::Prefix(String::decode(r)?),
            5 => FieldMatcher::Contains(String::decode(r)?),
            6 => FieldMatcher::Not(Box::new(FieldMatcher::decode(r)?)),
            7 => FieldMatcher::TupleOf(Vec::<FieldMatcher>::decode(r)?),
            tag => {
                return Err(WireError::InvalidTag {
                    ty: "FieldMatcher",
                    tag,
                })
            }
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            FieldMatcher::Any => 0,
            FieldMatcher::AnyOf(_) => 1,
            FieldMatcher::Exact(v) => v.encoded_len(),
            FieldMatcher::Range { lo, hi } => bound_len(lo) + bound_len(hi),
            FieldMatcher::Prefix(s) | FieldMatcher::Contains(s) => s.encoded_len(),
            FieldMatcher::Not(inner) => inner.encoded_len(),
            FieldMatcher::TupleOf(ms) => ms.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassId, ObjectId, PasoObject, ProcessId, SearchCriterion, Template};
    use paso_wire::{decode_exact, encode_to_vec};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len for {v:?}");
        assert_eq!(decode_exact::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn every_value_variant_round_trips() {
        round_trip(Value::Int(-1));
        round_trip(Value::Float(f64::MIN_POSITIVE));
        round_trip(Value::Bool(true));
        round_trip(Value::from("text"));
        round_trip(Value::Bytes(vec![0, 255, 1]));
        round_trip(Value::symbol("job"));
        round_trip(Value::Tuple(vec![Value::Int(1), Value::Tuple(vec![])]));
    }

    #[test]
    fn every_matcher_variant_round_trips() {
        round_trip(FieldMatcher::Any);
        round_trip(FieldMatcher::AnyOf(ValueType::Symbol));
        round_trip(FieldMatcher::Exact(Value::Int(5)));
        round_trip(FieldMatcher::between(1, 9));
        round_trip(FieldMatcher::at_least(0));
        round_trip(FieldMatcher::Range {
            lo: Bound::Excluded(Value::Int(0)),
            hi: Bound::Unbounded,
        });
        round_trip(FieldMatcher::Prefix("pre".into()));
        round_trip(FieldMatcher::Contains("mid".into()));
        round_trip(FieldMatcher::Not(Box::new(FieldMatcher::Any)));
        round_trip(FieldMatcher::TupleOf(vec![
            FieldMatcher::Any,
            FieldMatcher::Exact(Value::Bool(false)),
        ]));
    }

    #[test]
    fn objects_and_criteria_round_trip() {
        round_trip(PasoObject::new(
            ObjectId::new(ProcessId(3), 77),
            vec![Value::symbol("t"), Value::Int(42)],
        ));
        round_trip(SearchCriterion::new(Template::exact(vec![
            Value::symbol("t"),
            Value::Int(42),
        ])));
        round_trip(ClassId(19));
    }

    #[test]
    fn truncated_object_is_rejected_not_panicking() {
        let o = PasoObject::new(ObjectId::new(ProcessId(1), 2), vec![Value::from("abc")]);
        let bytes = encode_to_vec(&o);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<PasoObject>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode_exact::<Value>(&[200]),
            Err(WireError::InvalidTag {
                ty: "Value",
                tag: 200
            })
        ));
        assert!(matches!(
            decode_exact::<FieldMatcher>(&[99]),
            Err(WireError::InvalidTag {
                ty: "FieldMatcher",
                ..
            })
        ));
    }
}
