//! `wire_struct!` and `wire_enum!`: one field list per type.
//!
//! A message's layout used to be stated three times (`encode`, `decode`,
//! `encoded_len`); these macros take it once — tag numbers and field
//! names, nothing else — and emit all three, so the size simnet charges
//! and the bytes the transport ships cannot drift apart. Fields are
//! written in list order, each through its own [`Wire`](crate::Wire) impl;
//! an enum variant is one tag byte followed by its fields. Tag values and
//! field order are the wire format: append, never renumber or reorder.
//!
//! Anything the field list cannot say — validation on decode, a magic or
//! version header, a field with no `Wire` type of its own — stays a
//! hand-written impl; the macros do not grow options to reach it.

/// Implements [`Wire`](crate::Wire) for a struct as its fields in order.
///
/// Invoke next to the type definition (private fields are fine there).
/// Tuple structs name their fields by index.
///
/// ```
/// use paso_wire::{decode_exact, encode_to_vec, wire_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct ReqId { origin: u32, seq: u64 }
/// wire_struct!(ReqId { origin, seq });
///
/// #[derive(Debug, PartialEq)]
/// struct GroupId(u64);
/// wire_struct!(GroupId { 0 });
///
/// let bytes = encode_to_vec(&ReqId { origin: 2, seq: 300 });
/// assert_eq!(bytes, [2, 0xac, 0x02]);
/// assert_eq!(decode_exact::<GroupId>(&[7]).unwrap(), GroupId(7));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Wire::encode(&self.$field, out);)+
            }

            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty { $($field: $crate::Wire::decode(r)?),+ })
            }

            fn encoded_len(&self) -> usize {
                let mut len = 0;
                $(len += $crate::Wire::encoded_len(&self.$field);)+
                len
            }
        }
    };
}

/// Implements [`Wire`](crate::Wire) for an enum as one tag byte plus the
/// variant's fields in order. An unknown tag decodes to
/// [`WireError::InvalidTag`](crate::WireError::InvalidTag).
///
/// To add a variant, add it to the `enum` and append one line here with
/// the next unused tag.
///
/// ```
/// use paso_wire::{decode_exact, encode_to_vec, wire_enum, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Reply { Welcome, Busy { seq: u64 }, Data(u64, Vec<u8>) }
/// wire_enum!(Reply {
///     0 => Welcome,
///     1 => Busy { seq },
///     2 => Data(seq, bytes),
/// });
///
/// let msg = Reply::Data(5, vec![9, 9]);
/// assert_eq!(encode_to_vec(&msg), [2, 5, 2, 9, 9]);
/// assert_eq!(msg.encoded_len(), 5);
/// assert_eq!(decode_exact::<Reply>(&[1, 7]).unwrap(), Reply::Busy { seq: 7 });
/// assert_eq!(
///     decode_exact::<Reply>(&[3]),
///     Err(WireError::InvalidTag { ty: "Reply", tag: 3 })
/// );
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($elem:ident),* $(,)? ))?
    ),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($elem),* ))? => {
                        out.push($tag);
                        $($($crate::Wire::encode($field, out);)*)?
                        $($($crate::Wire::encode($elem, out);)*)?
                    })+
                }
            }

            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $field = $crate::Wire::decode(r)?;)*)?
                        $($(let $elem = $crate::Wire::decode(r)?;)*)?
                        Ok($ty::$variant $({ $($field),* })? $(( $($elem),* ))?)
                    })+
                    tag => Err($crate::WireError::InvalidTag { ty: stringify!($ty), tag }),
                }
            }

            fn encoded_len(&self) -> usize {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($elem),* ))? => {
                        1 $($(+ $crate::Wire::encoded_len($field))*)?
                            $($(+ $crate::Wire::encoded_len($elem))*)?
                    })+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{decode_exact, encode_to_vec, Wire, WireError};

    #[derive(Debug, Clone, PartialEq)]
    struct Header {
        id: u64,
        tags: Vec<Option<String>>,
        blob: Vec<u8>,
    }
    wire_struct!(Header { id, tags, blob });

    #[derive(Debug, Clone, PartialEq)]
    struct Seq(u64, bool);
    wire_struct!(Seq { 0, 1 });

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Data {
            header: Header,
            body: Vec<u8>,
            next: Option<Vec<u64>>,
        },
        Ack(Seq, i64),
    }
    wire_enum!(Msg {
        0 => Ping,
        1 => Data { header, body, next },
        2 => Ack(seq, delta),
    });

    fn header() -> Header {
        Header {
            id: 300,
            tags: vec![Some("a".into()), None, Some(String::new())],
            blob: vec![0, 255, 7],
        }
    }

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Ping,
            Msg::Data {
                header: header(),
                body: vec![1; 200],
                next: Some(vec![1, 128, u64::MAX]),
            },
            Msg::Data {
                header: header(),
                body: Vec::new(),
                next: None,
            },
            Msg::Ack(Seq(9, true), -300),
        ]
    }

    /// Round trip, `encoded_len`, every strict prefix, one trailing byte.
    fn exercise<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        assert_eq!(value.encoded_len(), bytes.len(), "{value:?}");
        assert_eq!(&decode_exact::<T>(&bytes).unwrap(), value);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<T>(&bytes[..cut]).is_err(),
                "{cut}-byte prefix of {value:?} decoded"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            decode_exact::<T>(&padded),
            Err(WireError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn struct_round_trips_and_rejects_damage() {
        exercise(&header());
        exercise(&Seq(u64::MAX, false));
    }

    #[test]
    fn enum_round_trips_and_rejects_damage() {
        for msg in samples() {
            exercise(&msg);
        }
    }

    #[test]
    fn layout_is_tag_then_fields_in_list_order() {
        assert_eq!(encode_to_vec(&Msg::Ping), [0]);
        assert_eq!(
            encode_to_vec(&Msg::Ack(Seq(9, true), -1)),
            [2, 9, 1, 1],
            "tag, Seq.0, Seq.1, zig-zag delta"
        );
        // Byte strings are length-prefixed, exactly as `put_bytes` writes.
        let mut expect = vec![0xac, 0x02, 0];
        crate::put_bytes(&mut expect, &[4, 5]);
        let h = Header {
            id: 300,
            tags: Vec::new(),
            blob: vec![4, 5],
        };
        assert_eq!(encode_to_vec(&h), expect);
    }

    #[test]
    fn unknown_tag_names_the_type() {
        assert_eq!(
            decode_exact::<Msg>(&[3, 0, 0]),
            Err(WireError::InvalidTag { ty: "Msg", tag: 3 })
        );
    }
}
