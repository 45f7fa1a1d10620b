//! `Wire` impls for primitive building blocks.
//!
//! Note `u8` deliberately has no `Wire` impl: a `Vec<u8>` is a byte string,
//! encoded as one length-prefixed slice ([`put_bytes`] /
//! [`Reader::byte_string`]) by its own impl below rather than element by
//! element through `Vec<T: Wire>`.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::WireError;
use crate::reader::Reader;
use crate::varint::{put_varint, varint_len, zigzag, zigzag_len};
use crate::Wire;

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Encoded size of a length-prefixed byte string.
pub fn bytes_len(bytes: &[u8]) -> usize {
    varint_len(bytes.len() as u64) + bytes.len()
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::Malformed("u32 out of range"))
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u16::try_from(r.varint()?).map_err(|_| WireError::Malformed("u16 out of range"))
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, zigzag(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.zigzag()
    }

    fn encoded_len(&self) -> usize {
        zigzag_len(*self)
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.f64()
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { ty: "bool", tag }),
        }
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.str()?.to_owned())
    }

    fn encoded_len(&self) -> usize {
        bytes_len(self.as_bytes())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.varint()?;
        // Each element takes at least one byte, so a count beyond the
        // remaining input is a lie. An honest-looking count still only
        // buys a bounded pre-allocation: elements can be far larger in
        // memory than on the wire.
        let n = usize::try_from(n).map_err(|_| WireError::Malformed("vec length"))?;
        if n > r.remaining() {
            return Err(WireError::LengthOverrun {
                claimed: n,
                available: r.remaining(),
            });
        }
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// A byte string: varint length, then the raw bytes.
impl Wire for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.byte_string()?.to_vec())
    }

    fn encoded_len(&self) -> usize {
        bytes_len(self)
    }
}

/// A pair is its two halves back to back, so `Vec<(A, B)>` and
/// `BTreeMap<A, B>` share one layout.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

/// A set is written like a `Vec` of its elements in ascending order;
/// decoding inserts one by one, so duplicates collapse.
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        (0..r.length()?).map(|_| T::decode(r)).collect()
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// A map is written like a `Vec` of its `(key, value)` pairs in ascending
/// key order; on decode a repeated key keeps its last value.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        (0..r.length()?).map(|_| Wire::decode(r)).collect()
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64)
            + self
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum::<usize>()
    }
}

/// Bitmap words: fixed-width little-endian, no count. High bits are as
/// likely set as low ones, so varints would only add bytes.
impl<const N: usize> Wire for [u64; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for word in self {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut words = [0u64; N];
        for word in &mut words {
            let raw: [u8; 8] = r.bytes(8)?.try_into().expect("8-byte read");
            *word = u64::from_le_bytes(raw);
        }
        Ok(words)
    }

    fn encoded_len(&self) -> usize {
        8 * N
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "Option", tag }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_exact, encode_to_vec};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len for {v:?}");
        assert_eq!(decode_exact::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(77u32);
        round_trip(u16::MAX);
        round_trip(-42i64);
        round_trip(i64::MIN);
        round_trip(3.25f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(String::from("héllo"));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some(9i64));
        round_trip(Option::<String>::None);
        round_trip((7u64, String::from("x")));
        round_trip(BTreeSet::from([3u32, 1, 200]));
        round_trip(BTreeMap::from([(5u64, vec![1u8, 2]), (1, vec![])]));
        round_trip([0u64, u64::MAX, 1 << 40]);
    }

    #[test]
    fn byte_strings_are_one_length_prefixed_slice() {
        for payload in [vec![], vec![7u8], vec![0u8; 300]] {
            round_trip(payload.clone());
            let mut expect = Vec::new();
            put_bytes(&mut expect, &payload);
            assert_eq!(encode_to_vec(&payload), expect);
        }
    }

    #[test]
    fn collections_share_the_vec_layout() {
        let set = BTreeSet::from([9u64, 2, 300]);
        assert_eq!(encode_to_vec(&set), encode_to_vec(&vec![2u64, 9, 300]));
        let map = BTreeMap::from([(2u64, true), (1, false)]);
        assert_eq!(
            encode_to_vec(&map),
            encode_to_vec(&vec![(1u64, false), (2, true)])
        );
        assert_eq!(encode_to_vec(&[1u64, 2]).len(), 16, "fixed-width words");
    }

    #[test]
    fn nan_survives_by_bit_pattern() {
        let bytes = encode_to_vec(&f64::NAN);
        assert!(decode_exact::<f64>(&bytes).unwrap().is_nan());
    }

    #[test]
    fn small_ints_take_one_byte() {
        assert_eq!(encode_to_vec(&5u64).len(), 1);
        assert_eq!(encode_to_vec(&(-3i64)).len(), 1);
    }

    #[test]
    fn vec_length_cannot_overrun_input() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1000);
        buf.push(1);
        assert!(matches!(
            decode_exact::<Vec<u64>>(&buf),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn option_bad_tag_rejected() {
        assert!(matches!(
            decode_exact::<Option<u64>>(&[7]),
            Err(WireError::InvalidTag { ty: "Option", .. })
        ));
    }
}
