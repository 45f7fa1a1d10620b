//! Compact binary wire codec for the PASO message path.
//!
//! Every message the system puts on a link is charged `α + β·|m|` by the
//! paper's cost model, so byte counts are a first-class concern. This crate
//! provides the primitives the whole workspace encodes with:
//!
//! - **varints** (LEB128) for lengths and unsigned integers, zig-zag for
//!   signed ones — small values dominate the wire, so they pay 1 byte;
//! - a **tag byte** per enum variant, making every frame self-describing;
//! - the [`Wire`] trait (`encode` into a caller-owned, reusable `Vec<u8>`;
//!   `decode` from a borrowing [`Reader`] cursor), implemented here for the
//!   primitive building blocks and by each crate for its own message types
//!   — with [`wire_struct!`] / [`wire_enum!`], from a single field list;
//! - strict error reporting: truncated or malformed input yields a
//!   [`WireError`], never a panic, and [`decode_exact`] rejects frames with
//!   trailing garbage;
//! - [`mini_json`], a tiny JSON *writer* used for experiment output files
//!   and as the size baseline in the codec benchmarks (the binary codec
//!   replaced JSON on the wire; the benches keep JSON around to measure the
//!   win).

#![warn(missing_docs)]

pub mod mini_json;

mod error;
mod frame;
mod macros;
mod primitives;
mod reader;
mod varint;

pub use error::WireError;
pub use frame::Frame;
pub use primitives::{bytes_len, put_bytes};
pub use reader::Reader;
pub use varint::{put_varint, varint_len, zigzag, zigzag_len};

/// A type that can be written to and read back from the binary wire format.
///
/// `encode` appends to a caller-supplied buffer so hot paths can reuse one
/// allocation across messages; `decode` consumes from a [`Reader`] cursor
/// and must leave it positioned exactly after the value.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Exact size of `encode`'s output in bytes.
    ///
    /// The default measures by encoding into a scratch buffer; the
    /// primitives and the [`wire_struct!`] / [`wire_enum!`] impls compute
    /// it arithmetically, and every type on a message path must. Used by
    /// the simnet's `α + β·|m|` accounting, so it must match `encode`
    /// byte-for-byte.
    fn encoded_len(&self) -> usize {
        let mut scratch = Vec::with_capacity(64);
        self.encode(&mut scratch);
        scratch.len()
    }
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.encoded_len());
    value.encode(&mut out);
    out
}

/// Decodes a value that must span exactly `bytes` — trailing bytes are an
/// error, so a frame cannot silently smuggle extra content.
pub fn decode_exact<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_exact_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        buf.push(0);
        match decode_exact::<u64>(&buf) {
            Err(WireError::TrailingBytes { count: 1 }) => {}
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }

    #[test]
    fn encoded_len_matches_encode_for_composites() {
        let v: Vec<String> = vec!["a".into(), "longer-string".into(), String::new()];
        assert_eq!(encode_to_vec(&v).len(), v.encoded_len());
    }
}
