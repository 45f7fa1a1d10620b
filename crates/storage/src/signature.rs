//! Per-object field signatures for the scan filter.
//!
//! Each stored object carries a 64-bit *field signature*: two bits per
//! `(position, value)`, derived from [`stable_field_hash`]. `Entries` keeps
//! it beside the object, and a scan tests `sig & mask == mask` against the
//! criterion's exact fields before it runs the full template comparison.
//! `Value`'s `Hash` agrees with its `Eq`, so the test never rejects a
//! match.

use paso_types::{stable_field_hash, PasoObject, SearchCriterion};

/// The two field-signature bits for one fingerprint hash, taken from the
/// hash's two most-mixed 6-bit groups (FNV-1a carries entropy upwards).
fn signature_bits(hash: u64) -> u64 {
    (1u64 << (hash >> 58)) | (1u64 << ((hash >> 52) & 63))
}

/// The signature of `obj`: the union of the bits of all its fields.
pub(crate) fn object_signature(obj: &PasoObject) -> u64 {
    obj.fields().iter().enumerate().fold(0, |sig, (i, v)| {
        sig | signature_bits(stable_field_hash(i, v))
    })
}

/// The signature bits every object matching `sc` must carry: the union of
/// the bits of its `FieldMatcher::Exact` fields (0 if it has none).
pub(crate) fn criterion_signature(sc: &SearchCriterion) -> u64 {
    sc.template()
        .matchers()
        .iter()
        .enumerate()
        .filter_map(|(i, m)| {
            m.exact_value()
                .map(|v| signature_bits(stable_field_hash(i, v)))
        })
        .fold(0, |mask, bits| mask | bits)
}
