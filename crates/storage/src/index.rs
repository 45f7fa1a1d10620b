//! The two secondary indexes of §5, shared by the stores that keep them.
//!
//! [`HashIndex`] (dictionary queries) backs [`HashStore`](crate::HashStore)
//! and [`MultiStore`](crate::MultiStore); [`OrderedIndex`] (dictionary and
//! range queries) backs [`OrderedStore`](crate::OrderedStore) and
//! `MultiStore`. Both map an object's full field tuple to its [`Rank`]s, so
//! the oldest of several equal objects is always the first rank found.
//! Every shape an index cannot serve goes to [`Entries::find_oldest`].

use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

use paso_types::{FieldMatcher, SearchCriterion, Value};

use crate::entries::{Entries, Probe};
use crate::store::Rank;

/// The field tuple a fully exact criterion (a `QueryKind::Dictionary`
/// query) matches, or `None` if some matcher is not exact.
pub(crate) fn dictionary_key(sc: &SearchCriterion) -> Option<Vec<Value>> {
    sc.template()
        .matchers()
        .iter()
        .map(|m| m.exact_value().cloned())
        .collect()
}

/// Full field tuple → ranks of equal objects, oldest first.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex(HashMap<Vec<Value>, BTreeSet<Rank>>);

impl HashIndex {
    pub fn build(entries: &Entries) -> Self {
        let mut index = HashIndex::default();
        for (rank, obj) in entries.iter() {
            index.insert(obj.fields().to_vec(), rank);
        }
        index
    }

    pub fn insert(&mut self, key: Vec<Value>, rank: Rank) {
        self.0.entry(key).or_default().insert(rank);
    }

    pub fn remove(&mut self, key: &[Value], rank: Rank) {
        if let Some(set) = self.0.get_mut(key) {
            set.remove(&rank);
            if set.is_empty() {
                self.0.remove(key);
            }
        }
    }

    /// The oldest object whose fields equal `key`, in one probe.
    pub fn oldest(&self, key: &[Value]) -> Option<Rank> {
        self.0.get(key).and_then(|set| set.first().copied())
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// `(full field tuple, rank)`, ordered lexicographically.
#[derive(Debug, Clone, Default)]
pub(crate) struct OrderedIndex(BTreeSet<(Vec<Value>, Rank)>);

impl OrderedIndex {
    pub fn build(entries: &Entries) -> Self {
        OrderedIndex(
            entries
                .iter()
                .map(|(rank, obj)| (obj.fields().to_vec(), rank))
                .collect(),
        )
    }

    pub fn insert(&mut self, key: Vec<Value>, rank: Rank) {
        self.0.insert((key, rank));
    }

    pub fn remove(&mut self, key: Vec<Value>, rank: Rank) {
        self.0.remove(&(key, rank));
    }

    /// The oldest object whose fields equal `key`.
    pub fn oldest(&self, key: Vec<Value>) -> Option<Rank> {
        self.0
            .range((key.clone(), Rank(0))..=(key, Rank(u64::MAX)))
            .map(|(_, rank)| *rank)
            .next()
    }

    /// The oldest match for a `QueryKind::Range` criterion (exact prefix,
    /// one range, then anything), positioned in the index and walking only
    /// the in-range segment, plus the number of entries walked. Excluded
    /// lower bounds are left to the template check, which keeps bound
    /// construction simple.
    ///
    /// `None` when `sc` has no range after its exact prefix, or when the
    /// index names a rank `entries` lacks; the caller then falls back to
    /// the scan, which answers every criterion correctly.
    pub fn oldest_in_range(
        &self,
        entries: &Entries,
        sc: &SearchCriterion,
    ) -> Option<(Option<Rank>, u64)> {
        let ms = sc.template().matchers();
        let k = ms.iter().take_while(|m| m.is_exact()).count();
        let FieldMatcher::Range { lo, hi } = ms.get(k)? else {
            return None;
        };
        let prefix: Vec<Value> = ms[..k]
            .iter()
            .filter_map(|m| m.exact_value().cloned())
            .collect();
        let mut start = prefix.clone();
        if let Bound::Included(v) | Bound::Excluded(v) = lo {
            start.push(v.clone());
        }
        let probe = Probe::new(sc);
        let mut inspected = 0u64;
        let mut best: Option<Rank> = None;
        for (fields, rank) in self.0.range((start, Rank(0))..) {
            // Past the exact prefix → no further entry can match.
            if fields.len() < k || fields[..k] != prefix[..] {
                break;
            }
            // Past the range's upper bound on the key field → done.
            if let Some(v) = fields.get(k) {
                let beyond = match hi {
                    Bound::Included(h) => v > h,
                    Bound::Excluded(h) => v >= h,
                    Bound::Unbounded => false,
                };
                if beyond {
                    break;
                }
            }
            inspected += 1;
            if best.is_none_or(|b| *rank < b) && entries.accepts(*rank, &probe)? {
                best = Some(*rank);
            }
        }
        Some((best, inspected))
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{ObjectId, PasoObject, ProcessId, Template};

    fn entries(values: &[i64]) -> Entries {
        let mut e = Entries::default();
        for (seq, n) in values.iter().enumerate() {
            e.push(PasoObject::new(
                ObjectId::new(ProcessId(0), seq as u64),
                vec![Value::Int(*n)],
            ));
        }
        e
    }

    #[test]
    fn dictionary_key_needs_every_field_exact() {
        let exact = SearchCriterion::from(Template::exact(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(
            dictionary_key(&exact),
            Some(vec![Value::Int(1), Value::Int(2)])
        );
        let empty = SearchCriterion::from(Template::exact(vec![]));
        assert_eq!(dictionary_key(&empty), Some(vec![]));
        let wild = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::Int(1)),
            FieldMatcher::Any,
        ]));
        assert_eq!(dictionary_key(&wild), None);
    }

    #[test]
    fn range_lookup_declines_criteria_without_a_range() {
        let e = entries(&[1, 2, 3]);
        let index = OrderedIndex::build(&e);
        for sc in [
            SearchCriterion::from(Template::wildcard(1)),
            SearchCriterion::from(Template::exact(vec![Value::Int(2)])),
        ] {
            assert_eq!(index.oldest_in_range(&e, &sc), None, "{sc}");
        }
        let range = SearchCriterion::from(Template::new(vec![FieldMatcher::between(2, 9)]));
        let (best, inspected) = index.oldest_in_range(&e, &range).unwrap();
        assert_eq!(
            best.and_then(|r| e.get(r)).map(|o| o.fields()),
            Some(&[Value::Int(2)][..])
        );
        assert_eq!(inspected, 2);
    }

    #[test]
    fn range_lookup_declines_an_index_out_of_step_with_its_entries() {
        let e = entries(&[1, 2]);
        let mut index = OrderedIndex::build(&e);
        // Older than every pushed rank, so it would be the answer.
        index.insert(vec![Value::Int(1)], Rank::new(0, 0));
        let range = SearchCriterion::from(Template::new(vec![FieldMatcher::between(0, 9)]));
        assert_eq!(index.oldest_in_range(&e, &range), None);
    }
}
