//! The hybrid points-to set representation.
//!
//! The vast majority of points-to sets in real C programs are small (a
//! handful of allocation sites), while a few hub sets grow large.
//! [`HybridSet`] keeps small sets as an inline sorted `Vec<u32>` and
//! promotes to a [`SparseBitSet`] once the set outgrows
//! [`HybridSet::PROMOTE_AT`] elements.

use std::fmt;

use crate::bitset::{self, SparseBitSet};

/// A set of `u32` values optimized for the small-set common case.
///
/// # Examples
///
/// ```
/// use ddpa_support::HybridSet;
///
/// let mut s = HybridSet::new();
/// for v in [4, 2, 2, 9] {
///     s.insert(v);
/// }
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 4, 9]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum HybridSet {
    /// Sorted, deduplicated values.
    Small(Vec<u32>),
    /// Promoted representation for large sets.
    Large(SparseBitSet),
}

impl HybridSet {
    /// Small sets promote to the bitset representation past this size.
    pub const PROMOTE_AT: usize = 16;

    /// Creates an empty set.
    pub const fn new() -> Self {
        HybridSet::Small(Vec::new())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            HybridSet::Small(v) => v.len(),
            HybridSet::Large(b) => b.len(),
        }
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: u32) -> bool {
        match self {
            HybridSet::Small(v) => v.binary_search(&value).is_ok(),
            HybridSet::Large(b) => b.contains(value),
        }
    }

    fn promote(&mut self) {
        if let HybridSet::Small(v) = self {
            let bits: SparseBitSet = v.iter().copied().collect();
            *self = HybridSet::Large(bits);
        }
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        match self {
            HybridSet::Small(v) => match v.binary_search(&value) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, value);
                    if v.len() > Self::PROMOTE_AT {
                        self.promote();
                    }
                    true
                }
            },
            HybridSet::Large(b) => b.insert(value),
        }
    }

    /// Unions `other` into `self`, pushing each newly added value onto
    /// `delta`. Returns `true` if `self` changed.
    pub fn union_with_delta(&mut self, other: &HybridSet, delta: &mut Vec<u32>) -> bool {
        let before = delta.len();
        match other {
            HybridSet::Small(vals) => {
                for &v in vals {
                    if self.insert(v) {
                        delta.push(v);
                    }
                }
            }
            HybridSet::Large(bits) => match self {
                HybridSet::Large(mine) => {
                    mine.union_with_delta(bits, delta);
                }
                HybridSet::Small(_) => {
                    for v in bits.iter() {
                        if self.insert(v) {
                            delta.push(v);
                        }
                    }
                }
            },
        }
        delta.len() > before
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &HybridSet) -> bool {
        match (&mut *self, other) {
            (HybridSet::Large(mine), HybridSet::Large(theirs)) => mine.union_with(theirs),
            _ => {
                let mut changed = false;
                for v in other.iter() {
                    changed |= self.insert(v);
                }
                changed
            }
        }
    }

    /// Returns `true` if `self` and `other` share at least one element.
    pub fn intersects(&self, other: &HybridSet) -> bool {
        match (self, other) {
            (HybridSet::Large(a), HybridSet::Large(b)) => a.intersects(b),
            (HybridSet::Small(a), _) => a.iter().any(|&v| other.contains(v)),
            (_, HybridSet::Small(b)) => b.iter().any(|&v| self.contains(v)),
        }
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &HybridSet) -> bool {
        self.iter().all(|v| other.contains(v))
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        match self {
            HybridSet::Small(v) => Iter::Small(v.iter()),
            HybridSet::Large(b) => Iter::Large(b.iter()),
        }
    }

    /// Removes all elements, keeping the small representation.
    pub fn clear(&mut self) {
        *self = HybridSet::new();
    }

    /// Returns the single element if the set has exactly one.
    pub fn as_singleton(&self) -> Option<u32> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }
}

impl Default for HybridSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over a [`HybridSet`], produced by [`HybridSet::iter`].
#[derive(Clone, Debug)]
pub enum Iter<'a> {
    /// Iterating the inline representation.
    Small(std::slice::Iter<'a, u32>),
    /// Iterating the bitset representation.
    Large(bitset::Iter<'a>),
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Iter::Small(i) => i.next().copied(),
            Iter::Large(i) => i.next(),
        }
    }
}

impl<'a> IntoIterator for &'a HybridSet {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<u32>> for HybridSet {
    /// The set of `values`, taking the vector as it is when it is already
    /// strictly ascending: the same representation as inserting them.
    fn from(values: Vec<u32>) -> Self {
        if !values.windows(2).all(|w| w[0] < w[1]) {
            return values.into_iter().collect();
        }
        if values.len() <= Self::PROMOTE_AT {
            HybridSet::Small(values)
        } else {
            HybridSet::Large(values.into_iter().collect())
        }
    }
}

impl FromIterator<u32> for HybridSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = HybridSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<u32> for HybridSet {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl fmt::Debug for HybridSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_matches_inserting_each_value() {
        let cases: [Vec<u32>; 6] = [
            vec![],
            vec![3, 9, 40],
            vec![9, 3, 3],
            (0..16).collect(),
            (0..17).map(|v| v * 5).collect(),
            (0..40).rev().chain(0..40).collect(),
        ];
        for values in cases {
            let inserted: HybridSet = values.iter().copied().collect();
            assert_eq!(HybridSet::from(values.clone()), inserted, "{values:?}");
        }
    }

    #[test]
    fn stays_small_then_promotes() {
        let mut s = HybridSet::new();
        for v in 0..HybridSet::PROMOTE_AT as u32 {
            s.insert(v * 10);
        }
        assert!(matches!(s, HybridSet::Small(_)));
        s.insert(999);
        assert!(matches!(s, HybridSet::Large(_)));
        assert_eq!(s.len(), HybridSet::PROMOTE_AT + 1);
        assert!(s.contains(999));
        assert!(s.contains(0));
    }

    #[test]
    fn insert_is_sorted_and_dedup() {
        let mut s = HybridSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn union_with_delta_small_and_large() {
        let big: HybridSet = (0..40).collect();
        let mut s: HybridSet = [1, 2].into_iter().collect();
        let mut delta = Vec::new();
        assert!(s.union_with_delta(&big, &mut delta));
        assert_eq!(s.len(), 40);
        assert_eq!(delta.len(), 38);
        delta.clear();
        assert!(!s.union_with_delta(&big, &mut delta));
    }

    #[test]
    fn intersects_mixed_representations() {
        let big: HybridSet = (100..200).collect();
        let small: HybridSet = [5, 150].into_iter().collect();
        let disjoint: HybridSet = [1, 2].into_iter().collect();
        assert!(big.intersects(&small));
        assert!(small.intersects(&big));
        assert!(!big.intersects(&disjoint));
    }

    #[test]
    fn singleton_detection() {
        let mut s = HybridSet::new();
        assert_eq!(s.as_singleton(), None);
        s.insert(7);
        assert_eq!(s.as_singleton(), Some(7));
        s.insert(8);
        assert_eq!(s.as_singleton(), None);
    }

    #[test]
    fn subset_across_representations() {
        let big: HybridSet = (0..50).collect();
        let small: HybridSet = [3, 17, 42].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }
}
