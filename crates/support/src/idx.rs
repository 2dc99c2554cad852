//! Strongly typed index newtypes and dense maps keyed by them.
//!
//! Pointer analysis juggles several id spaces (nodes, constraints, call
//! sites, functions, …). Mixing them up is a classic source of subtle bugs,
//! so each id space gets its own `u32` newtype via [`crate::define_index!`], and
//! dense per-id storage uses [`IndexVec`] which only accepts the matching
//! index type.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A strongly typed dense index.
///
/// Implemented by the newtypes produced by [`crate::define_index!`]. The contract
/// is that `Self::new(i).index() == i` for all `i < u32::MAX as usize`.
pub trait Idx: Copy + Eq + Ord + Hash + fmt::Debug + 'static {
    /// Creates the index from a raw position.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `u32`.
    fn new(value: usize) -> Self;

    /// Returns the raw position of this index.
    fn index(self) -> usize;
}

/// Defines a `u32` index newtype implementing [`Idx`].
///
/// # Examples
///
/// ```
/// use ddpa_support::define_index;
/// use ddpa_support::idx::Idx;
///
/// define_index! {
///     /// Identifies a widget.
///     pub struct WidgetId;
/// }
///
/// let w = WidgetId::new(3);
/// assert_eq!(w.index(), 3);
/// assert_eq!(format!("{w}"), "3");
/// ```
#[macro_export]
macro_rules! define_index {
    ($(#[$meta:meta])* $vis:vis struct $name:ident;) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(u32);

        impl $name {
            /// Creates the index from a raw `u32`.
            #[inline]
            $vis const fn from_u32(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw `u32` value.
            #[inline]
            #[allow(dead_code)]
            $vis const fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl $crate::idx::Idx for $name {
            #[inline]
            fn new(value: usize) -> Self {
                assert!(value < u32::MAX as usize, "index overflow");
                Self(value as u32)
            }

            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

/// A dense vector keyed by a typed index.
///
/// # Examples
///
/// ```
/// use ddpa_support::{define_index, IndexVec};
/// use ddpa_support::idx::Idx;
///
/// define_index! { pub struct NodeId; }
///
/// let mut names: IndexVec<NodeId, &str> = IndexVec::new();
/// let a = names.push("a");
/// let b = names.push("b");
/// assert_eq!(names[a], "a");
/// assert_eq!(names[b], "b");
/// assert_eq!(names.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IndexVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx, T> IndexVec<I, T> {
    /// Creates an empty `IndexVec`.
    pub const fn new() -> Self {
        Self {
            raw: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty `IndexVec` with the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            raw: Vec::with_capacity(capacity),
            _marker: PhantomData,
        }
    }

    /// Creates an `IndexVec` holding `n` clones of `value`.
    pub fn from_elem(value: T, n: usize) -> Self
    where
        T: Clone,
    {
        Self {
            raw: vec![value; n],
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Returns `true` if the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Appends an element, returning its index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::new(self.raw.len());
        self.raw.push(value);
        idx
    }

    /// Returns the index the next `push` will use.
    pub fn next_index(&self) -> I {
        I::new(self.raw.len())
    }

    /// Returns a reference to the element at `index`, if in bounds.
    pub fn get(&self, index: I) -> Option<&T> {
        self.raw.get(index.index())
    }

    /// Returns a mutable reference to the element at `index`, if in bounds.
    pub fn get_mut(&mut self, index: I) -> Option<&mut T> {
        self.raw.get_mut(index.index())
    }

    /// Iterates over the elements in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates mutably over the elements in index order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// Iterates over `(index, &element)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, t)| (I::new(i), t))
    }

    /// Iterates over all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len()).map(I::new)
    }

    /// Shortens the vector to its first `n` elements (no-op when it is
    /// not longer).
    pub fn truncate(&mut self, n: usize) {
        self.raw.truncate(n);
    }

    /// Grows the vector to `n` elements by cloning `value`.
    pub fn resize(&mut self, n: usize, value: T)
    where
        T: Clone,
    {
        self.raw.resize(n, value);
    }

    /// Ensures index `index` is valid, filling with `fill()` as needed,
    /// then returns a mutable reference to the element.
    pub fn ensure(&mut self, index: I, mut fill: impl FnMut() -> T) -> &mut T {
        while self.raw.len() <= index.index() {
            self.raw.push(fill());
        }
        &mut self.raw[index.index()]
    }

    /// Returns the underlying storage as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.raw
    }
}

impl<I: Idx, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Idx, T: fmt::Debug> fmt::Debug for IndexVec<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.raw.iter()).finish()
    }
}

impl<I: Idx, T> Index<I> for IndexVec<I, T> {
    type Output = T;

    fn index(&self, index: I) -> &T {
        &self.raw[index.index()]
    }
}

impl<I: Idx, T> IndexMut<I> for IndexVec<I, T> {
    fn index_mut(&mut self, index: I) -> &mut T {
        &mut self.raw[index.index()]
    }
}

impl<I: Idx, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        Self {
            raw: Vec::from_iter(iter),
            _marker: PhantomData,
        }
    }
}

impl<I: Idx, T> Extend<T> for IndexVec<I, T> {
    fn extend<It: IntoIterator<Item = T>>(&mut self, iter: It) {
        self.raw.extend(iter);
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IndexVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_index! {
        /// Test index.
        pub struct TestId;
    }

    #[test]
    fn push_and_index() {
        let mut v: IndexVec<TestId, i32> = IndexVec::new();
        let a = v.push(10);
        let b = v.push(20);
        assert_eq!(v[a], 10);
        assert_eq!(v[b], 20);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn enumerated_matches_indices() {
        let v: IndexVec<TestId, char> = "abc".chars().collect();
        let pairs: Vec<_> = v.iter_enumerated().map(|(i, c)| (i.index(), *c)).collect();
        assert_eq!(pairs, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn ensure_grows() {
        let mut v: IndexVec<TestId, i32> = IndexVec::new();
        *v.ensure(TestId::from_u32(3), || 0) = 7;
        assert_eq!(v.len(), 4);
        assert_eq!(v[TestId::from_u32(3)], 7);
        assert_eq!(v[TestId::from_u32(0)], 0);
    }

    #[test]
    fn display_and_debug() {
        let t = TestId::from_u32(5);
        assert_eq!(format!("{t}"), "5");
        assert_eq!(format!("{t:?}"), "TestId(5)");
    }

    #[test]
    fn next_index_is_stable() {
        let mut v: IndexVec<TestId, u8> = IndexVec::new();
        let next = v.next_index();
        let pushed = v.push(1);
        assert_eq!(next, pushed);
    }
}
