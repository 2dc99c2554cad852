//! String interning.
//!
//! Symbols (variable names, function names, field names) appear in many
//! places — the AST, the constraint program, diagnostics — so they are
//! interned once into a [`Symbol`] and compared by id afterwards.

use std::collections::HashMap;
use std::sync::Arc;

use crate::define_index;
use crate::idx::IndexVec;

define_index! {
    /// An interned string.
    ///
    /// Obtained from [`Interner::intern`]; resolved back to text with
    /// [`Interner::resolve`].
    pub struct Symbol;
}

/// A deduplicating store of strings.
///
/// # Examples
///
/// ```
/// use ddpa_support::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("main");
/// let b = interner.intern("main");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "main");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// Each string is allocated once, shared by its slot and its map key.
    strings: IndexVec<Symbol, Arc<str>>,
    map: HashMap<Arc<str>, Symbol>,
    /// Bit `n` is set once a string of `n` bytes was interned (never
    /// cleared), so a lookup of any other length hashes nothing — a name
    /// and its many prefixes cost one pass over the name, not one per
    /// prefix.
    lengths: Vec<u64>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `text`, returning its symbol. Idempotent.
    pub fn intern(&mut self, text: &str) -> Symbol {
        if let Some(&sym) = self.map.get(text) {
            return sym;
        }
        let (word, bit) = (text.len() / 64, text.len() % 64);
        if word >= self.lengths.len() {
            self.lengths.resize(word + 1, 0);
        }
        self.lengths[word] |= 1 << bit;
        let shared: Arc<str> = text.into();
        let sym = self.strings.push(Arc::clone(&shared));
        self.map.insert(shared, sym);
        sym
    }

    /// Returns the text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym]
    }

    /// Returns the symbol for `text` if it has been interned.
    pub fn lookup(&self, text: &str) -> Option<Symbol> {
        let (word, bit) = (text.len() / 64, text.len() % 64);
        if self.lengths.get(word).is_none_or(|w| w & (1 << bit) == 0) {
            return None;
        }
        self.map.get(text).copied()
    }

    /// Forgets every string interned after the first `len`, so their
    /// symbols are unassigned again.
    pub fn truncate(&mut self, len: usize) {
        for text in &self.strings.as_slice()[len.min(self.strings.len())..] {
            self.map.remove(text);
        }
        self.strings.truncate(len);
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        let a2 = i.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = Interner::new();
        let names = ["alpha", "beta", "gamma", ""];
        let syms: Vec<_> = names.iter().map(|n| i.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), *name);
        }
    }

    #[test]
    fn truncate_forgets_later_strings() {
        let mut i = Interner::new();
        let a = i.intern("a");
        i.intern("b");
        i.truncate(1);
        assert_eq!(i.len(), 1);
        assert_eq!(i.lookup("a"), Some(a));
        assert!(i.lookup("b").is_none());
        assert_eq!(i.intern("c").as_u32(), 1, "the freed symbol is reused");
    }

    #[test]
    fn lookup_only_finds_interned() {
        let mut i = Interner::new();
        assert!(i.lookup("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.lookup("present"), Some(s));
    }
}
