//! String interning.
//!
//! Symbols (variable names, function names, field names) appear in many
//! places — the AST, the constraint program, diagnostics — so they are
//! interned once into a [`Symbol`] and compared by id afterwards.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

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
/// Every string lives in one arena buffer, back to back, so interning a
/// new name appends its bytes and allocates nothing of its own. Symbols
/// are found through one open-addressed, linearly probed table of symbol
/// ids. Its hash is a seeded [`RandomState`], not the fixed
/// [`FxHasher`](crate::fxhash::FxHasher): names come from clients, and a
/// fixed hash would let a crafted program collide every name into one
/// probe chain. Each new name is hashed once; the table keeps 32 bits of
/// that hash per slot, so growing it rehashes no string.
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
    /// Every interned string, in symbol order.
    arena: String,
    /// Where each symbol's text ends in `arena`; it starts where the
    /// previous symbol's ends.
    ends: IndexVec<Symbol, usize>,
    /// The probe table: a slot is empty (`0`) or holds the high 32 bits
    /// of its string's hash above `symbol + 1`. Its length is zero or a
    /// power of two, and it is at most half full. A string's probe starts
    /// at its hash bits modulo the length.
    slots: Vec<u64>,
    hasher: RandomState,
    /// Bit `n` is set once a string of `n` bytes was interned (never
    /// cleared), so a lookup of any other length hashes nothing — a name
    /// and its many prefixes cost one pass over the name, not one per
    /// prefix.
    lengths: Vec<u64>,
}

/// The fewest slots a non-empty table has.
const MIN_SLOTS: usize = 16;

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner sized for `symbols` strings of `bytes`
    /// bytes in all, so interning that much neither grows the table nor
    /// moves the arena.
    pub fn with_capacity(symbols: usize, bytes: usize) -> Self {
        let mut interner = Interner {
            arena: String::with_capacity(bytes),
            ends: IndexVec::with_capacity(symbols),
            ..Self::default()
        };
        interner.resize_table(symbols);
        interner
    }

    /// Interns `text`, returning its symbol. Idempotent.
    pub fn intern(&mut self, text: &str) -> Symbol {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.resize_table(self.len() + 1);
        }
        let tag = self.tag(text);
        let slot = match self.probe(text, tag) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let (word, bit) = (text.len() / 64, text.len() % 64);
        if word >= self.lengths.len() {
            self.lengths.resize(word + 1, 0);
        }
        self.lengths[word] |= 1 << bit;
        self.arena.push_str(text);
        let sym = self.ends.push(self.arena.len());
        self.slots[slot] = entry(tag, sym);
        sym
    }

    /// Returns the text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let start = match sym.as_u32() {
            0 => 0,
            n => self.ends[Symbol::from_u32(n - 1)],
        };
        &self.arena[start..self.ends[sym]]
    }

    /// Returns the symbol for `text` if it has been interned.
    pub fn lookup(&self, text: &str) -> Option<Symbol> {
        let (word, bit) = (text.len() / 64, text.len() % 64);
        if self.lengths.get(word).is_none_or(|w| w & (1 << bit) == 0) {
            return None;
        }
        self.probe(text, self.tag(text)).ok()
    }

    /// Forgets every string interned after the first `len`, so their
    /// symbols are unassigned again. Rebuilds the probe table from the
    /// hash bits it keeps.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let end = match len {
            0 => 0,
            n => self.ends[Symbol::from_u32(n as u32 - 1)],
        };
        self.arena.truncate(end);
        self.ends.truncate(len);
        self.rebuild(self.slots.len(), |sym| (sym.as_u32() as usize) < len);
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The 32 hash bits a slot keeps for `text`.
    fn tag(&self, text: &str) -> u32 {
        (self.hasher.hash_one(text) >> 32) as u32
    }

    /// `text`'s symbol, or the empty slot where its probe ended.
    fn probe(&self, text: &str, tag: u32) -> Result<Symbol, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if (slot >> 32) as u32 == tag {
                let sym = Symbol::from_u32(slot as u32 - 1);
                if self.resolve(sym) == text {
                    return Ok(sym);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Grows the table, if need be, to hold `symbols` at most half full.
    fn resize_table(&mut self, symbols: usize) {
        let want = (symbols * 2).next_power_of_two().max(MIN_SLOTS);
        if want > self.slots.len() {
            self.rebuild(want, |_| true);
        }
    }

    /// Replaces the table with one of `len` slots holding the entries
    /// whose symbol `keep` accepts.
    fn rebuild(&mut self, len: usize, keep: impl Fn(Symbol) -> bool) {
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            if !keep(Symbol::from_u32(slot as u32 - 1)) {
                continue;
            }
            let mut at = (slot >> 32) as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

/// The slot for `sym`, whose string's tag is `tag`.
fn entry(tag: u32, sym: Symbol) -> u64 {
    (u64::from(tag) << 32) | u64::from(sym.as_u32() + 1)
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
    fn many_strings_survive_growth_and_truncation() {
        let mut i = Interner::with_capacity(4, 8);
        let names: Vec<String> = (0..5000).map(|n| format!("v{n}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| i.intern(n)).collect();
        for (name, &sym) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(sym), name);
            assert_eq!(i.intern(name), sym);
        }
        i.truncate(1234);
        for (k, name) in names.iter().enumerate() {
            assert_eq!(i.lookup(name), (k < 1234).then_some(syms[k]), "{name}");
        }
        assert_eq!(i.intern("v4999").as_u32(), 1234);
        assert_eq!(i.resolve(syms[1233]), "v1233");
    }

    #[test]
    fn symbols_do_not_depend_on_the_hash_seed() {
        let names = ["b", "a", "b", "", "c", "a"];
        let ids = |mut i: Interner| names.map(|n| i.intern(n).as_u32());
        assert_eq!(ids(Interner::new()), [0, 1, 0, 2, 3, 1]);
        assert_eq!(ids(Interner::new()), ids(Interner::with_capacity(100, 100)));
    }

    #[test]
    fn lookup_only_finds_interned() {
        let mut i = Interner::new();
        assert!(i.lookup("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.lookup("present"), Some(s));
    }
}
