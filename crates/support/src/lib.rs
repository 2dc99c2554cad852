//! Foundation data structures shared by every crate in the `ddpa` workspace.
//!
//! This crate contains no pointer-analysis logic. It provides the small,
//! deterministic building blocks the analyses are made of:
//!
//! * [`idx`] — strongly typed `u32` index newtypes ([`define_index!`]) and
//!   the dense [`IndexVec`] keyed by them;
//! * [`fxhash`] — a fixed multiply–rotate hasher for tables keyed by ids
//!   the program mints itself;
//! * [`intern`] — a string interner for symbol names;
//! * [`rng`] — a seeded, dependency-free xoshiro256++ generator used by
//!   the workload generators and property tests;
//! * [`bitset`] — a sorted, chunked [`SparseBitSet`] over `u32` keys;
//! * [`hybrid`] — [`HybridSet`], the points-to set representation (inline
//!   sorted array for small sets, sparse bitset for large ones);
//! * [`unionfind`] — union-find with path compression (used for online
//!   cycle collapsing in the exhaustive solver);
//! * [`scc`] — iterative Tarjan strongly-connected components;
//! * [`stats`] — counters, timers and percentile summaries used by the
//!   evaluation harness.
//!
//! Everything here iterates in a deterministic order so that analyses and
//! generated workloads are reproducible byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use ddpa_support::hybrid::HybridSet;
//!
//! let mut pts = HybridSet::new();
//! assert!(pts.insert(7));
//! assert!(!pts.insert(7));
//! assert!(pts.contains(7));
//! assert_eq!(pts.iter().collect::<Vec<_>>(), vec![7]);
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod fxhash;
pub mod hybrid;
pub mod idx;
pub mod intern;
pub mod rng;
pub mod scc;
pub mod stats;
pub mod unionfind;

pub use bitset::SparseBitSet;
pub use fxhash::FxHashSet;
pub use hybrid::HybridSet;
pub use idx::{Idx, IndexVec};
pub use intern::{Interner, Symbol};
pub use rng::Rng;
pub use stats::Summary;
pub use unionfind::UnionFind;
