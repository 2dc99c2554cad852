//! Deterministic workload generators and the synthetic benchmark suite.
//!
//! The original evaluation ran on a corpus of large C programs that is not
//! available here; this crate substitutes *generated* workloads whose
//! constraint-mix statistics span the same size range (10³–10⁶ primitive
//! assignments) and whose structure exercises the same analysis behaviours
//! (copy chains, load/store indirection, function-pointer tables, value
//! cycles). See `DESIGN.md` for the substitution argument.
//!
//! * [`random`] — seeded random constraint programs with a configurable
//!   mix and locality;
//! * [`cyclic`] — cycle-dominated programs (copy rings) for the online
//!   cycle-collapsing experiment (bench table T6);
//! * [`minic`] — structured MiniC source programs (layered call graphs,
//!   function-pointer dispatch tables), exercised through the full
//!   parse → check → lower pipeline;
//! * [`wide`] — wide independent-chain programs maximizing single-query
//!   parallel headroom (bench table T10);
//! * [`mod@suite`] — the named benchmark suite used by every experiment.
//!
//! All generators take explicit seeds; the same seed reproduces the same
//! program byte-for-byte.

#![forbid(unsafe_code)]

pub mod cyclic;
pub mod minic;
pub mod random;
pub mod suite;
pub mod wide;

pub use cyclic::{generate_cyclic, CyclicConfig};
pub use minic::{generate_minic, MiniCConfig};
pub use random::{generate_random, RandomConfig};
pub use suite::{quick_suite, suite, Benchmark, WorkloadKind};
pub use wide::{generate_wide, WideConfig};
