//! Exhaustive (whole-program) Andersen-style pointer analysis.
//!
//! This crate is the *baseline* the PLDI 2001 paper compares against: the
//! classical inclusion-based, flow- and context-insensitive analysis that
//! computes the points-to set of **every** location, with indirect calls
//! resolved on the fly.
//!
//! Three solvers are provided:
//!
//! * [`naive::solve`] — a direct iterate-until-fixpoint evaluation of the
//!   inclusion rules. Quadratic and only used as a differential-testing
//!   oracle.
//! * [`worklist::solve`] — the production solver: difference propagation
//!   over an explicit copy-edge graph that grows as loads, stores and
//!   indirect calls resolve, with optional periodic cycle collapsing
//!   ([`SolverConfig::cycle_elimination`]) using union-find.
//! * [`wave::solve`] — a wave-propagation variant: per round, collapse
//!   cycles, sweep sets in topological order, then grow the graph from
//!   the complex constraints. An independently-derived scheme used as a
//!   differential-testing oracle.
//!
//! All three produce a [`Solution`], which answers `pts(v)` for every
//! node and records the resolved targets of every call site.
//!
//! # Examples
//!
//! ```
//! let program = ddpa_ir::parse("int g; void main() { int *p = &g; int *q = p; }")?;
//! let cp = ddpa_constraints::lower(&program)?;
//! let solution = ddpa_anders::solve(&cp);
//! let q = cp.node_ids().find(|&n| cp.display_node(n) == "main::q").expect("q exists");
//! let g = cp.node_ids().find(|&n| cp.display_node(n) == "g").expect("g exists");
//! assert!(solution.points_to(q, g));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod naive;
pub mod solution;
pub mod wave;
pub mod worklist;

pub use solution::Solution;
pub use worklist::{SolveStats, SolverConfig};

use ddpa_constraints::ConstraintProgram;

/// Solves `cp` exhaustively with the default (worklist) solver.
pub fn solve(cp: &ConstraintProgram) -> Solution {
    worklist::solve(cp, &SolverConfig::default()).0
}

/// Like [`solve`], but publishes work counters and phase timings into
/// `obs` (see [`worklist::solve_with_obs`]).
pub fn solve_with_obs(cp: &ConstraintProgram, obs: &ddpa_obs::Obs) -> Solution {
    worklist::solve_with_obs(cp, &SolverConfig::default(), obs).0
}
