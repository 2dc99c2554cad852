//! The constraint program: the shared substrate of all `ddpa` analyses.
//!
//! Following the PLDI 2001 formulation, a program is abstracted to a set of
//! *abstract locations* (named variables, compiler temporaries, heap
//! allocation sites, functions, formals and return slots — one uniform
//! [`NodeId`] space) and four primitive assignment forms over them:
//!
//! | constraint        | C syntax  | meaning                                  |
//! |-------------------|-----------|------------------------------------------|
//! | [`AddrOf`]        | `x = &y`  | `y ∈ pts(x)`                             |
//! | [`Assign`]        | `x = y`   | `pts(x) ⊇ pts(y)`                        |
//! | [`Load`]          | `x = *y`  | `∀o ∈ pts(y): pts(x) ⊇ pts(o)`           |
//! | [`Store`]         | `*x = y`  | `∀o ∈ pts(x): pts(o) ⊇ pts(y)`           |
//!
//! plus [`CallSite`]s, whose argument/return copies are wired by the
//! analyses themselves so that indirect calls can be resolved *during*
//! analysis (the on-the-fly call graph).
//!
//! The crate provides:
//!
//! * [`model`] — ids and metadata for locations, functions, call sites;
//! * [`program`] — [`ConstraintProgram`] (fully indexed) and its
//!   [`ConstraintBuilder`];
//! * [`mod@lower`] — lowering from the MiniC AST ([`ddpa_ir`]), normalizing
//!   arbitrary dereference chains with temporaries;
//! * [`text`] — a small textual constraint format (parse, append & print),
//!   useful for tests, the CLI, constraint dumps and incremental edits;
//! * [`dot`] — Graphviz export of the constraint graph;
//! * [`stats`] — program characteristic counts (the paper's "benchmark
//!   characteristics" table).
//!
//! # Examples
//!
//! ```
//! let program = ddpa_ir::parse("int g; void main() { int *p = &g; int *q = p; }")?;
//! let cp = ddpa_constraints::lower(&program)?;
//! assert_eq!(cp.addr_ofs().len(), 1);
//! assert_eq!(cp.copies().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod diff;
pub mod dot;
pub mod lower;
pub mod model;
pub mod program;
pub mod stats;
pub mod text;

pub use diff::{diff_programs, ProgramDiff};
pub use dot::to_dot;
pub use lower::{lower, lower_with_obs, LowerError};
pub use model::{CallSite, CallSiteId, CalleeRef, FuncId, FuncInfo, NodeId, NodeInfo, NodeKind};
pub use program::{AddrOf, Assign, ConstraintBuilder, ConstraintProgram, FieldAddr, Load, Store};
pub use stats::ProgramStats;
pub use text::{
    append_constraints, has_declarations, parse_constraints, print_constraints, TextError,
};
