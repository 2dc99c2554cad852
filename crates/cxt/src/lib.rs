//! Context-sensitivity via bounded call-string cloning.
//!
//! The PLDI 2001 analysis is context-insensitive (CI): all calls to a
//! function merge their arguments, so `id(&a); id(&b)` makes *both* call
//! results point to `{a, b}`. The classic remedy — and the standard
//! extension in the paper's line of work — is **k-limited call-string
//! context-sensitivity**, realized here by the equally classic *cloning*
//! construction:
//!
//! 1. resolve the (CI) call graph — itself a demand-driven client;
//! 2. enumerate, per function, the reachable call strings of length ≤ k
//!    (the *contexts*), with a global clone budget that gracefully merges
//!    overflow into the context-free clone;
//! 3. clone each function's locals, temporaries, formals, return slot
//!    (and optionally heap sites) per context, instantiate its constraints
//!    per clone, and retarget every call site to the callee clone selected
//!    by pushing the site onto the caller's context;
//! 4. run **any** existing engine — exhaustive or demand — on the expanded
//!    program, and project answers back through the clone maps.
//!
//! Because the output is an ordinary
//! [`ConstraintProgram`](ddpa_constraints::ConstraintProgram), the demand
//! engine, budgets, memoization, tracing, and every client work on it
//! unchanged — context-sensitivity composes with the whole stack.
//!
//! Precision never degrades: the projected context-sensitive solution is
//! a subset of the CI solution on every node (property-tested), and the
//! construction is sound for the same reason function inlining is.
//!
//! # Examples
//!
//! ```
//! use ddpa_cxt::{CloneConfig, CsAnalysis};
//!
//! let src = r#"
//!     int a; int b;
//!     int *id(int *p) { return p; }
//!     void main() {
//!         int *r1 = id(&a);
//!         int *r2 = id(&b);
//!     }
//! "#;
//! let program = ddpa_ir::parse(src)?;
//! let cp = ddpa_constraints::lower(&program)?;
//! let r1 = cp.node_ids().find(|&n| cp.display_node(n) == "main::r1").expect("r1");
//!
//! // Context-insensitive: r1 points to both a and b.
//! let ci = ddpa_anders::solve(&cp);
//! assert_eq!(ci.pts(r1).len(), 2);
//!
//! // k=1 call-string sensitivity: r1 points to a only.
//! let cs = CsAnalysis::run(&cp, &CloneConfig::with_k(1));
//! assert_eq!(cs.pts_of(r1).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod clone;
pub mod context;

pub use analysis::CsAnalysis;
pub use clone::{clone_expand, CloneConfig, ClonedProgram};
pub use context::{Context, ContextTable, CtxId};
