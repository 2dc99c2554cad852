//! `ddpa` — a reproduction of *Demand-Driven Pointer Analysis* (PLDI 2001)
//! in Rust.
//!
//! This facade crate re-exports the whole workspace as one dependency:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ir`] | `ddpa-ir` | MiniC frontend: lexer, parser, checker, printer |
//! | [`constraints`] | `ddpa-constraints` | abstract locations, primitive constraints, lowering, text format |
//! | [`anders`] | `ddpa-anders` | exhaustive (whole-program) Andersen baseline |
//! | [`demand`] | `ddpa-demand` | **the paper**: goal-directed demand-driven analysis with memoization and budgets |
//! | [`clients`] | `ddpa-callgraph` | call-graph, reachability, dereference-audit clients |
//! | [`gen`] | `ddpa-gen` | deterministic workload generators and the benchmark suite |
//! | [`cxt`] | `ddpa-cxt` | context-sensitivity via bounded call-string cloning |
//! | [`snap`] | `ddpa-snap` | durable memo snapshots: versioned binary format, warm-start restore |
//! | [`support`] | `ddpa-support` | sets, indices, interner, SCC, union-find |
//!
//! # Quick start
//!
//! ```
//! use ddpa::demand::{DemandConfig, DemandEngine};
//!
//! // 1. Parse a C-like program.
//! let source = r#"
//!     int g;
//!     int *id(int *p) { return p; }
//!     void main() {
//!         int *x = &g;
//!         int *y = id(x);
//!     }
//! "#;
//! let program = ddpa::ir::parse(source)?;
//!
//! // 2. Check it and lower it to primitive pointer constraints.
//! let cp = ddpa::constraints::lower(&program)?;
//!
//! // 3. Ask a single points-to query on demand.
//! let y = cp.node_ids().find(|&n| cp.display_node(n) == "main::y").expect("y exists");
//! let mut engine = DemandEngine::new(&cp, DemandConfig::default());
//! let answer = engine.points_to(y);
//! assert!(answer.complete);
//! assert_eq!(cp.display_node(answer.pts[0]), "g");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

/// MiniC frontend (re-export of `ddpa-ir`).
pub use ddpa_ir as ir;

/// Constraint model and lowering (re-export of `ddpa-constraints`).
pub use ddpa_constraints as constraints;

/// Exhaustive Andersen baseline (re-export of `ddpa-anders`).
pub use ddpa_anders as anders;

/// Demand-driven analysis (re-export of `ddpa-demand`).
pub use ddpa_demand as demand;

/// Analysis clients (re-export of `ddpa-callgraph`).
pub use ddpa_callgraph as clients;

/// Workload generators (re-export of `ddpa-gen`).
pub use ddpa_gen as gen;

/// Context-sensitivity via call-string cloning (re-export of `ddpa-cxt`).
pub use ddpa_cxt as cxt;

/// Foundation data structures (re-export of `ddpa-support`).
pub use ddpa_support as support;

/// Metrics, span profiling and JSONL export (re-export of `ddpa-obs`).
pub use ddpa_obs as obs;

/// Persistent demand-query server and client (re-export of `ddpa-serve`).
pub use ddpa_serve as serve;

/// Durable memo snapshots and warm-start restore (re-export of `ddpa-snap`).
pub use ddpa_snap as snap;

/// Convenience: parse MiniC source, then check and lower it
/// ([`constraints::lower()`]).
///
/// # Errors
///
/// Returns the parse error or every check error as a boxed error.
///
/// # Examples
///
/// ```
/// let cp = ddpa::compile("int g; void main() { int *p = &g; }")?;
/// assert_eq!(cp.addr_ofs().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(source: &str) -> Result<constraints::ConstraintProgram, Box<dyn std::error::Error>> {
    Ok(constraints::lower(&ir::parse(source)?)?)
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_pipeline() {
        let cp = crate::compile("int g; void main() { int *p = &g; }").expect("compiles");
        assert_eq!(cp.num_constraints(), 1);
    }

    #[test]
    fn compile_reports_check_errors() {
        let err = crate::compile("void main() { x = null; }").expect_err("undeclared");
        assert!(err.to_string().contains("undeclared"));
    }
}
