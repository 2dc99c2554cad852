//! Clients of the pointer analyses.
//!
//! The PLDI 2001 paper motivates demand-driven analysis with a concrete
//! compiler client: **resolving indirect function calls** to build a
//! precise call graph, where only the function-pointer expressions at
//! indirect call sites need points-to information. This crate implements
//! that client against both engines, plus two further clients that consume
//! the call graph and per-pointer queries:
//!
//! * [`callgraph`] — call-graph construction ([`CallGraph`]), from the
//!   exhaustive solution or on demand with a per-query budget;
//! * [`reach`] — function reachability / dead-function detection over a
//!   call graph (a linker's whole-program view);
//! * [`mod@deref`] — dereference-site auditing: call sites of loads/stores
//!   whose pointer has an empty (wild) or singleton points-to set;
//! * [`stackret`] — stack-return detection: functions that may return a
//!   pointer into their own (popped) stack frame.
//!
//! # Examples
//!
//! ```
//! use ddpa_demand::{DemandConfig, DemandEngine};
//!
//! let src = r#"
//!     void a() { }
//!     void b() { }
//!     void main(int x) {
//!         void *fp;
//!         if (x == 0) fp = a; else fp = b;
//!         (*fp)();
//!     }
//! "#;
//! let cp = ddpa_constraints::lower(&ddpa_ir::parse(src)?)?;
//! let mut engine = DemandEngine::new(&cp, DemandConfig::default());
//! let (cg, stats) = ddpa_callgraph::CallGraph::from_demand(&mut engine);
//! assert_eq!(stats.indirect_resolved, 1);
//! let cs = cp.indirect_callsites()[0];
//! assert_eq!(cg.targets(cs).len(), 2); // a and b
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod deref;
pub mod reach;
pub mod stackret;

pub use callgraph::{CallGraph, CallGraphStats};
pub use deref::{DerefAudit, DerefKind, DerefSite};
pub use reach::Reachability;
pub use stackret::{StackReturn, StackReturnAudit};
