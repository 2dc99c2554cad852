//! Demand-driven pointer analysis — the reproduction of the PLDI 2001
//! system.
//!
//! Instead of solving the whole program, the analysis answers individual
//! *queries*:
//!
//! * [`DemandEngine::points_to`] — what may `v` point to? (`pts(v)`)
//! * [`DemandEngine::pointed_to_by`] — which pointers may point to `o`?
//!   (`ptb(o)`, the inverse relation the paper needs to resolve stores)
//! * [`DemandEngine::call_targets`] — which functions may this call site
//!   invoke? (the paper's motivating client)
//! * [`DemandEngine::may_alias`] — may two pointers alias?
//!
//! A query performs goal-directed evaluation of Andersen's deduction rules
//! (see [`engine`] for the rule set): only the subgoals transitively
//! relevant to the query are activated, subgoal results are **memoized**
//! across queries, recursive subgoal cycles converge by local fixpoint,
//! and a per-query **budget** caps the work — on exhaustion the query
//! reports itself unresolved and a later query (or a retry with a larger
//! budget) *resumes* where it stopped.
//!
//! The answers of fully resolved queries are bit-identical to the
//! exhaustive analysis in [`ddpa-anders`](../ddpa_anders/index.html)
//! (verified by differential and property tests).
//!
//! # Examples
//!
//! ```
//! use ddpa_demand::{DemandConfig, DemandEngine};
//!
//! let program = ddpa_ir::parse("int g; void main() { int *p = &g; int *q = p; }")?;
//! let cp = ddpa_constraints::lower(&program)?;
//! let q = cp.node_ids().find(|&n| cp.display_node(n) == "main::q").expect("q exists");
//!
//! let mut engine = DemandEngine::new(&cp, DemandConfig::default());
//! let result = engine.points_to(q);
//! assert!(result.complete);
//! assert_eq!(result.pts.len(), 1);
//! assert_eq!(cp.display_node(result.pts[0]), "g");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod config;
pub mod cycles;
pub mod engine;
pub mod goal;
pub mod inspect;
pub mod pool;
pub mod qtrace;
pub mod query;
pub mod rules;
pub mod sched;
pub mod share;
pub mod stats;
pub mod trace;

pub use budget::Budget;
pub use config::{DemandConfig, SchedPolicy};
pub use cycles::CopyGraph;
pub use engine::{DemandEngine, EditStats};
pub use inspect::{display_goal, CriticalPath, GoalGraph, GoalProfile};
pub use pool::StealQueue;
pub use qtrace::{QueryTrace, TraceReport};
pub use query::{AliasResult, CallTargets, QueryResult};
pub use sched::{SchedStats, Scheduler, SolveOutcome};
pub use share::{dirty_closure, CompletedGoal, StageEntry};
pub use stats::EngineStats;
pub use trace::{explain_points_to, Explanation, Origin, TraceStep};
