//! Derivation provenance: answering *why* a points-to fact holds.
//!
//! [`explain_points_to`] answers `pts(node)` on a private engine that
//! records, for every fact, the rule instance and premise fact that first
//! produced it, then walks that record back to a base fact (`x = &o`),
//! yielding a derivation chain like the ones the paper writes out by hand:
//!
//! ```text
//! o ∈ pts(r)   by [COPY→r]
//! o ∈ pts(q)   by [COPY→q]
//! o ∈ pts(p)   by [ADDR] (base fact)
//! ```
//!
//! The private engine never collapses cycles, so every fact is recorded
//! under the goal it was added to. A fact's first derivation reads a
//! premise that was added before it, so the chain is acyclic and ends in
//! a base fact. No session, snapshot or edit carries provenance.

use std::collections::HashMap;

use ddpa_constraints::{ConstraintProgram, NodeId};

use crate::config::DemandConfig;
use crate::engine::DemandEngine;
use crate::goal::{Goal, Watcher};

/// Explains why `target ∈ pts(node)`, as a derivation chain from that
/// fact down to a base `x = &o` fact, or `None` when the fact is false.
///
/// Each call derives `pts(node)` afresh on its own engine, with cycle
/// collapsing and the flight recorder off, and records each fact's first
/// derivation on the way.
///
/// # Examples
///
/// ```
/// let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n")?;
/// let find = |name: &str| cp.node_ids().find(|&n| cp.display_node(n) == name).expect("node");
/// let why = ddpa_demand::explain_points_to(&cp, find("q"), find("o")).expect("o ∈ pts(q)");
/// assert_eq!(why.steps.len(), 2);
/// assert!(ddpa_demand::explain_points_to(&cp, find("q"), find("p")).is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn explain_points_to(
    cp: &ConstraintProgram,
    node: NodeId,
    target: NodeId,
) -> Option<Explanation> {
    let config = DemandConfig::new()
        .without_cycle_collapsing()
        .without_flight_recorder();
    let mut engine = DemandEngine::new(cp, config);
    engine.memo.provenance = Some(HashMap::new());
    engine.points_to(node);
    let provenance = engine.memo.provenance.as_ref()?;
    let (mut goal, mut elem) = (Goal::Pts(node), target.as_u32());
    let mut steps = Vec::new();
    loop {
        let origin = *provenance.get(&(goal, elem))?;
        steps.push(TraceStep { goal, elem, origin });
        match origin {
            Origin::Base => return Some(Explanation { steps }),
            Origin::Rule { src, elem: e, .. } => (goal, elem) = (src, e),
        }
    }
}

/// Why a fact entered a goal's set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A base fact from an `x = &o` constraint (or its inverse).
    Base,
    /// Derived by firing `watcher` on premise `(src, elem)`.
    Rule {
        /// The rule instance that fired.
        watcher: Watcher,
        /// The goal the premise was read from.
        src: Goal,
        /// The premise element.
        elem: u32,
    },
}

/// One step of a derivation, leaf (base fact) last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The goal the fact belongs to.
    pub goal: Goal,
    /// The fact (a node id).
    pub elem: u32,
    /// How it was derived.
    pub origin: Origin,
}

/// A full derivation chain for one fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explanation {
    /// Steps from the queried fact down to a base fact.
    pub steps: Vec<TraceStep>,
}

impl Explanation {
    /// Renders the chain with human-readable node names.
    pub fn render(&self, cp: &ConstraintProgram) -> String {
        let mut out = String::new();
        for step in &self.steps {
            let fact = match step.goal {
                Goal::Pts(v) => format!(
                    "{} ∈ pts({})",
                    cp.display_node(NodeId::from_u32(step.elem)),
                    cp.display_node(v)
                ),
                Goal::Ptb(o) => format!(
                    "{} ∈ ptb({})",
                    cp.display_node(NodeId::from_u32(step.elem)),
                    cp.display_node(o)
                ),
            };
            let why = match step.origin {
                Origin::Base => "by [ADDR] (base fact)".to_owned(),
                Origin::Rule { watcher, .. } => format!("by {}", describe_watcher(&watcher, cp)),
            };
            out.push_str(&format!("{fact}   {why}\n"));
        }
        out
    }
}

/// A short human-readable description of a rule instance.
pub fn describe_watcher(watcher: &Watcher, cp: &ConstraintProgram) -> String {
    match watcher {
        Watcher::CopyTo { dst } => format!("[COPY→{}]", cp.display_node(*dst)),
        Watcher::LoadDst { dst } => format!("[LOAD→{}]", cp.display_node(*dst)),
        Watcher::StoreInto { obj } => format!("[STORE→{}]", cp.display_node(*obj)),
        Watcher::Dispatch { fp, .. } => format!("[CALL {}]", cp.display_node(*fp)),
        Watcher::CallRet { dst } => format!("[RET→{}]", cp.display_node(*dst)),
        Watcher::FwdProp { obj } => format!("[PTB-FWD {}]", cp.display_node(*obj)),
        Watcher::StoreSpread { obj } => format!("[PTB-STORE {}]", cp.display_node(*obj)),
        Watcher::LoadSpread { obj } => format!("[PTB-LOAD {}]", cp.display_node(*obj)),
        Watcher::ArgSpread { obj, .. } => format!("[PTB-ARG {}]", cp.display_node(*obj)),
        Watcher::FieldOf { dst, field } => {
            format!("[FIELD .f{field}→{}]", cp.display_node(*dst))
        }
        Watcher::FieldPtb { obj, field } => {
            format!("[PTB-FIELD .f{field} {}]", cp.display_node(*obj))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_names_facts() {
        let cp = ddpa_constraints::parse_constraints("p = &o\n").expect("parses");
        let p = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "p")
            .expect("p");
        let o = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "o")
            .expect("o");
        let e = Explanation {
            steps: vec![TraceStep {
                goal: Goal::Pts(p),
                elem: o.as_u32(),
                origin: Origin::Base,
            }],
        };
        let text = e.render(&cp);
        assert!(text.contains("o ∈ pts(p)"));
        assert!(text.contains("[ADDR]"));
    }
}
