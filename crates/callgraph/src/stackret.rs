//! Stack-return detection: functions that may return a pointer into their
//! own stack frame.
//!
//! `return &local;` hands the caller a pointer that dangles as soon as the
//! frame pops — a classic C bug. On demand, the check is one points-to
//! query per function (`pts(f::ret)`), flagging any target that is a stack
//! object owned by `f` itself. Heap objects allocated in `f` are fine
//! (they outlive the frame), as are the caller's objects arriving through
//! parameters.

use ddpa_constraints::{ConstraintProgram, FuncId, NodeId, NodeKind};
use ddpa_demand::DemandEngine;

/// One flagged function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackReturn {
    /// The offending function.
    pub func: FuncId,
    /// Stack objects of `func` that its return value may point to.
    pub objects: Vec<NodeId>,
}

/// The report over all functions of a program.
#[derive(Clone, Debug, Default)]
pub struct StackReturnAudit {
    /// Flagged functions, in id order.
    pub findings: Vec<StackReturn>,
    /// Functions whose return query ran out of budget (not flagged;
    /// partial sets cannot prove anything either way).
    pub unresolved: Vec<FuncId>,
}

/// Returns `true` if `node` is stack storage (a variable or array
/// storage object, possibly via field nodes — not heap, not a function).
fn is_stack_object(cp: &ConstraintProgram, node: NodeId) -> bool {
    match cp.node(node).kind {
        NodeKind::Var { .. } | NodeKind::Formal { .. } => true,
        NodeKind::Field { parent, .. } => is_stack_object(cp, parent),
        NodeKind::Heap { .. }
        | NodeKind::Func { .. }
        | NodeKind::Temp { .. }
        | NodeKind::Ret { .. } => false,
    }
}

impl StackReturnAudit {
    /// Audits every function of `engine`'s program.
    pub fn run(engine: &mut DemandEngine<'_>) -> Self {
        let mut audit = StackReturnAudit::default();
        for func in engine.program().funcs().indices() {
            let r = engine.points_to(engine.program().func(func).ret);
            if !r.complete {
                audit.unresolved.push(func);
                continue;
            }
            let cp = engine.program();
            let objects: Vec<NodeId> = r
                .pts
                .into_iter()
                .filter(|&o| cp.owner_of(o) == Some(func) && is_stack_object(cp, o))
                .collect();
            if !objects.is_empty() {
                audit.findings.push(StackReturn { func, objects });
            }
        }
        audit
    }

    /// A one-line rendering of a finding.
    pub fn describe(&self, cp: &ConstraintProgram, finding: &StackReturn) -> String {
        let names: Vec<String> = finding
            .objects
            .iter()
            .map(|&o| cp.display_node(o))
            .collect();
        format!(
            "`{}` may return a pointer to its own stack: {{{}}}",
            cp.interner().resolve(cp.func(finding.func).name),
            names.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_demand::DemandConfig;

    fn audit(src: &str) -> (ddpa_constraints::ConstraintProgram, StackReturnAudit) {
        let program = ddpa_ir::parse(src).expect("parses");
        let cp = ddpa_constraints::lower(&program).expect("checks and lowers");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let report = StackReturnAudit::run(&mut engine);
        (cp, report)
    }

    fn flagged_names(
        cp: &ddpa_constraints::ConstraintProgram,
        a: &StackReturnAudit,
    ) -> Vec<String> {
        a.findings
            .iter()
            .map(|f| cp.interner().resolve(cp.func(f.func).name).to_owned())
            .collect()
    }

    #[test]
    fn flags_direct_stack_return() {
        let (cp, report) = audit(
            "int *bad() { int local; return &local; } \
             void main() { int *p = bad(); }",
        );
        assert_eq!(flagged_names(&cp, &report), vec!["bad"]);
        let text = report.describe(&cp, &report.findings[0]);
        assert!(text.contains("bad::local"), "{text}");
    }

    #[test]
    fn heap_and_parameter_returns_are_fine() {
        let (cp, report) = audit(
            "int g; \
             int *heap_ok() { int *p = malloc(); return p; } \
             int *param_ok(int *q) { return q; } \
             int *global_ok() { return &g; } \
             void main() { int *a = heap_ok(); a = param_ok(a); a = global_ok(); }",
        );
        assert!(flagged_names(&cp, &report).is_empty(), "{report:?}");
    }

    #[test]
    fn flags_indirect_stack_return_through_helper() {
        // The pointer escapes through an out-parameter store, then returns.
        let (cp, report) = audit(
            "void save(int **slot, int *v) { *slot = v; } \
             int *bad() { int local; int *tmp; save(&tmp, &local); return tmp; } \
             void main() { int *p = bad(); }",
        );
        assert_eq!(flagged_names(&cp, &report), vec!["bad"]);
    }

    #[test]
    fn flags_array_storage_returns() {
        let (cp, report) = audit(
            "int *bad() { int buf[8]; int *p = buf; return p; } \
             void main() { int *x = bad(); }",
        );
        assert_eq!(flagged_names(&cp, &report), vec!["bad"]);
    }

    #[test]
    fn unresolved_functions_are_not_flagged() {
        let program = ddpa_ir::parse(
            "int *bad() { int local; return &local; } void main() { int *p = bad(); }",
        )
        .expect("parses");
        let cp = ddpa_constraints::lower(&program).expect("lowers");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_budget(0));
        let report = StackReturnAudit::run(&mut engine);
        assert!(report.findings.is_empty());
        assert_eq!(report.unresolved.len(), cp.funcs().len());
    }
}
