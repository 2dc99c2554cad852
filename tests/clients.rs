//! Integration tests for the client analyses against realistic programs.

use ddpa::clients::{CallGraph, DerefAudit, Reachability};
use ddpa::demand::{DemandConfig, DemandEngine};

const DISPATCHER: &str = r#"
    int g;

    int *handle_a(int *req) { return req; }
    int *handle_b(int *req) { return &g; }
    int *never_installed(int *req) { return req; }
    void internal_only() { }

    void *routes0; void *routes1;
    void *shelf;

    void setup() {
        routes0 = handle_a;
        routes1 = handle_b;
        shelf = never_installed;   // address taken, but never called
        internal_only();
    }

    void main() {
        setup();
        int *r = (*routes0)(&g);
        r = (*routes1)(r);
    }
"#;

fn func_names(
    cp: &ddpa::constraints::ConstraintProgram,
    funcs: &[ddpa::constraints::FuncId],
) -> Vec<String> {
    funcs
        .iter()
        .map(|&f| cp.interner().resolve(cp.func(f).name).to_owned())
        .collect()
}

#[test]
fn dispatcher_callgraph_and_dead_code() {
    let cp = ddpa::compile(DISPATCHER).expect("compiles");
    let mut engine = DemandEngine::new(&cp, DemandConfig::default());
    let (cg, stats) = CallGraph::from_demand(&mut engine);
    assert_eq!(stats.indirect_fallback, 0);

    // Each route resolves to exactly one handler.
    for &cs in cp.indirect_callsites() {
        assert_eq!(cg.targets(cs).len(), 1, "routes are not conflated");
    }

    let main_fn = cp
        .funcs()
        .iter_enumerated()
        .find(|(_, i)| cp.interner().resolve(i.name) == "main")
        .map(|(id, _)| id)
        .expect("main");
    let reach = Reachability::compute(&cp, &cg, &[main_fn]);
    let mut dead = func_names(&cp, &reach.dead());
    dead.sort();
    assert_eq!(dead, vec!["never_installed"]);
}

#[test]
fn budget_degrades_gracefully_then_converges() {
    let cp = ddpa::compile(DISPATCHER).expect("compiles");

    // Zero budget: falls back, conservatively including never_installed.
    let mut tiny = DemandEngine::new(&cp, DemandConfig::default().with_budget(0));
    let cs = cp.indirect_callsites()[0];
    let fallback = tiny.call_targets(cs);
    assert!(!fallback.resolved);
    let names = func_names(&cp, &fallback.targets);
    assert!(names.contains(&"never_installed".to_owned()));

    // Conservative answer is a superset of the precise one.
    let mut full = DemandEngine::new(&cp, DemandConfig::default());
    let precise = full.call_targets(cs);
    assert!(precise.resolved);
    for t in &precise.targets {
        assert!(fallback.targets.contains(t));
    }

    // Repeated tiny-budget queries eventually converge by resumption.
    let mut attempts = 0;
    let mut resumed = DemandEngine::new(&cp, DemandConfig::default().with_budget(3));
    loop {
        attempts += 1;
        assert!(attempts < 10_000);
        let r = resumed.call_targets(cs);
        if r.resolved {
            assert_eq!(r.targets, precise.targets);
            break;
        }
    }
}

#[test]
fn deref_audit_on_suite_program() {
    let bench = ddpa::gen::suite().into_iter().next().expect("minic-app");
    let cp = bench.build();
    let mut engine = DemandEngine::new(&cp, DemandConfig::default());
    let audit = DerefAudit::run(&mut engine);
    assert_eq!(audit.sites.len(), cp.loads().len() + cp.stores().len());
    assert!(audit.sites.iter().all(|s| s.resolved));
    // The generated app always initializes what it dereferences through
    // parameters — but `p1`-style out-params loaded before any caller
    // stores remain sound either way; just check the audit is coherent.
    for site in audit.wild() {
        assert_eq!(site.targets, 0);
    }
}

#[test]
fn parallel_driver_matches_sequential_on_suite() {
    let bench = ddpa::gen::suite().into_iter().nth(1).expect("syn-1k");
    let cp = bench.build();
    let queries: Vec<_> = cp.loads().iter().map(|l| l.ptr).take(100).collect();
    let mut sequential = DemandEngine::new(&cp, DemandConfig::default());
    let mut parallel = DemandEngine::new(&cp, DemandConfig::default().with_workers(4));
    let mut scheduled = 0;
    for &q in &queries {
        let (s, p) = (sequential.points_to(q), parallel.points_to(q));
        assert_eq!(s.pts, p.pts);
        assert_eq!(s.complete, p.complete);
        scheduled += parallel.last_query_parallel() as usize;
    }
    assert!(scheduled > 0, "the frame scheduler answered some queries");
}
