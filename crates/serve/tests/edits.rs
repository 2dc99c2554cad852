//! Session edits: a failed edit changes nothing, declaration edits keep
//! the full-invalidation path, the appended-edit reload agrees with the
//! whole-program oracle after a parallel batch, and a long seeded edit
//! script ends where a cold session over the final text starts.

use std::collections::BTreeMap;

use ddpa_constraints::{diff_programs, parse_constraints, print_constraints, NodeId};
use ddpa_demand::{dirty_closure, ThreadPool};
use ddpa_gen::{generate_minic, MiniCConfig};
use ddpa_serve::session::{IdAnswer, ResolvedSpec};
use ddpa_serve::{QuerySpec, Session};
use ddpa_support::Rng;

/// Canonical constraint text of a small MiniC-lowered program.
fn minic_text(seed: u64) -> String {
    let ast = generate_minic(&MiniCConfig::sized(seed, 8));
    print_constraints(&ddpa_constraints::lower(&ast).expect("generated MiniC lowers"))
}

/// Display names of every node the session can resolve, with their ids.
fn names(s: &Session) -> BTreeMap<String, NodeId> {
    let cp = s.program();
    cp.node_ids()
        .map(|n| cp.display_node(n))
        .map(|name| {
            let id = match s.resolve(&QuerySpec::PointsTo { name: name.clone() }) {
                Ok(ResolvedSpec::PointsTo(id)) => id,
                other => panic!("{name} does not resolve: {other:?}"),
            };
            (name, id)
        })
        .collect()
}

/// `pts` of every named node, rendered through the session's name
/// table, plus the total deduction work the answers took.
fn answers(s: &mut Session) -> (BTreeMap<String, Vec<String>>, u64) {
    let table = s.name_table();
    let mut out = BTreeMap::new();
    let mut total = 0;
    for name in names(s).into_keys() {
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: name.clone() })
            .expect("resolves");
        match s.query_ids(spec, None, None, None) {
            IdAnswer::Set {
                nodes,
                complete,
                work,
                ..
            } => {
                assert!(complete, "pts({name}) completes");
                let mut rendered: Vec<String> =
                    nodes.iter().map(|&n| table.node(n).to_owned()).collect();
                rendered.sort();
                total += work;
                out.insert(name, rendered);
            }
            other => panic!("expected a set answer, got {other:?}"),
        }
    }
    (out, total)
}

/// Every rendered node and function name in the session's table.
fn rendered_names(s: &Session) -> (Vec<String>, Vec<String>) {
    let table = s.name_table();
    let cp = s.program();
    let nodes = cp.node_ids().map(|n| table.node(n).to_owned()).collect();
    let funcs = cp
        .funcs()
        .iter_enumerated()
        .map(|(f, _)| table.func(f).to_owned())
        .collect();
    (nodes, funcs)
}

#[test]
fn failed_edit_leaves_the_session_unchanged() {
    let mut s = Session::open(&minic_text(1), false, None).expect("opens");
    let (before, _) = answers(&mut s);
    let source = s.source().to_owned();
    let generation = s.generation();
    let index = names(&s);
    let table = rendered_names(&s);

    // A plain edit (appended) and a declaring one (re-parsed whole).
    for edit in [
        "fresh_ptr = &fresh_obj\nnot a constraint\n",
        "fun h/1\nnot a constraint\n",
    ] {
        let err = s
            .add_constraints(edit)
            .expect_err("second line is malformed");
        let want = parse_constraints(&format!("{source}{edit}")).expect_err("full parse fails too");
        assert_eq!(err.message, want.to_string(), "today's error text");
        assert_eq!(want.line, source.lines().count() + 2);

        assert_eq!(s.source(), source);
        assert_eq!(s.generation(), generation);
        assert_eq!(names(&s), index, "name index unchanged");
        assert_eq!(rendered_names(&s), table, "name table unchanged");
        let (after, work) = answers(&mut s);
        assert_eq!(after, before, "answers unchanged");
        assert_eq!(work, 0, "the memo table survived the failed edit");
    }
}

#[test]
fn declaration_edits_fully_invalidate_then_appends_resume() {
    let mut s = Session::open(&minic_text(2), false, None).expect("opens");
    answers(&mut s);
    let decl = s
        .add_constraints("fun h/1\nh::arg0 = &hobj\n")
        .expect("valid edit");
    assert!(decl.full, "a declaration renumbers ids");
    assert_eq!(decl.retained, 0);
    assert_eq!(s.generation(), 1);
    answers(&mut s);
    let plain = s.add_constraints("hp = h::arg0\n").expect("valid edit");
    assert!(!plain.full, "a plain edit after it is incremental again");
    assert!(plain.retained > 0);
    let (warm, _) = answers(&mut s);
    let mut cold = Session::open(s.source(), false, None).expect("final text opens");
    assert_eq!(warm, answers(&mut cold).0);
}

#[test]
fn edit_after_parallel_batch_matches_the_whole_program_oracle() {
    let mut s = Session::open(&minic_text(3), false, None).expect("opens");
    let all: Vec<(String, NodeId)> = names(&s).into_iter().collect();
    // The warm engine tables a few goals itself ...
    for (name, _) in all.iter().step_by(7) {
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: name.clone() })
            .expect("resolves");
        s.query_ids(spec, None, None, None);
    }
    // ... and a parallel batch publishes many it never tabled.
    let specs: Vec<ResolvedSpec> = all
        .iter()
        .map(|&(_, n)| ResolvedSpec::PointsTo(n))
        .collect();
    s.query_batch_parallel(&specs, None, None, &ThreadPool::new(2));

    let (target, _) = all[all.len() / 2].clone();
    let (source, _) = all[all.len() / 3].clone();
    let edit = format!("{target} = {source}\n");
    let entries = s.shared_memo().export_completed();
    let old = parse_constraints(s.source()).expect("source parses");
    let new = parse_constraints(&format!("{}{edit}", s.source())).expect("edit parses");
    let (dirty, edges) = dirty_closure(&entries, &diff_programs(&old, &new));
    assert!(
        entries.len() > specs.len() / 2,
        "the batch published its goals"
    );

    let stats = s.add_constraints(&edit).expect("valid edit");
    assert!(!stats.full);
    assert_eq!(stats.invalidated, dirty.len());
    assert_eq!(stats.retained, entries.len() - dirty.len());
    assert_eq!(stats.dirty_edges, edges);
}

/// A line for the seeded script: mostly constraints over existing names,
/// some fresh names, calls, comments and blank lines.
fn script_line(rng: &mut Rng, s: &Session, fresh: &mut u32) -> String {
    let cp = s.program();
    let mut pick = |rng: &mut Rng| -> String {
        if rng.gen_bool(0.15) {
            *fresh += 1;
            return format!("v{fresh}");
        }
        loop {
            let n = NodeId::from_u32(rng.gen_range(0..cp.num_nodes() as u32));
            if !cp.node(n).is_func() {
                return cp.display_node(n);
            }
        }
    };
    let func = |rng: &mut Rng| {
        let f = cp
            .funcs()
            .iter()
            .nth(rng.gen_range(0..cp.funcs().len()))
            .expect("a function");
        (cp.interner().resolve(f.name).to_owned(), f.formals.len())
    };
    match rng.gen_range(0..9u32) {
        0 => format!("{} = &{}", pick(rng), pick(rng)),
        1 | 2 => format!("{} = {}", pick(rng), pick(rng)),
        3 => format!("{} = *{}", pick(rng), pick(rng)),
        4 => format!("*{} = {}", pick(rng), pick(rng)),
        5 => format!("{} = &{}", pick(rng), func(rng).0),
        6 => {
            let (f, arity) = func(rng);
            let args: Vec<String> = (0..arity).map(|_| pick(rng)).collect();
            format!("call {f}({}) -> {}", args.join(", "), pick(rng))
        }
        7 => format!("icall {}({}) -> {}", pick(rng), pick(rng), pick(rng)),
        _ => "# comment".to_owned(),
    }
}

#[test]
fn seeded_edits_end_where_a_cold_session_starts() {
    let mut rng = Rng::seed_from_u64(13);
    let mut s = Session::open(&minic_text(4), false, None).expect("opens");
    let mut fresh = 0;
    let mut incremental = 0;
    for _ in 0..50 {
        let lines = rng.gen_range(1..4usize);
        let mut edit = String::new();
        for _ in 0..lines {
            edit.push_str(&script_line(&mut rng, &s, &mut fresh));
            edit.push('\n');
        }
        let stats = s.add_constraints(&edit).expect("valid edit");
        incremental += !stats.full as usize;
        // Warm a handful of goals so the next edit has survivors.
        let all: Vec<String> = names(&s).into_keys().collect();
        for _ in 0..8 {
            let name = all[rng.gen_range(0..all.len())].clone();
            let spec = s.resolve(&QuerySpec::PointsTo { name }).expect("resolves");
            s.query_ids(spec, None, None, None);
        }
    }
    assert_eq!(incremental, 50, "every plain edit is appended");
    let mut cold = Session::open(s.source(), false, None).expect("final text opens");
    let (warm_answers, _) = answers(&mut s);
    let (cold_answers, _) = answers(&mut cold);
    assert_eq!(warm_answers, cold_answers, "every answer and rendered name");
    let mut warm_names = rendered_names(&s);
    let mut cold_names = rendered_names(&cold);
    for side in [&mut warm_names, &mut cold_names] {
        side.0.sort();
        side.1.sort();
    }
    assert_eq!(warm_names, cold_names);
}
