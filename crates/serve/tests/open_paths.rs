//! Both ways `open` loads a program: constraint text that already is its
//! own printout is parsed once, and everything else (commented or
//! reordered text, MiniC) is printed and parsed again. Either way the
//! session serves `parse(source)` with `source` the printed program, and
//! the answers and snapshots agree.

use std::collections::{BTreeMap, HashMap};

use ddpa_constraints::{parse_constraints, print_constraints, NodeId};
use ddpa_gen::{generate_minic, MiniCConfig};
use ddpa_serve::session::{IdAnswer, ResolvedSpec};
use ddpa_serve::{QuerySpec, Session};

#[path = "../../constraints/tests/common/mod.rs"]
mod common;
use common::assert_same;

/// `text` with its declarations moved to the end and comments added, so
/// it parses to the same program but is not its own printout.
fn rearranged(text: &str) -> String {
    let (decls, body): (Vec<&str>, Vec<&str>) = text
        .lines()
        .partition(|l| l.starts_with("fun ") || l.starts_with("field "));
    let mut out = String::from("# rearranged\n");
    for line in body.into_iter().chain(decls) {
        out.push_str(line);
        out.push_str("  # kept\n\n");
    }
    out
}

/// `pts` of every named node of `s`, rendered by name. Each name must
/// resolve to the last node that has it, as the display-name index the
/// session kept before it resolved names through the program did.
fn answers(s: &mut Session) -> BTreeMap<String, Vec<String>> {
    let cp = s.program();
    let names: Vec<String> = cp.node_ids().map(|n| cp.display_node(n)).collect();
    let last: HashMap<&str, NodeId> = names
        .iter()
        .enumerate()
        .map(|(n, name)| (name.as_str(), NodeId::from_u32(n as u32)))
        .collect();
    let table = s.name_table();
    let mut out = BTreeMap::new();
    for name in &names {
        let spec = match s.resolve(&QuerySpec::PointsTo { name: name.clone() }) {
            Ok(spec @ ResolvedSpec::PointsTo(node)) if node == last[name.as_str()] => spec,
            other => panic!("{name} does not resolve to its last node: {other:?}"),
        };
        match s.query_ids(spec, None, None, None) {
            IdAnswer::Set {
                nodes, complete, ..
            } => {
                assert!(complete, "pts({name}) completes");
                let mut rendered: Vec<String> =
                    nodes.iter().map(|&n| table.node(n).to_owned()).collect();
                rendered.sort();
                out.insert(name.clone(), rendered);
            }
            other => panic!("expected a set answer, got {other:?}"),
        }
    }
    out
}

#[test]
fn every_open_path_serves_its_printed_source() {
    let ast = generate_minic(&MiniCConfig::sized(15, 8));
    let canonical = print_constraints(&ddpa_constraints::lower(&ast).expect("lowers"));
    let raw = rearranged(&canonical);
    assert_ne!(raw, canonical);
    let inputs = [
        ("canonical", canonical.clone(), false),
        ("rearranged", raw, false),
        ("minic", ddpa_ir::pretty(&ast), true),
    ];
    let mut served = Vec::new();
    for (label, text, minic) in &inputs {
        let mut s = Session::open(text, *minic, None).expect("opens");
        assert_eq!(s.source(), print_constraints(s.program()), "{label}");
        let reparsed = parse_constraints(s.source()).expect("source parses");
        assert_same(s.program(), &reparsed, label);
        served.push((label, answers(&mut s)));
    }
    let (_, first) = &served[0];
    assert!(
        first.values().any(|pts| !pts.is_empty()),
        "nonempty answers"
    );
    for (label, got) in &served[1..] {
        assert_eq!(got, first, "{label} answers like the canonical session");
    }
}

#[test]
fn a_rearranged_sessions_snapshot_restores_into_a_canonical_one() {
    let ast = generate_minic(&MiniCConfig::sized(16, 8));
    let canonical = print_constraints(&ddpa_constraints::lower(&ast).expect("lowers"));
    let mut raw = Session::open(&rearranged(&canonical), false, None).expect("opens");
    assert_eq!(raw.source(), canonical, "the reordered text prints back");
    answers(&mut raw);
    let snapshot = raw.export_snapshot();
    let mut canon = Session::open(&canonical, false, None).expect("opens");
    let stats = canon.restore_snapshot(&snapshot).expect("restores");
    assert!(!stats.rebound, "same program hash");
    assert!(stats.installed > 0, "entries installed");
    assert_eq!(stats.dropped, 0);
    let before = canon.engine_stats().work;
    answers(&mut canon);
    assert_eq!(
        canon.engine_stats().work,
        before,
        "restored answers are warm"
    );
}
