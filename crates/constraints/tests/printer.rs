//! The printer against the one it replaced.
//!
//! `print_constraints` writes every name in place now; its output must
//! stay byte for byte what the printer that built one `String` per name
//! wrote, and `display_node` what it returned. The old printer and
//! `display_node` are kept here as the oracle, over hand-written,
//! lowered MiniC, cyclic, wide and random programs and their canonical
//! forms.

use std::fmt::Write as _;

use ddpa_constraints::{
    canonicalize, lower, parse_constraints, print_constraints, CalleeRef, ConstraintProgram,
    FuncId, NodeId, NodeKind,
};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
};

/// `display_node` as it was before `ConstraintProgram::write_node`:
/// one `String` per name.
fn old_display_node(cp: &ConstraintProgram, node: NodeId) -> String {
    let func_name = |func: FuncId| cp.interner().resolve(cp.func(func).name);
    match cp.node(node).kind {
        NodeKind::Var { name } => cp.interner().resolve(name).to_owned(),
        NodeKind::Temp { seq } => format!("%t{seq}"),
        NodeKind::Heap { seq } => format!("@heap{seq}"),
        NodeKind::Func { func } => format!("@fn_{}", func_name(func)),
        NodeKind::Formal { func, index } => format!("{}::arg{index}", func_name(func)),
        NodeKind::Ret { func } => format!("{}::ret", func_name(func)),
        NodeKind::Field { parent, field } => {
            format!("{}.f{}", old_display_node(cp, parent), field)
        }
    }
}

/// `print_constraints` as it was before it wrote names in place: the
/// oracle for the printout's bytes.
fn old_print_constraints(cp: &ConstraintProgram) -> String {
    let name = |node| old_display_node(cp, node);
    let mut out = String::new();
    for info in cp.funcs().iter() {
        let _ = writeln!(
            out,
            "fun {}/{}",
            cp.interner().resolve(info.name),
            info.formals.len()
        );
    }
    for (parent, field, _) in cp.field_nodes() {
        let _ = writeln!(out, "field {}.{}", name(parent), field);
    }
    for a in cp.addr_ofs() {
        let obj = match cp.node(a.obj).as_func() {
            Some(func) => cp.interner().resolve(cp.func(func).name).to_owned(),
            None => name(a.obj),
        };
        let _ = writeln!(out, "{} = &{}", name(a.dst), obj);
    }
    for c in cp.copies() {
        let _ = writeln!(out, "{} = {}", name(c.dst), name(c.src));
    }
    for l in cp.loads() {
        let _ = writeln!(out, "{} = *{}", name(l.dst), name(l.ptr));
    }
    for s in cp.stores() {
        let _ = writeln!(out, "*{} = {}", name(s.ptr), name(s.src));
    }
    for fa in cp.field_addrs() {
        let _ = writeln!(out, "{} = &{}->{}", name(fa.dst), name(fa.base), fa.field);
    }
    for cs in cp.callsites().iter() {
        let (kw, callee) = match cs.callee {
            CalleeRef::Direct(func) => {
                ("call", cp.interner().resolve(cp.func(func).name).to_owned())
            }
            CalleeRef::Indirect(fp) => ("icall", name(fp)),
        };
        let args: Vec<String> = cs
            .args
            .iter()
            .map(|a| match a {
                Some(node) => name(*node),
                None => "_".to_owned(),
            })
            .collect();
        let _ = write!(out, "{kw} {callee}({})", args.join(", "));
        if let Some(ret) = cs.ret_dst {
            let _ = write!(out, " -> {}", name(ret));
        }
        if let Some(caller) = cs.caller {
            let _ = write!(out, " in {}", cp.interner().resolve(cp.func(caller).name));
        }
        out.push('\n');
    }
    out
}

#[test]
fn printout_and_names_match_the_old_printer() {
    let mut programs = vec![parse_constraints(
        "fun f/2\nfun g/0\nfield o.0\nfield o.f0.3\nfield f::ret.1\n\
         p = &o\nq = &p->0\n*q = f::arg1\nr = *q\nfp = &g\n\
         icall fp(p, _) -> r in f\ncall f(_, q) in g\ncall g()\n",
    )
    .expect("parses")];
    for seed in 1..4 {
        let minic = generate_minic(&MiniCConfig::sized(seed, 10));
        programs.push(lower(&minic).expect("lowers"));
        programs.push(generate_cyclic(&CyclicConfig::sized(seed, 10)));
        programs.push(generate_wide(&WideConfig::sized(seed, 200)));
        programs.push(generate_random(&RandomConfig::sized(seed, 300)));
    }
    let mut fields = 0;
    for cp in programs {
        let printed = print_constraints(&cp);
        assert_eq!(printed, old_print_constraints(&cp));
        let (canonical, source) = canonicalize(cp.clone(), None).expect("reparses");
        assert_eq!(source, printed);
        assert_eq!(print_constraints(&canonical), printed, "a fixpoint");
        for p in [&cp, &canonical] {
            for n in p.node_ids() {
                assert_eq!(p.display_node(n), old_display_node(p, n));
            }
        }
        fields += cp.field_nodes().len();
    }
    assert!(fields > 0, "some program declares fields");
}
