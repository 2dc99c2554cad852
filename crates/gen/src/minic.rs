//! Structured MiniC program generator.
//!
//! Unlike [`crate::random`], this generator produces *source programs* and
//! pushes them through the full parse/check/lower pipeline shape real
//! inputs take: a layered call graph (layer *k* calls layer *k+1*), locals
//! whose addresses escape through stores, heap allocation, and a global
//! function-pointer dispatch table called indirectly — the construct the
//! paper's call-graph client exists for.

use ddpa_support::rng::Rng;

use ddpa_ir::ast::{BaseTy, Program, Ty};
use ddpa_ir::ProgramBuilder;

/// Parameters for [`generate_minic`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiniCConfig {
    /// RNG seed.
    pub seed: u64,
    /// Call-graph depth.
    pub layers: usize,
    /// Functions per layer.
    pub funcs_per_layer: usize,
    /// Pointer locals per function.
    pub locals_per_func: usize,
    /// Size of the global function-pointer dispatch table (entries point
    /// at layer-1 functions; callers invoke them indirectly).
    pub fp_table: usize,
    /// Generate linked-list struct code in function bodies
    /// (field-sensitive workload).
    pub structs: bool,
}

impl MiniCConfig {
    /// A small default shape.
    pub fn sized(seed: u64, funcs: usize) -> Self {
        let layers = 3.max(funcs / 8).min(8);
        MiniCConfig {
            seed,
            layers,
            funcs_per_layer: funcs.div_ceil(layers).max(1),
            locals_per_func: 4,
            fp_table: (funcs / 4).max(1),
            structs: true,
        }
    }
}

fn fname(layer: usize, i: usize) -> String {
    format!("f_{layer}_{i}")
}

/// Generates a checked MiniC program.
///
/// # Examples
///
/// ```
/// use ddpa_gen::{generate_minic, MiniCConfig};
///
/// let program = generate_minic(&MiniCConfig::sized(1, 12));
/// let cp = ddpa_constraints::lower(&program).expect("generated programs check and lower");
/// assert!(cp.indirect_callsites().len() > 0);
/// ```
pub fn generate_minic(config: &MiniCConfig) -> Program {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut b = ProgramBuilder::new();
    let ptr = Ty::ptr(BaseTy::Int, 1);
    let pptr = Ty::ptr(BaseTy::Int, 2);

    // Global objects, structs, and the function-pointer table.
    b.global("g0", Ty::INT);
    b.global("g1", Ty::INT);
    let list_sym = b.sym("List");
    let list_ty = Ty {
        base: BaseTy::Struct(list_sym),
        depth: 1,
    };
    if config.structs {
        b.struct_decl("List", &[("next", list_ty), ("data", ptr)]);
    }
    for t in 0..config.fp_table {
        b.global(&format!("fptab{t}"), Ty::ptr(BaseTy::Void, 1));
    }

    // Layered worker functions, bottom (deepest) layer first so direct
    // calls refer to already-generated names (forward refs are fine in
    // MiniC, but bottom-up keeps the shape obvious).
    for layer in (0..config.layers).rev() {
        for i in 0..config.funcs_per_layer {
            let name = fname(layer, i);
            let mut f = b.function(&name, ptr, &[("p0", ptr), ("p1", pptr)]);

            // Locals: an int object, pointer locals, a heap cell.
            f.decl("obj", Ty::INT, None);
            let addr = f.addr_of("obj");
            f.decl("l0", ptr, Some(addr));
            let m = f.malloc();
            f.decl("h", ptr, Some(m));
            for k in 1..config.locals_per_func {
                let init = match k % 3 {
                    0 => Some(f.var("l0")),
                    1 => Some(f.var("p0")),
                    _ => None,
                };
                f.decl(&format!("l{k}"), ptr, init);
            }

            // Escape a local through the out-parameter, and read it back.
            let l0 = f.var("l0");
            f.assign(1, "p1", l0);
            let back = f.load(1, "p1");
            f.decl("t", ptr, Some(back));

            // Build and walk a short linked list (field-sensitive flow).
            if config.structs && rng.gen_bool(0.6) {
                let m = f.malloc();
                f.decl("node", list_ty, Some(m));
                let m2 = f.malloc();
                f.decl("node2", list_ty, Some(m2));
                let n2 = f.var("node2");
                f.assign_field("node", true, "next", n2);
                let payload = f.var("t");
                f.assign_field("node", true, "data", payload);
                let start = f.var("node");
                f.decl("walk", list_ty, Some(start));
                let cond = ddpa_ir::ast::Cond {
                    lhs: f.var("walk"),
                    rest: Some((ddpa_ir::ast::CmpOp::Ne, f.null())),
                };
                let got = f.field("walk", true, "data");
                let next = f.field("walk", true, "next");
                let body = ddpa_ir::ast::Stmt::Block(ddpa_ir::ast::Block {
                    stmts: vec![
                        ddpa_ir::ast::Stmt::Assign {
                            lhs: ddpa_ir::ast::Place {
                                derefs: 0,
                                name: f.sym("t"),
                                field: None,
                                span: ddpa_ir::token::Span::DUMMY,
                            },
                            rhs: got,
                            span: ddpa_ir::token::Span::DUMMY,
                        },
                        ddpa_ir::ast::Stmt::Assign {
                            lhs: ddpa_ir::ast::Place {
                                derefs: 0,
                                name: f.sym("walk"),
                                field: None,
                                span: ddpa_ir::token::Span::DUMMY,
                            },
                            rhs: next,
                            span: ddpa_ir::token::Span::DUMMY,
                        },
                    ],
                });
                f.stmt(ddpa_ir::ast::Stmt::While {
                    cond,
                    body: Box::new(body),
                    span: ddpa_ir::token::Span::DUMMY,
                });
            }

            // Call one or two functions from the next layer down.
            if layer + 1 < config.layers {
                for _ in 0..=rng.gen_range(0..2u8) {
                    let callee = fname(layer + 1, rng.gen_range(0..config.funcs_per_layer));
                    let a0 = f.var("t");
                    let a1 = f.var("p1");
                    let call = f.call(&callee, vec![a0, a1]);
                    f.assign(0, "t", call);
                }
            }

            // Occasionally dispatch through the global table.
            if config.fp_table > 0 && rng.gen_bool(0.5) {
                let t = rng.gen_range(0..config.fp_table);
                let a0 = f.var("h");
                let a1 = f.var("p1");
                let call = f.call_indirect(1, &format!("fptab{t}"), vec![a0, a1]);
                f.assign(0, "t", call);
            }

            // Return either the threaded value or the heap cell.
            let ret = if rng.gen_bool(0.5) {
                f.var("t")
            } else {
                f.var("h")
            };
            f.ret(Some(ret));
            f.finish();
        }
    }

    // main: fill the dispatch table with layer-1 functions (or layer-0 if
    // only one layer) and kick off layer 0.
    let table_layer = 1.min(config.layers - 1);
    let mut main = b.function("main", Ty::VOID, &[]);
    for t in 0..config.fp_table {
        let target = fname(table_layer, rng.gen_range(0..config.funcs_per_layer));
        let fref = main.var(&target);
        main.assign(0, &format!("fptab{t}"), fref);
    }
    main.decl("slot", ptr, None);
    let slot_addr = main.addr_of("slot");
    main.decl("out", pptr, Some(slot_addr));
    let seed_ptr = main.addr_of("g0");
    main.decl("start", ptr, Some(seed_ptr));
    for i in 0..config.funcs_per_layer.min(3) {
        let a0 = main.var("start");
        let a1 = main.var("out");
        let call = main.call(&fname(0, i), vec![a0, a1]);
        main.assign(0, "start", call);
    }
    main.finish();

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_source_checks_and_lowers() {
        for seed in 0..5 {
            let program = generate_minic(&MiniCConfig::sized(seed, 16));
            ddpa_ir::check(&program).unwrap_or_else(|e| panic!("seed {seed} failed check:\n{e}"));
            let cp = ddpa_constraints::lower(&program).expect("lowers");
            assert!(cp.funcs().len() >= 16);
            assert!(!cp.indirect_callsites().is_empty());
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_minic(&MiniCConfig::sized(9, 12));
        let b = generate_minic(&MiniCConfig::sized(9, 12));
        assert_eq!(ddpa_ir::pretty(&a), ddpa_ir::pretty(&b));
    }

    #[test]
    fn pretty_output_reparses() {
        let program = generate_minic(&MiniCConfig::sized(4, 12));
        let text = ddpa_ir::pretty(&program);
        let reparsed = ddpa_ir::parse(&text).expect("pretty output parses");
        ddpa_ir::check(&reparsed).expect("and checks");
        assert_eq!(ddpa_ir::pretty(&reparsed), text);
    }

    #[test]
    fn demand_matches_exhaustive_on_generated_source() {
        let program = generate_minic(&MiniCConfig::sized(2, 12));
        let cp = ddpa_constraints::lower(&program).expect("lowers");
        let oracle = ddpa_anders::solve(&cp);
        let mut engine = ddpa_demand::DemandEngine::new(&cp, ddpa_demand::DemandConfig::default());
        for cs in cp.callsites().indices() {
            let got = engine.call_targets(cs);
            assert!(got.resolved);
            assert_eq!(got.targets.as_slice(), oracle.call_targets(cs));
        }
    }
}
