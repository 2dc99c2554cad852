//! The cloning transformation.

use std::collections::HashMap;

use ddpa_callgraph::CallGraph;
use ddpa_constraints::{CalleeRef, ConstraintBuilder, ConstraintProgram, FuncId, NodeId, NodeKind};

use crate::context::{ContextTable, CtxId};

/// Configuration for [`clone_expand`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CloneConfig {
    /// Call-string depth. `0` disables context-sensitivity (the expansion
    /// then equals the original analysis with the call graph fixed).
    pub k: usize,
    /// Global cap on `(function, context)` clones; overflow gracefully
    /// merges into the function's context-free clone.
    pub max_clones: usize,
    /// Also clone heap allocation sites per context (heap cloning — the
    /// piece that distinguishes `malloc` wrappers' allocations).
    pub clone_heap: bool,
}

impl Default for CloneConfig {
    fn default() -> Self {
        CloneConfig {
            k: 1,
            max_clones: 20_000,
            clone_heap: true,
        }
    }
}

impl CloneConfig {
    /// A config with call-string depth `k` and default limits.
    pub fn with_k(k: usize) -> Self {
        CloneConfig {
            k,
            ..CloneConfig::default()
        }
    }
}

/// The result of [`clone_expand`]: an ordinary constraint program plus the
/// maps to translate between original and cloned node ids.
#[derive(Debug)]
pub struct ClonedProgram {
    /// The expanded program (run any engine on it).
    pub program: ConstraintProgram,
    /// Interned contexts.
    pub contexts: ContextTable,
    /// `(function, context)` clones created.
    pub clone_count: usize,
    /// `true` if [`CloneConfig::max_clones`] was hit (some calls merged
    /// into context-free clones).
    pub capped: bool,
    origin: HashMap<NodeId, NodeId>,
    clones: HashMap<NodeId, Vec<NodeId>>,
}

impl ClonedProgram {
    /// The original node a cloned node came from.
    pub fn origin_of(&self, node: NodeId) -> Option<NodeId> {
        self.origin.get(&node).copied()
    }

    /// All clones of an original node (one entry for shared nodes).
    pub fn clones_of(&self, orig: NodeId) -> &[NodeId] {
        self.clones.get(&orig).map_or(&[], Vec::as_slice)
    }

    /// Node-count expansion factor.
    pub fn expansion_factor(&self, original: &ConstraintProgram) -> f64 {
        self.program.num_nodes() as f64 / original.num_nodes() as f64
    }
}

/// Expands `cp` into a context-sensitive clone per `config`, using `cg`
/// (a sound call graph, e.g. from the demand client) to fix call targets.
pub fn clone_expand(cp: &ConstraintProgram, cg: &CallGraph, config: &CloneConfig) -> ClonedProgram {
    Expander::new(cp, cg, config).run()
}

struct Expander<'p> {
    cp: &'p ConstraintProgram,
    cg: &'p CallGraph,
    config: CloneConfig,
    table: ContextTable,
    /// Enumerated `(function, context)` pairs, insertion-ordered.
    pairs: Vec<(FuncId, CtxId)>,
    pair_index: HashMap<(FuncId, CtxId), usize>,
    capped: bool,
    builder: ConstraintBuilder,
    /// New function per (function, context).
    new_funcs: HashMap<(FuncId, CtxId), FuncId>,
    /// New node per (original owned node, context).
    owned_map: HashMap<(NodeId, CtxId), NodeId>,
    /// New node per original shared node.
    shared_map: HashMap<NodeId, NodeId>,
    origin: HashMap<NodeId, NodeId>,
    clones: HashMap<NodeId, Vec<NodeId>>,
    /// Call sites per caller function (None = global initializers).
    sites_of: HashMap<Option<FuncId>, Vec<ddpa_constraints::CallSiteId>>,
}

impl<'p> Expander<'p> {
    fn new(cp: &'p ConstraintProgram, cg: &'p CallGraph, config: &CloneConfig) -> Self {
        let mut sites_of: HashMap<Option<FuncId>, Vec<_>> = HashMap::new();
        for cs in cp.callsites().indices() {
            sites_of.entry(cp.callsite(cs).caller).or_default().push(cs);
        }
        Expander {
            cp,
            cg,
            config: config.clone(),
            table: ContextTable::new(config.k),
            pairs: Vec::new(),
            pair_index: HashMap::new(),
            capped: false,
            builder: ConstraintBuilder::new(),
            new_funcs: HashMap::new(),
            owned_map: HashMap::new(),
            shared_map: HashMap::new(),
            origin: HashMap::new(),
            clones: HashMap::new(),
            sites_of,
        }
    }

    fn add_pair(&mut self, f: FuncId, ctx: CtxId) -> bool {
        if self.pair_index.contains_key(&(f, ctx)) {
            return false;
        }
        if self.pairs.len() >= self.config.max_clones {
            self.capped = true;
            return false;
        }
        self.pair_index.insert((f, ctx), self.pairs.len());
        self.pairs.push((f, ctx));
        true
    }

    /// Phase A: enumerate reachable `(function, context)` pairs.
    fn enumerate(&mut self) {
        // Every function gets the context-free clone: it serves as the
        // root context, the unknown-caller context, and the overflow
        // fallback.
        let mut worklist: Vec<(FuncId, CtxId)> = Vec::new();
        for f in self.cp.funcs().indices() {
            if self.add_pair(f, ContextTable::EMPTY) {
                worklist.push((f, ContextTable::EMPTY));
            }
        }
        while let Some((f, ctx)) = worklist.pop() {
            let sites = self.sites_of.get(&Some(f)).cloned().unwrap_or_default();
            for cs in sites {
                let nctx = self.table.push(ctx, cs);
                for &t in self.cg.targets(cs) {
                    if self.add_pair(t, nctx) {
                        worklist.push((t, nctx));
                    }
                }
            }
        }
    }

    /// The clone of `f` under `ctx`, falling back to the context-free one.
    fn func_clone(&self, f: FuncId, ctx: CtxId) -> FuncId {
        self.new_funcs
            .get(&(f, ctx))
            .or_else(|| self.new_funcs.get(&(f, ContextTable::EMPTY)))
            .copied()
            .expect("every function has a context-free clone")
    }

    /// Records provenance of a fresh node.
    fn record(&mut self, orig: NodeId, new: NodeId) {
        self.origin.insert(new, orig);
        self.clones.entry(orig).or_default().push(new);
    }

    /// Is this node cloned per context (vs shared)?
    fn clone_eligible(&self, node: NodeId) -> bool {
        if self.cp.owner_of(node).is_none() {
            return false;
        }
        match self.cp.node(node).kind {
            NodeKind::Var { .. } | NodeKind::Temp { .. } => true,
            NodeKind::Heap { .. } => self.config.clone_heap,
            // Formals/rets are materialized by func creation; fields follow
            // their parent; function objects are shared.
            NodeKind::Formal { .. }
            | NodeKind::Ret { .. }
            | NodeKind::Field { .. }
            | NodeKind::Func { .. } => false,
        }
    }

    /// Phase B1: create function clones (objects, formals, returns).
    fn create_funcs(&mut self) {
        for i in 0..self.pairs.len() {
            let (f, ctx) = self.pairs[i];
            let info = self.cp.func(f);
            let base = self.cp.interner().resolve(info.name).to_owned();
            let name = if ctx == ContextTable::EMPTY {
                base
            } else {
                format!("{base}@{}", self.table.display(ctx))
            };
            let nf = self.builder.func(&name, info.formals.len());
            self.new_funcs.insert((f, ctx), nf);
            let ninfo = self.builder.func_info(nf).clone();
            self.record(info.object, ninfo.object);
            self.record(info.ret, ninfo.ret);
            for (orig, new) in info.formals.iter().zip(&ninfo.formals) {
                self.record(*orig, *new);
            }
        }
    }

    /// Phase B2: create all variable/temp/heap clones and shared nodes.
    fn create_nodes(&mut self) {
        for node in self.cp.node_ids() {
            match self.cp.node(node).kind {
                // Created with the functions / derived from parents.
                NodeKind::Formal { .. }
                | NodeKind::Ret { .. }
                | NodeKind::Func { .. }
                | NodeKind::Field { .. } => continue,
                NodeKind::Var { .. } | NodeKind::Temp { .. } | NodeKind::Heap { .. } => {}
            }
            if self.clone_eligible(node) {
                let owner = self.cp.owner_of(node).expect("eligible nodes are owned");
                let contexts: Vec<CtxId> = self
                    .pairs
                    .iter()
                    .filter(|(f, _)| *f == owner)
                    .map(|(_, c)| *c)
                    .collect();
                for ctx in contexts {
                    let new = self.fresh_like(node, ctx);
                    let nf = self.func_clone(owner, ctx);
                    self.builder.set_owner(new, nf);
                    self.owned_map.insert((node, ctx), new);
                    self.record(node, new);
                }
            } else {
                let new = self.fresh_like(node, ContextTable::EMPTY);
                if let Some(owner) = self.cp.owner_of(node) {
                    let nf = self.func_clone(owner, ContextTable::EMPTY);
                    self.builder.set_owner(new, nf);
                }
                self.shared_map.insert(node, new);
                self.record(node, new);
            }
        }
    }

    /// Creates a fresh node of the same kind as `node`, suffixing names
    /// with the context where needed for uniqueness.
    fn fresh_like(&mut self, node: NodeId, ctx: CtxId) -> NodeId {
        match self.cp.node(node).kind {
            NodeKind::Var { .. } => {
                let base = self.cp.display_node(node);
                let name = if ctx == ContextTable::EMPTY {
                    base
                } else {
                    format!("{base}@{}", self.table.display(ctx))
                };
                self.builder.var(&name)
            }
            NodeKind::Temp { .. } => self.builder.temp(),
            NodeKind::Heap { .. } => self.builder.heap(),
            _ => unreachable!("fresh_like is only called for vars/temps/heaps"),
        }
    }

    /// Phase B3: register field nodes on every clone of every parent.
    fn create_fields(&mut self) {
        // Sorted by original field-node id: parents precede nested fields.
        for (parent, field, orig_field) in self.cp.field_nodes() {
            let parents: Vec<NodeId> = self.clones.get(&parent).cloned().unwrap_or_default();
            for p in parents {
                let new = self.builder.field_node(p, field);
                self.record(orig_field, new);
            }
        }
    }

    /// Maps an original node under a context.
    fn map(&mut self, node: NodeId, ctx: CtxId) -> NodeId {
        if let Some(&n) = self.shared_map.get(&node) {
            return n;
        }
        if let Some(&n) = self.owned_map.get(&(node, ctx)) {
            return n;
        }
        match self.cp.node(node).kind {
            NodeKind::Formal { func, index } => {
                let nf = self.resolve_ctx_func(func, ctx);
                self.builder.func_info(nf).formals[index as usize]
            }
            NodeKind::Ret { func } => {
                let nf = self.resolve_ctx_func(func, ctx);
                self.builder.func_info(nf).ret
            }
            NodeKind::Func { func } => {
                let nf = self.func_clone(func, ContextTable::EMPTY);
                self.builder.func_info(nf).object
            }
            NodeKind::Field { parent, field } => {
                let p = self.map(parent, ctx);
                self.builder.field_node(p, field)
            }
            _ => {
                // An owned node referenced under a context its owner does
                // not have (possible only in hand-built programs mixing
                // owners): fall back to the context-free clone.
                self.owned_map
                    .get(&(node, ContextTable::EMPTY))
                    .copied()
                    .expect("owned nodes always have a context-free clone")
            }
        }
    }

    fn resolve_ctx_func(&self, f: FuncId, ctx: CtxId) -> FuncId {
        self.new_funcs
            .get(&(f, ctx))
            .copied()
            .unwrap_or_else(|| self.func_clone(f, ContextTable::EMPTY))
    }

    /// The owning function of a constraint: the first owned operand.
    fn constraint_owner(&self, nodes: &[NodeId]) -> Option<FuncId> {
        nodes.iter().find_map(|&n| self.cp.owner_of(n))
    }

    /// Contexts a constraint must be instantiated under.
    fn instantiation_ctxs(&self, nodes: &[NodeId]) -> Vec<CtxId> {
        match self.constraint_owner(nodes) {
            None => vec![ContextTable::EMPTY],
            Some(f) => self
                .pairs
                .iter()
                .filter(|(g, _)| *g == f)
                .map(|(_, c)| *c)
                .collect(),
        }
    }

    /// Phase B4: instantiate the primitive constraints.
    fn create_constraints(&mut self) {
        for i in 0..self.cp.addr_ofs().len() {
            let a = self.cp.addr_ofs()[i];
            for ctx in self.instantiation_ctxs(&[a.dst, a.obj]) {
                let (dst, obj) = (self.map(a.dst, ctx), self.map(a.obj, ctx));
                self.builder.addr_of(dst, obj);
            }
        }
        for i in 0..self.cp.copies().len() {
            let c = self.cp.copies()[i];
            for ctx in self.instantiation_ctxs(&[c.dst, c.src]) {
                let (dst, src) = (self.map(c.dst, ctx), self.map(c.src, ctx));
                self.builder.copy(dst, src);
            }
        }
        for i in 0..self.cp.loads().len() {
            let l = self.cp.loads()[i];
            for ctx in self.instantiation_ctxs(&[l.dst, l.ptr]) {
                let (dst, ptr) = (self.map(l.dst, ctx), self.map(l.ptr, ctx));
                self.builder.load(dst, ptr);
            }
        }
        for i in 0..self.cp.stores().len() {
            let s = self.cp.stores()[i];
            for ctx in self.instantiation_ctxs(&[s.ptr, s.src]) {
                let (ptr, src) = (self.map(s.ptr, ctx), self.map(s.src, ctx));
                self.builder.store(ptr, src);
            }
        }
        for i in 0..self.cp.field_addrs().len() {
            let fa = self.cp.field_addrs()[i];
            for ctx in self.instantiation_ctxs(&[fa.dst, fa.base]) {
                let (dst, base) = (self.map(fa.dst, ctx), self.map(fa.base, ctx));
                self.builder.field_addr(dst, base, fa.field);
            }
        }
    }

    /// Phase B5: devirtualize and retarget call sites per caller context.
    fn create_callsites(&mut self) {
        for cs in self.cp.callsites().indices() {
            let site = self.cp.callsite(cs).clone();
            let caller_ctxs: Vec<(Option<FuncId>, CtxId)> = match site.caller {
                Some(f) => self
                    .pairs
                    .iter()
                    .filter(|(g, _)| *g == f)
                    .map(|(_, c)| (Some(f), *c))
                    .collect(),
                None => vec![(None, ContextTable::EMPTY)],
            };
            // In the expansion the call graph is fixed: indirect sites
            // become one direct call per resolved target.
            let targets: Vec<FuncId> = match site.callee {
                CalleeRef::Direct(f) => vec![f],
                CalleeRef::Indirect(_) => self.cg.targets(cs).to_vec(),
            };
            for (caller, ctx) in caller_ctxs {
                let nctx = self.table.push(ctx, cs);
                let args: Vec<Option<NodeId>> = site
                    .args
                    .iter()
                    .map(|a| a.map(|n| self.map(n, ctx)))
                    .collect();
                let ret_dst = site.ret_dst.map(|n| self.map(n, ctx));
                for &t in &targets {
                    let callee = self.func_clone(t, nctx);
                    let new_cs = self.builder.call_direct(callee, args.clone(), ret_dst);
                    if let Some(f) = caller {
                        let nf = self.func_clone(f, ctx);
                        self.builder.set_caller(new_cs, nf);
                    }
                }
            }
        }
    }

    fn run(mut self) -> ClonedProgram {
        self.enumerate();
        self.create_funcs();
        self.create_nodes();
        self.create_fields();
        self.create_constraints();
        self.create_callsites();
        ClonedProgram {
            program: self.builder.build(),
            contexts: self.table,
            clone_count: self.pairs.len(),
            capped: self.capped,
            origin: self.origin,
            clones: self.clones,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_demand::{DemandConfig, DemandEngine};

    fn build_cg(cp: &ConstraintProgram) -> CallGraph {
        let mut engine = DemandEngine::new(cp, DemandConfig::default());
        CallGraph::from_demand(&mut engine).0
    }

    fn compile(src: &str) -> ConstraintProgram {
        ddpa_constraints::lower(&ddpa_ir::parse(src).expect("parses")).expect("checks and lowers")
    }

    #[test]
    fn k1_distinguishes_id_calls() {
        let cp = compile(
            "int a; int b; \
             int *id(int *p) { return p; } \
             void main() { int *r1 = id(&a); int *r2 = id(&b); }",
        );
        let cg = build_cg(&cp);
        let cloned = clone_expand(&cp, &cg, &CloneConfig::with_k(1));
        // id@[], main@[], id@[cs1], id@[cs2].
        assert_eq!(cloned.clone_count, 4);
        let sol = ddpa_anders::solve(&cloned.program);
        let r1 = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "main::r1")
            .expect("r1");
        let mut targets: Vec<NodeId> = Vec::new();
        for &c in cloned.clones_of(r1) {
            for t in sol.pts_nodes(c) {
                targets.push(cloned.origin_of(t).expect("clone has origin"));
            }
        }
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 1, "k=1 keeps the two id() calls apart");
    }

    #[test]
    fn k0_matches_context_insensitive() {
        let cp = compile(
            "int a; int b; \
             int *id(int *p) { return p; } \
             void main() { int *r1 = id(&a); int *r2 = id(&b); }",
        );
        let cg = build_cg(&cp);
        let cloned = clone_expand(&cp, &cg, &CloneConfig::with_k(0));
        assert_eq!(cloned.clone_count, cp.funcs().len());
        let ci = ddpa_anders::solve(&cp);
        let sol = ddpa_anders::solve(&cloned.program);
        for node in cp.node_ids() {
            let mut projected: Vec<NodeId> = Vec::new();
            for &c in cloned.clones_of(node) {
                for t in sol.pts_nodes(c) {
                    projected.push(cloned.origin_of(t).expect("origin"));
                }
            }
            projected.sort_unstable();
            projected.dedup();
            assert_eq!(
                projected,
                ci.pts_nodes(node),
                "k=0 differs at {}",
                cp.display_node(node)
            );
        }
    }

    #[test]
    fn recursion_terminates_and_stays_sound() {
        let cp = compile(
            "int g; \
             int *walk(int *p) { if (g == 0) return p; int *r = walk(p); return r; } \
             void main() { int *x = walk(&g); }",
        );
        let cg = build_cg(&cp);
        for k in [0usize, 1, 2] {
            let cloned = clone_expand(&cp, &cg, &CloneConfig::with_k(k));
            let sol = ddpa_anders::solve(&cloned.program);
            let x = cp
                .node_ids()
                .find(|&n| cp.display_node(n) == "main::x")
                .expect("x");
            let mut projected: Vec<String> = Vec::new();
            for &c in cloned.clones_of(x) {
                for t in sol.pts_nodes(c) {
                    projected.push(cp.display_node(cloned.origin_of(t).expect("origin")));
                }
            }
            projected.sort();
            projected.dedup();
            assert_eq!(projected, vec!["g"], "k={k}");
        }
    }

    #[test]
    fn clone_cap_merges_gracefully() {
        let cp = compile(
            "int a; \
             int *l3(int *p) { return p; } \
             int *l2(int *p) { return l3(p); } \
             int *l1(int *p) { return l2(p); } \
             void main() { int *r = l1(&a); int *s = l1(r); }",
        );
        let cg = build_cg(&cp);
        let config = CloneConfig {
            k: 3,
            max_clones: 5,
            clone_heap: true,
        };
        let cloned = clone_expand(&cp, &cg, &config);
        assert!(cloned.capped);
        assert!(cloned.clone_count <= 5);
        // Still sound: r resolves to a.
        let sol = ddpa_anders::solve(&cloned.program);
        let r = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "main::r")
            .expect("r");
        let found = cloned.clones_of(r).iter().any(|&c| {
            sol.pts_nodes(c)
                .iter()
                .any(|&t| cp.display_node(cloned.origin_of(t).expect("origin")) == "a")
        });
        assert!(found);
    }

    #[test]
    fn heap_cloning_distinguishes_wrapper_allocations() {
        let cp = compile(
            "int *wrap() { int *p = malloc(); return p; } \
             void main() { int *x = wrap(); int *y = wrap(); }",
        );
        let cg = build_cg(&cp);
        // With heap cloning, x and y get different allocation sites.
        let with = clone_expand(&cp, &cg, &CloneConfig::with_k(1));
        let sol = ddpa_anders::solve(&with.program);
        let x = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "main::x")
            .expect("x");
        let y = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "main::y")
            .expect("y");
        let set_of = |node: NodeId, cloned: &ClonedProgram, sol: &ddpa_anders::Solution| {
            let mut v: Vec<NodeId> = Vec::new();
            for &c in cloned.clones_of(node) {
                v.extend(sol.pts_nodes(c));
            }
            v.sort_unstable();
            v.dedup();
            v
        };
        let (xs, ys) = (set_of(x, &with, &sol), set_of(y, &with, &sol));
        assert!(!xs.is_empty() && !ys.is_empty());
        assert_ne!(xs, ys, "cloned heap sites are distinct");

        // Without heap cloning they share the allocation site.
        let without = clone_expand(
            &cp,
            &cg,
            &CloneConfig {
                clone_heap: false,
                ..CloneConfig::with_k(1)
            },
        );
        let sol = ddpa_anders::solve(&without.program);
        let (xs, ys) = (set_of(x, &without, &sol), set_of(y, &without, &sol));
        assert_eq!(xs, ys, "shared heap site");
    }
}
