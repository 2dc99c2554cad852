//! The immutable, fully indexed constraint program and its builder.

use std::collections::HashMap;

use ddpa_support::{IndexVec, Interner, Symbol};

use crate::model::{CallSite, CallSiteId, CalleeRef, FuncId, FuncInfo, NodeId, NodeInfo, NodeKind};

/// `dst = &obj`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrOf {
    /// The pointer receiving the address.
    pub dst: NodeId,
    /// The location whose address is taken.
    pub obj: NodeId,
}

/// `dst = src` (called *copy* in the paper; named `Assign` here to avoid
/// clashing with the `Copy` trait).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assign {
    /// The destination.
    pub dst: NodeId,
    /// The source.
    pub src: NodeId,
}

/// `dst = *ptr`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Load {
    /// The destination.
    pub dst: NodeId,
    /// The dereferenced pointer.
    pub ptr: NodeId,
}

/// `*ptr = src`
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Store {
    /// The dereferenced pointer.
    pub ptr: NodeId,
    /// The stored value.
    pub src: NodeId,
}

/// `dst = &base->field` (field-sensitive extension): for every object
/// `o ∈ pts(base)` that has the field, `pts(dst) ∋ o.field`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldAddr {
    /// The pointer receiving the field address.
    pub dst: NodeId,
    /// The pointer to the containing object.
    pub base: NodeId,
    /// Field index.
    pub field: u32,
}

/// Builds a [`ConstraintProgram`] incrementally.
///
/// # Examples
///
/// ```
/// use ddpa_constraints::ConstraintBuilder;
///
/// let mut b = ConstraintBuilder::new();
/// let x = b.var("x");
/// let y = b.var("y");
/// b.addr_of(x, y); // x = &y
/// let cp = b.build();
/// assert_eq!(cp.num_nodes(), 2);
/// assert!(cp.is_address_taken(y));
/// ```
#[derive(Debug, Default)]
pub struct ConstraintBuilder {
    interner: Interner,
    nodes: IndexVec<NodeId, NodeInfo>,
    funcs: IndexVec<FuncId, FuncInfo>,
    callsites: IndexVec<CallSiteId, CallSite>,
    addr_ofs: Vec<AddrOf>,
    copies: Vec<Assign>,
    loads: Vec<Load>,
    stores: Vec<Store>,
    field_addrs: Vec<FieldAddr>,
    field_nodes: HashMap<(NodeId, u32), NodeId>,
    /// The variable node named by each symbol, if any.
    var_of: IndexVec<Symbol, Option<NodeId>>,
    funcs_by_name: HashMap<Symbol, FuncId>,
    owners: HashMap<NodeId, FuncId>,
    temp_seq: u32,
    heap_seq: u32,
    /// Rows for everything up to `indexed`; [`Self::build`] indexes the
    /// rest. Both are empty for a fresh builder.
    index: ProgramIndex,
    indexed: ProgramMark,
}

/// The sizes of a program's tables at one point of its construction:
/// everything past a mark was added after it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ProgramMark {
    pub(crate) nodes: usize,
    symbols: usize,
    pub(crate) addr_ofs: usize,
    pub(crate) copies: usize,
    pub(crate) loads: usize,
    pub(crate) stores: usize,
    pub(crate) field_addrs: usize,
    pub(crate) callsites: usize,
}

impl ConstraintBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a name.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Returns the node for named variable `name`, creating it on first use.
    pub fn var(&mut self, name: &str) -> NodeId {
        let sym = self.interner.intern(name);
        if let Some(node) = self.lookup_sym(sym) {
            return node;
        }
        let node = self.nodes.push(NodeInfo {
            kind: NodeKind::Var { name: sym },
        });
        *self.var_of.ensure(sym, || None) = Some(node);
        node
    }

    fn lookup_sym(&self, sym: Symbol) -> Option<NodeId> {
        self.var_of.get(sym).copied().flatten()
    }

    /// Looks up a named variable without creating it.
    pub fn lookup_var(&self, name: &str) -> Option<NodeId> {
        self.lookup_sym(self.interner.lookup(name)?)
    }

    /// Creates a fresh temporary node.
    pub fn temp(&mut self) -> NodeId {
        let seq = self.temp_seq;
        self.temp_seq += 1;
        self.nodes.push(NodeInfo {
            kind: NodeKind::Temp { seq },
        })
    }

    /// Creates a fresh heap allocation-site node.
    pub fn heap(&mut self) -> NodeId {
        let seq = self.heap_seq;
        self.heap_seq += 1;
        self.nodes.push(NodeInfo {
            kind: NodeKind::Heap { seq },
        })
    }

    /// Returns the node for field `field` of `parent`, creating it on
    /// first use. Field nodes are distinct pointable locations.
    pub fn field_node(&mut self, parent: NodeId, field: u32) -> NodeId {
        if let Some(&node) = self.field_nodes.get(&(parent, field)) {
            return node;
        }
        let node = self.nodes.push(NodeInfo {
            kind: NodeKind::Field { parent, field },
        });
        self.field_nodes.insert((parent, field), node);
        node
    }

    /// Looks up a field node without creating it.
    pub fn lookup_field(&self, parent: NodeId, field: u32) -> Option<NodeId> {
        self.field_nodes.get(&(parent, field)).copied()
    }

    /// Declares a function with `arity` formals, creating its object,
    /// formal, and return nodes. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with this name was already declared.
    pub fn func(&mut self, name: &str, arity: usize) -> FuncId {
        let sym = self.interner.intern(name);
        assert!(
            !self.funcs_by_name.contains_key(&sym),
            "function `{name}` declared twice"
        );
        let func = self.funcs.next_index();
        let object = self.nodes.push(NodeInfo {
            kind: NodeKind::Func { func },
        });
        let formals = (0..arity)
            .map(|index| {
                self.nodes.push(NodeInfo {
                    kind: NodeKind::Formal {
                        func,
                        index: index as u32,
                    },
                })
            })
            .collect();
        let ret = self.nodes.push(NodeInfo {
            kind: NodeKind::Ret { func },
        });
        let id = self.funcs.push(FuncInfo {
            name: sym,
            object,
            formals,
            ret,
        });
        debug_assert_eq!(id, func);
        self.funcs_by_name.insert(sym, func);
        func
    }

    /// Looks up a function by name.
    pub fn lookup_func(&self, name: &str) -> Option<FuncId> {
        let sym = self.interner.lookup(name)?;
        self.funcs_by_name.get(&sym).copied()
    }

    /// Returns a function's metadata.
    pub fn func_info(&self, func: FuncId) -> &FuncInfo {
        &self.funcs[func]
    }

    /// Adds `dst = &obj`.
    pub fn addr_of(&mut self, dst: NodeId, obj: NodeId) -> &mut Self {
        self.addr_ofs.push(AddrOf { dst, obj });
        self
    }

    /// Adds `dst = src`.
    pub fn copy(&mut self, dst: NodeId, src: NodeId) -> &mut Self {
        self.copies.push(Assign { dst, src });
        self
    }

    /// Adds `dst = *ptr`.
    pub fn load(&mut self, dst: NodeId, ptr: NodeId) -> &mut Self {
        self.loads.push(Load { dst, ptr });
        self
    }

    /// Adds `*ptr = src`.
    pub fn store(&mut self, ptr: NodeId, src: NodeId) -> &mut Self {
        self.stores.push(Store { ptr, src });
        self
    }

    /// Adds `dst = &base->field`.
    ///
    /// Only objects for which [`Self::field_node`] was called with this
    /// `field` produce a target; other objects flowing into `base` are
    /// skipped (accessing a field they do not have is undefined behavior
    /// and not modeled, as is conventional).
    pub fn field_addr(&mut self, dst: NodeId, base: NodeId, field: u32) -> &mut Self {
        self.field_addrs.push(FieldAddr { dst, base, field });
        self
    }

    /// Adds a direct call site.
    pub fn call_direct(
        &mut self,
        func: FuncId,
        args: Vec<Option<NodeId>>,
        ret_dst: Option<NodeId>,
    ) -> CallSiteId {
        self.callsites.push(CallSite {
            callee: CalleeRef::Direct(func),
            args,
            ret_dst,
            caller: None,
        })
    }

    /// Adds an indirect call site through function pointer `fp`.
    pub fn call_indirect(
        &mut self,
        fp: NodeId,
        args: Vec<Option<NodeId>>,
        ret_dst: Option<NodeId>,
    ) -> CallSiteId {
        self.callsites.push(CallSite {
            callee: CalleeRef::Indirect(fp),
            args,
            ret_dst,
            caller: None,
        })
    }

    /// Records the function containing call site `cs`.
    pub fn set_caller(&mut self, cs: CallSiteId, caller: FuncId) {
        self.callsites[cs].caller = Some(caller);
    }

    /// Records that `node` (a local variable, temporary, or heap site)
    /// belongs to `func`. Formals and return slots are owned implicitly.
    pub fn set_owner(&mut self, node: NodeId, func: FuncId) {
        self.owners.insert(node, func);
    }

    /// The builder's current sizes.
    pub(crate) fn mark(&self) -> ProgramMark {
        ProgramMark {
            nodes: self.nodes.len(),
            symbols: self.interner.len(),
            addr_ofs: self.addr_ofs.len(),
            copies: self.copies.len(),
            loads: self.loads.len(),
            stores: self.stores.len(),
            field_addrs: self.field_addrs.len(),
            callsites: self.callsites.len(),
        }
    }

    /// Drops what parsing constraint lines added since `mark`: variable
    /// nodes (with their names and symbols), constraints and call sites.
    /// Must not cross the last build.
    pub(crate) fn rollback(&mut self, mark: &ProgramMark) {
        debug_assert!(mark.nodes >= self.indexed.nodes && mark.callsites >= self.indexed.callsites);
        for info in &self.nodes.as_slice()[mark.nodes..] {
            match info.kind {
                NodeKind::Var { name } => self.var_of[name] = None,
                _ => unreachable!("constraint lines only create variables"),
            }
        }
        self.nodes.truncate(mark.nodes);
        self.interner.truncate(mark.symbols);
        self.var_of.truncate(mark.symbols);
        self.addr_ofs.truncate(mark.addr_ofs);
        self.copies.truncate(mark.copies);
        self.loads.truncate(mark.loads);
        self.stores.truncate(mark.stores);
        self.field_addrs.truncate(mark.field_addrs);
        self.callsites.truncate(mark.callsites);
    }

    /// Finalizes the program, computing all indexes.
    ///
    /// A builder resumed from a program indexes only what was added
    /// since; a fresh one indexes everything, over rows sized once.
    pub fn build(mut self) -> ConstraintProgram {
        self.index_tail();
        ConstraintProgram {
            interner: self.interner,
            nodes: self.nodes,
            funcs: self.funcs,
            callsites: self.callsites,
            addr_ofs: self.addr_ofs,
            copies: self.copies,
            loads: self.loads,
            stores: self.stores,
            field_addrs: self.field_addrs,
            field_nodes: self.field_nodes,
            var_of: self.var_of,
            funcs_by_name: self.funcs_by_name,
            owners: self.owners,
            temp_seq: self.temp_seq,
            heap_seq: self.heap_seq,
            index: self.index,
        }
    }

    /// Grows the rows to the current node and function counts, then
    /// indexes every constraint and call site past `indexed`.
    fn index_tail(&mut self) {
        let from = self.indexed;
        let index = &mut self.index;
        index.grow(self.nodes.len(), self.funcs.len());
        for a in &self.addr_ofs[from.addr_ofs..] {
            index.addr_objs_of[a.dst].push(a.obj);
            index.addr_dsts_of[a.obj].push(a.dst);
            index.address_taken[a.obj] = true;
        }
        for c in &self.copies[from.copies..] {
            index.copy_srcs_of[c.dst].push(c.src);
            index.copy_dsts_of[c.src].push(c.dst);
        }
        for l in &self.loads[from.loads..] {
            index.load_ptrs_of[l.dst].push(l.ptr);
            index.load_dsts_of[l.ptr].push(l.dst);
        }
        for s in &self.stores[from.stores..] {
            index.store_srcs_of[s.ptr].push(s.src);
            index.store_ptrs_of[s.src].push(s.ptr);
        }
        for fa in &self.field_addrs[from.field_addrs..] {
            index.field_addrs_of[fa.dst].push((fa.base, fa.field));
            index.field_addrs_from[fa.base].push((fa.field, fa.dst));
        }
        let sites = &self.callsites.as_slice()[from.callsites..];
        for (i, cs) in sites.iter().enumerate() {
            let cs_id = CallSiteId::from_u32((from.callsites + i) as u32);
            for (pos, arg) in cs.args.iter().enumerate() {
                if let Some(node) = arg {
                    index.arg_uses_of[*node].push((cs_id, pos as u32));
                }
            }
            if let Some(dst) = cs.ret_dst {
                index.ret_dst_uses_of[dst].push(cs_id);
            }
            match cs.callee {
                CalleeRef::Direct(func) => index.direct_callsites_of[func].push(cs_id),
                CalleeRef::Indirect(fp) => {
                    index.fp_uses_of[fp].push(cs_id);
                    index.indirect_callsites.push(cs_id);
                }
            }
        }
        self.indexed = self.mark();
    }
}

#[derive(Debug, Default)]
struct ProgramIndex {
    addr_objs_of: IndexVec<NodeId, Vec<NodeId>>,
    addr_dsts_of: IndexVec<NodeId, Vec<NodeId>>,
    copy_srcs_of: IndexVec<NodeId, Vec<NodeId>>,
    copy_dsts_of: IndexVec<NodeId, Vec<NodeId>>,
    load_ptrs_of: IndexVec<NodeId, Vec<NodeId>>,
    load_dsts_of: IndexVec<NodeId, Vec<NodeId>>,
    store_srcs_of: IndexVec<NodeId, Vec<NodeId>>,
    store_ptrs_of: IndexVec<NodeId, Vec<NodeId>>,
    field_addrs_of: IndexVec<NodeId, Vec<(NodeId, u32)>>,
    field_addrs_from: IndexVec<NodeId, Vec<(u32, NodeId)>>,
    arg_uses_of: IndexVec<NodeId, Vec<(CallSiteId, u32)>>,
    ret_dst_uses_of: IndexVec<NodeId, Vec<CallSiteId>>,
    fp_uses_of: IndexVec<NodeId, Vec<CallSiteId>>,
    address_taken: IndexVec<NodeId, bool>,
    direct_callsites_of: IndexVec<FuncId, Vec<CallSiteId>>,
    indirect_callsites: Vec<CallSiteId>,
}

impl ProgramIndex {
    /// Extends every per-node row to `n` nodes and the per-function row
    /// to `f` functions.
    fn grow(&mut self, n: usize, f: usize) {
        for rows in [
            &mut self.addr_objs_of,
            &mut self.addr_dsts_of,
            &mut self.copy_srcs_of,
            &mut self.copy_dsts_of,
            &mut self.load_ptrs_of,
            &mut self.load_dsts_of,
            &mut self.store_srcs_of,
            &mut self.store_ptrs_of,
        ] {
            rows.resize(n, Vec::new());
        }
        self.field_addrs_of.resize(n, Vec::new());
        self.field_addrs_from.resize(n, Vec::new());
        self.arg_uses_of.resize(n, Vec::new());
        self.ret_dst_uses_of.resize(n, Vec::new());
        self.fp_uses_of.resize(n, Vec::new());
        self.address_taken.resize(n, false);
        self.direct_callsites_of.resize(f, Vec::new());
    }
}

/// A constraint program with bidirectional indexes.
///
/// Built with [`ConstraintBuilder`], [`crate::lower()`], or
/// [`crate::parse_constraints`]; [`crate::append_constraints`] extends
/// one in place. The default program is empty.
#[derive(Debug, Default)]
pub struct ConstraintProgram {
    interner: Interner,
    nodes: IndexVec<NodeId, NodeInfo>,
    funcs: IndexVec<FuncId, FuncInfo>,
    callsites: IndexVec<CallSiteId, CallSite>,
    addr_ofs: Vec<AddrOf>,
    copies: Vec<Assign>,
    loads: Vec<Load>,
    stores: Vec<Store>,
    field_addrs: Vec<FieldAddr>,
    field_nodes: HashMap<(NodeId, u32), NodeId>,
    /// The builder's name tables and counters, kept so the program can
    /// resume building ([`Self::into_builder`]).
    var_of: IndexVec<Symbol, Option<NodeId>>,
    funcs_by_name: HashMap<Symbol, FuncId>,
    owners: HashMap<NodeId, FuncId>,
    temp_seq: u32,
    heap_seq: u32,
    index: ProgramIndex,
}

impl ConstraintProgram {
    /// Resumes building: the builder continues minting ids after this
    /// program's, and its [`ConstraintBuilder::build`] indexes only what
    /// is added from here on.
    pub(crate) fn into_builder(self) -> ConstraintBuilder {
        let mut b = ConstraintBuilder {
            interner: self.interner,
            nodes: self.nodes,
            funcs: self.funcs,
            callsites: self.callsites,
            addr_ofs: self.addr_ofs,
            copies: self.copies,
            loads: self.loads,
            stores: self.stores,
            field_addrs: self.field_addrs,
            field_nodes: self.field_nodes,
            var_of: self.var_of,
            funcs_by_name: self.funcs_by_name,
            owners: self.owners,
            temp_seq: self.temp_seq,
            heap_seq: self.heap_seq,
            index: self.index,
            indexed: ProgramMark::default(),
        };
        b.indexed = b.mark();
        b
    }

    /// Number of abstract locations.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        self.nodes.indices()
    }

    /// Metadata for `node`.
    pub fn node(&self, node: NodeId) -> &NodeInfo {
        &self.nodes[node]
    }

    /// All `dst = &obj` constraints.
    pub fn addr_ofs(&self) -> &[AddrOf] {
        &self.addr_ofs
    }

    /// All `dst = src` constraints.
    pub fn copies(&self) -> &[Assign] {
        &self.copies
    }

    /// All `dst = *ptr` constraints.
    pub fn loads(&self) -> &[Load] {
        &self.loads
    }

    /// All `*ptr = src` constraints.
    pub fn stores(&self) -> &[Store] {
        &self.stores
    }

    /// All `dst = &base->field` constraints.
    pub fn field_addrs(&self) -> &[FieldAddr] {
        &self.field_addrs
    }

    /// The field node for `(parent, field)`, if the program declared one.
    pub fn field_of(&self, parent: NodeId, field: u32) -> Option<NodeId> {
        self.field_nodes.get(&(parent, field)).copied()
    }

    /// Field-address constraints writing into `node`
    /// (`node = &base->field` as `(base, field)` pairs).
    pub fn field_addrs_of(&self, node: NodeId) -> &[(NodeId, u32)] {
        &self.index.field_addrs_of[node]
    }

    /// All field-node declarations as `(parent, field, node)`, sorted by
    /// node id (parents always precede their nested fields).
    pub fn field_nodes(&self) -> Vec<(NodeId, u32, NodeId)> {
        let mut decls: Vec<(NodeId, u32, NodeId)> = self
            .field_nodes
            .iter()
            .map(|(&(parent, field), &node)| (parent, field, node))
            .collect();
        decls.sort_by_key(|&(_, _, node)| node);
        decls
    }

    /// Field-address constraints reading through `node`
    /// (`dst = &node->field` as `(field, dst)` pairs).
    pub fn field_addrs_from(&self, node: NodeId) -> &[(u32, NodeId)] {
        &self.index.field_addrs_from[node]
    }

    /// All functions.
    pub fn funcs(&self) -> &IndexVec<FuncId, FuncInfo> {
        &self.funcs
    }

    /// Metadata for `func`.
    pub fn func(&self, func: FuncId) -> &FuncInfo {
        &self.funcs[func]
    }

    /// All call sites.
    pub fn callsites(&self) -> &IndexVec<CallSiteId, CallSite> {
        &self.callsites
    }

    /// Metadata for `cs`.
    pub fn callsite(&self, cs: CallSiteId) -> &CallSite {
        &self.callsites[cs]
    }

    /// The interner resolving symbols in this program.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Objects whose address `node` takes (`node = &obj` constraints).
    pub fn addr_objs_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.addr_objs_of[node]
    }

    /// Pointers that take `node`'s address.
    pub fn addr_dsts_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.addr_dsts_of[node]
    }

    /// Copy sources flowing into `node` (`node = src`).
    pub fn copy_srcs_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.copy_srcs_of[node]
    }

    /// Copy destinations fed by `node` (`dst = node`).
    pub fn copy_dsts_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.copy_dsts_of[node]
    }

    /// Pointers loaded into `node` (`node = *ptr`).
    pub fn load_ptrs_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.load_ptrs_of[node]
    }

    /// Destinations of loads through `node` (`dst = *node`).
    pub fn load_dsts_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.load_dsts_of[node]
    }

    /// Sources of stores through `node` (`*node = src`).
    pub fn store_srcs_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.store_srcs_of[node]
    }

    /// Pointers stored through with `node` as source (`*ptr = node`).
    pub fn store_ptrs_of(&self, node: NodeId) -> &[NodeId] {
        &self.index.store_ptrs_of[node]
    }

    /// Call sites (and positions) where `node` is an actual argument.
    pub fn arg_uses_of(&self, node: NodeId) -> &[(CallSiteId, u32)] {
        &self.index.arg_uses_of[node]
    }

    /// Call sites whose return value flows into `node`.
    pub fn ret_dst_uses_of(&self, node: NodeId) -> &[CallSiteId] {
        &self.index.ret_dst_uses_of[node]
    }

    /// Indirect call sites whose function pointer is `node`.
    pub fn fp_uses_of(&self, node: NodeId) -> &[CallSiteId] {
        &self.index.fp_uses_of[node]
    }

    /// Returns `true` if `node` can be pointed to (its address is taken,
    /// or it is a heap or function object).
    pub fn is_address_taken(&self, node: NodeId) -> bool {
        self.index.address_taken[node]
            || matches!(
                self.nodes[node].kind,
                NodeKind::Heap { .. } | NodeKind::Func { .. } | NodeKind::Field { .. }
            )
    }

    /// Direct call sites of `func`.
    pub fn direct_callsites_of(&self, func: FuncId) -> &[CallSiteId] {
        &self.index.direct_callsites_of[func]
    }

    /// All indirect call sites.
    pub fn indirect_callsites(&self) -> &[CallSiteId] {
        &self.index.indirect_callsites
    }

    /// Functions whose address is taken anywhere — the sound fallback
    /// target set for an unresolved indirect call.
    pub fn address_taken_funcs(&self) -> Vec<FuncId> {
        self.funcs
            .iter_enumerated()
            .filter(|(_, info)| !self.index.addr_dsts_of[info.object].is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// The function owning `node`, if known: explicit for locals, temps
    /// and heap sites registered with [`ConstraintBuilder::set_owner`];
    /// implicit for formals, return slots, and field nodes (the parent's
    /// owner).
    pub fn owner_of(&self, node: NodeId) -> Option<FuncId> {
        match self.nodes[node].kind {
            NodeKind::Formal { func, .. } | NodeKind::Ret { func } => Some(func),
            NodeKind::Field { parent, .. } => self.owner_of(parent),
            NodeKind::Func { .. } => None,
            NodeKind::Var { .. } | NodeKind::Temp { .. } | NodeKind::Heap { .. } => {
                self.owners.get(&node).copied()
            }
        }
    }

    /// A human-readable name for `node` (for diagnostics and dumps).
    pub fn display_node(&self, node: NodeId) -> String {
        match self.nodes[node].kind {
            NodeKind::Var { name } => self.interner.resolve(name).to_owned(),
            NodeKind::Temp { seq } => format!("%t{seq}"),
            NodeKind::Heap { seq } => format!("@heap{seq}"),
            NodeKind::Func { func } => {
                format!("@fn_{}", self.interner.resolve(self.funcs[func].name))
            }
            NodeKind::Formal { func, index } => {
                format!(
                    "{}::arg{index}",
                    self.interner.resolve(self.funcs[func].name)
                )
            }
            NodeKind::Ret { func } => {
                format!("{}::ret", self.interner.resolve(self.funcs[func].name))
            }
            NodeKind::Field { parent, field } => {
                format!("{}.f{}", self.display_node(parent), field)
            }
        }
    }

    /// Total number of primitive constraints (excluding call sites).
    pub fn num_constraints(&self) -> usize {
        self.addr_ofs.len()
            + self.copies.len()
            + self.loads.len()
            + self.stores.len()
            + self.field_addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_creates_function_nodes() {
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 2);
        let info = b.func_info(f).clone();
        assert_eq!(info.formals.len(), 2);
        let cp = b.build();
        assert_eq!(cp.num_nodes(), 4); // object + 2 formals + ret
        assert!(cp.node(info.object).is_func());
        assert!(cp.is_address_taken(info.object));
    }

    #[test]
    fn var_is_deduplicated() {
        let mut b = ConstraintBuilder::new();
        let x1 = b.var("x");
        let x2 = b.var("x");
        let y = b.var("y");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn indexes_are_bidirectional() {
        let mut b = ConstraintBuilder::new();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.addr_of(x, y);
        b.copy(z, x);
        b.load(z, x);
        b.store(x, z);
        let cp = b.build();
        assert_eq!(cp.addr_objs_of(x), &[y]);
        assert_eq!(cp.addr_dsts_of(y), &[x]);
        assert_eq!(cp.copy_srcs_of(z), &[x]);
        assert_eq!(cp.copy_dsts_of(x), &[z]);
        assert_eq!(cp.load_ptrs_of(z), &[x]);
        assert_eq!(cp.load_dsts_of(x), &[z]);
        assert_eq!(cp.store_srcs_of(x), &[z]);
        assert_eq!(cp.store_ptrs_of(z), &[x]);
        assert!(cp.is_address_taken(y));
        assert!(!cp.is_address_taken(x));
    }

    #[test]
    fn call_indexes() {
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 1);
        let (fp, a, r) = (b.var("fp"), b.var("a"), b.var("r"));
        let cs1 = b.call_direct(f, vec![Some(a)], Some(r));
        let cs2 = b.call_indirect(fp, vec![None], None);
        let cp = b.build();
        assert_eq!(cp.direct_callsites_of(f), &[cs1]);
        assert_eq!(cp.indirect_callsites(), &[cs2]);
        assert_eq!(cp.fp_uses_of(fp), &[cs2]);
        assert_eq!(cp.arg_uses_of(a), &[(cs1, 0)]);
        assert_eq!(cp.ret_dst_uses_of(r), &[cs1]);
    }

    #[test]
    fn address_taken_funcs_requires_addrof() {
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 0);
        let g = b.func("g", 0);
        let fp = b.var("fp");
        let g_obj = b.func_info(g).object;
        b.addr_of(fp, g_obj);
        let cp = b.build();
        assert_eq!(cp.address_taken_funcs(), vec![g]);
        // But the function object itself is still a pointable location.
        assert!(cp.is_address_taken(cp.func(f).object));
    }

    #[test]
    fn display_names() {
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 1);
        let x = b.var("x");
        let t = b.temp();
        let h = b.heap();
        let info = b.func_info(f).clone();
        let cp = b.build();
        assert_eq!(cp.display_node(x), "x");
        assert_eq!(cp.display_node(t), "%t0");
        assert_eq!(cp.display_node(h), "@heap0");
        assert_eq!(cp.display_node(info.object), "@fn_f");
        assert_eq!(cp.display_node(info.formals[0]), "f::arg0");
        assert_eq!(cp.display_node(info.ret), "f::ret");
    }
}
