//! Lowering MiniC ASTs to constraint programs.
//!
//! The lowering normalizes MiniC's expression forms into the primitive
//! constraints, introducing temporaries for multi-level dereferences and
//! materialized addresses exactly as a C frontend would:
//!
//! * `x = **p`   becomes `t0 = *p; x = *t0`
//! * `**p = y`   becomes `t0 = *p; *t0 = y`
//! * `f(&g)`     becomes `t0 = &g; call f(t0)`
//! * `p = malloc()` allocates a fresh heap node `h` and emits `p = &h`
//!
//! Struct members lower to the field-sensitive constraint forms:
//!
//! * `&x.f`      is the field node `x.f` itself (created at `x`'s declaration)
//! * `&p->f`     becomes `t0 = &p->f` (a [`crate::FieldAddr`] constraint)
//! * `p->f` (read)  becomes `t0 = &p->f; t1 = *t0`
//! * `p->f = e`     becomes `t0 = &p->f; *t0 = e`
//! * `struct S *p = malloc()` types the heap object, creating its field
//!   nodes, so later `p->f` accesses resolve; mallocs whose struct type
//!   cannot be seen at the assignment get untyped (field-less) objects.
//!
//! Locals are scope-resolved and renamed apart (`main::x`, `main::x.2`, …)
//! so the constraint program needs no scope information. Function
//! designators decay to their function-object address (`fp = f` emits
//! `fp = &@fn_f`), and calls through pointer variables or explicit derefs
//! become indirect call sites resolved during analysis.

use std::collections::HashMap;

use ddpa_ir::ast::{self, BaseTy, Callee, Cond, Expr, FieldSel, Item, Place, Stmt, Ty};

use crate::model::{FuncId, NodeId};
use crate::program::{ConstraintBuilder, ConstraintProgram};

/// Checks a MiniC program ([`ddpa_ir::check()`]) and lowers it to its
/// constraint program. Every MiniC entry point lowers through here, so
/// the programs that lower are exactly the programs that check.
///
/// The lowering trusts the checker: where it relies on a checked rule it
/// names that rule in a panic message, which a checked program never
/// reaches.
///
/// # Errors
///
/// Returns every check error if the program breaks a static rule;
/// nothing is lowered then.
///
/// # Examples
///
/// ```
/// let program = ddpa_ir::parse("int g; void main() { int *p = &g; *p = 1; }")?;
/// let cp = ddpa_constraints::lower(&program)?;
/// assert_eq!(cp.addr_ofs().len(), 1); // p = &g
/// assert!(cp.stores().is_empty());    // *p = 1 stores no pointer
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lower(program: &ast::Program) -> Result<ConstraintProgram, ddpa_ir::CheckErrors> {
    ddpa_ir::check(program)?;
    let mut lowerer = Lowerer::new(program);
    lowerer.run();
    Ok(lowerer.builder.build())
}

/// The value an expression lowers to.
#[derive(Clone, Copy, Debug)]
enum Value {
    /// No pointer value (null, integers).
    None,
    /// The value held in a node.
    Node(NodeId),
    /// The address of a node (not yet materialized into a temporary).
    Addr(NodeId),
}

/// What a name resolves to.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// A variable node with its declared type.
    Node(NodeId, Ty),
    /// A function.
    Func(FuncId),
}

struct Lowerer<'a> {
    ast: &'a ast::Program,
    builder: ConstraintBuilder,
    structs: HashMap<ddpa_support::Symbol, Vec<(ddpa_support::Symbol, Ty)>>,
    globals: HashMap<ddpa_support::Symbol, (NodeId, Ty)>,
    funcs: HashMap<ddpa_support::Symbol, FuncId>,
    /// Lexical scopes of the function currently being lowered.
    scopes: Vec<HashMap<ddpa_support::Symbol, (NodeId, Ty)>>,
    /// Disambiguation counters for shadowed local names.
    local_counts: HashMap<String, u32>,
    /// Source names of declared functions, for qualifying locals.
    func_names: HashMap<FuncId, String>,
    /// Formal parameter types, by formal node.
    current_func: Option<FuncId>,
}

impl<'a> Lowerer<'a> {
    fn new(ast: &'a ast::Program) -> Self {
        Lowerer {
            ast,
            builder: ConstraintBuilder::new(),
            structs: HashMap::new(),
            globals: HashMap::new(),
            funcs: HashMap::new(),
            scopes: Vec::new(),
            local_counts: HashMap::new(),
            func_names: HashMap::new(),
            current_func: None,
        }
    }

    fn run(&mut self) {
        // Pass 0: struct declarations.
        for item in &self.ast.items {
            if let Item::Struct(decl) = item {
                self.structs.insert(decl.name, decl.fields.clone());
            }
        }

        // Pass 1: declare globals and functions so forward references work.
        for item in &self.ast.items {
            match item {
                Item::Struct(_) => {}
                Item::Global(g) => {
                    let name = self.ast.name(g.name).to_owned();
                    let node = self.builder.var(&name);
                    if let Some(_len) = g.array {
                        // Monolithic array: one storage object; the name
                        // decays to its address.
                        let storage = self.builder.var(&format!("{name}[]"));
                        self.builder.addr_of(node, storage);
                        let decayed = Ty {
                            base: g.ty.base,
                            depth: g.ty.depth + 1,
                        };
                        self.globals.insert(g.name, (node, decayed));
                    } else {
                        self.globals.insert(g.name, (node, g.ty));
                        self.declare_fields_if_struct(node, g.ty);
                    }
                }
                Item::Function(f) => {
                    let name = self.ast.name(f.name).to_owned();
                    let id = self.builder.func(&name, f.params.len());
                    let fresh = self.funcs.insert(f.name, id).is_none();
                    assert!(
                        fresh,
                        "check: no name is defined more than once at top level"
                    );
                    self.func_names.insert(id, name);
                }
            }
        }

        // Pass 2: initializers and bodies.
        for item in &self.ast.items {
            match item {
                Item::Struct(_) => {}
                Item::Global(g) => {
                    if let Some(init) = &g.init {
                        let (dst, ty) = self.globals[&g.name];
                        let value = self.expr_expecting(init, Some(ty));
                        self.assign_into(dst, value);
                    }
                }
                Item::Function(f) => self.function(f),
            }
        }
    }

    /// If `ty` declares a struct *value*, create its field nodes.
    fn declare_fields_if_struct(&mut self, node: NodeId, ty: Ty) {
        if ty.depth != 0 {
            return;
        }
        if let BaseTy::Struct(s) = ty.base {
            let num_fields = self.structs.get(&s).map_or(0, Vec::len);
            for index in 0..num_fields {
                self.builder.field_node(node, index as u32);
            }
        }
    }

    /// If `ty` is a pointer to a struct, create the pointee's field nodes
    /// on `heap` (typed allocation).
    fn type_heap(&mut self, heap: NodeId, ty: Ty) {
        if ty.depth == 1 {
            self.declare_fields_if_struct(
                heap,
                Ty {
                    base: ty.base,
                    depth: 0,
                },
            );
        }
    }

    /// The declared type of `field` within struct `s`.
    fn field_ty(&self, s: ddpa_support::Symbol, field: ddpa_support::Symbol) -> Option<Ty> {
        self.structs
            .get(&s)?
            .iter()
            .find(|(fname, _)| *fname == field)
            .map(|(_, ty)| *ty)
    }

    fn function(&mut self, f: &ast::Function) {
        let id = self.funcs[&f.name];
        self.current_func = Some(id);
        self.local_counts.clear();
        let mut top_scope = HashMap::new();
        let formals = self.builder.func_info(id).formals.clone();
        for (param, node) in f.params.iter().zip(formals) {
            top_scope.insert(param.name, (node, param.ty));
        }
        self.scopes.push(top_scope);
        self.block(&f.body);
        self.scopes.pop();
        self.current_func = None;
    }

    fn block(&mut self, block: &ast::Block) {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
        self.scopes.pop();
    }

    fn resolve(&self, sym: ddpa_support::Symbol) -> Slot {
        let var = self.scopes.iter().rev().find_map(|scope| scope.get(&sym));
        if let Some(&(node, ty)) = var.or_else(|| self.globals.get(&sym)) {
            return Slot::Node(node, ty);
        }
        Slot::Func(
            *self
                .funcs
                .get(&sym)
                .expect("check: every used name is declared"),
        )
    }

    /// Resolves a name used as a variable: the checker rejects assigning
    /// to a function (`place`), dereferencing one (`check_deref`) and
    /// calling one as `(*f)(...)` (`call`).
    fn resolve_node(&self, sym: ddpa_support::Symbol) -> NodeId {
        match self.resolve(sym) {
            Slot::Node(n, _) => n,
            Slot::Func(_) => panic!("check: a function is never used as a variable"),
        }
    }

    /// Resolves a struct field access: returns the base node and the
    /// field index.
    fn resolve_field(&self, base: ddpa_support::Symbol, sel: FieldSel) -> (NodeId, u32) {
        let Slot::Node(node, ty) = self.resolve(base) else {
            panic!("check_field: functions have no fields");
        };
        let s = match ty.base {
            BaseTy::Struct(s) if ty.depth == u8::from(sel.arrow) => s,
            _ => panic!("check_field: `.` needs a struct value and `->` a struct pointer"),
        };
        let index = self
            .structs
            .get(&s)
            .expect("validate_ty: every struct type is declared")
            .iter()
            .position(|(fname, _)| *fname == sel.name)
            .expect("check_field: the struct has the field");
        (node, index as u32)
    }

    /// Declares a fresh local, renamed apart from shadowed ones.
    fn declare_local(&mut self, sym: ddpa_support::Symbol, ty: Ty) -> NodeId {
        self.declare_local_named(sym, ty).0
    }

    /// Like [`Self::declare_local`] but also returns the qualified name.
    fn declare_local_named(&mut self, sym: ddpa_support::Symbol, ty: Ty) -> (NodeId, String) {
        let func_name = self
            .current_func
            .and_then(|f| self.func_names.get(&f).cloned())
            .unwrap_or_default();
        let base = format!("{func_name}::{}", self.ast.name(sym));
        let count = self.local_counts.entry(base.clone()).or_insert(0);
        *count += 1;
        let qualified = if *count == 1 {
            base
        } else {
            format!("{base}.{count}")
        };
        let node = self.builder.var(&qualified);
        if let Some(f) = self.current_func {
            self.builder.set_owner(node, f);
        }
        self.declare_fields_if_struct(node, ty);
        self.scopes
            .last_mut()
            .expect("inside a scope")
            .insert(sym, (node, ty));
        (node, qualified)
    }

    /// A fresh temporary owned by the current function.
    fn temp(&mut self) -> NodeId {
        let t = self.builder.temp();
        if let Some(f) = self.current_func {
            self.builder.set_owner(t, f);
        }
        t
    }

    /// A fresh heap site owned by the current function.
    fn heap(&mut self) -> NodeId {
        let h = self.builder.heap();
        if let Some(f) = self.current_func {
            self.builder.set_owner(h, f);
        }
        h
    }

    /// Loads through `node` `count` times, returning the final temporary.
    fn deref_chain(&mut self, mut node: NodeId, count: u8) -> NodeId {
        for _ in 0..count {
            let t = self.temp();
            self.builder.load(t, node);
            node = t;
        }
        node
    }

    /// Materializes a value into a node (for stores and arguments).
    fn materialize(&mut self, value: Value) -> Option<NodeId> {
        match value {
            Value::None => None,
            Value::Node(n) => Some(n),
            Value::Addr(obj) => {
                let t = self.temp();
                self.builder.addr_of(t, obj);
                Some(t)
            }
        }
    }

    /// Emits the constraint for `dst = value`.
    fn assign_into(&mut self, dst: NodeId, value: Value) {
        match value {
            Value::None => {}
            Value::Node(src) => {
                self.builder.copy(dst, src);
            }
            Value::Addr(obj) => {
                self.builder.addr_of(dst, obj);
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl(d) => {
                if d.array.is_some() {
                    let decayed = Ty {
                        base: d.ty.base,
                        depth: d.ty.depth + 1,
                    };
                    let (node, qualified) = self.declare_local_named(d.name, decayed);
                    let storage = self.builder.var(&format!("{qualified}[]"));
                    if let Some(f) = self.current_func {
                        self.builder.set_owner(storage, f);
                    }
                    self.builder.addr_of(node, storage);
                    return;
                }
                let value = d
                    .init
                    .as_ref()
                    .map(|init| self.expr_expecting(init, Some(d.ty)));
                let node = self.declare_local(d.name, d.ty);
                if let Some(v) = value {
                    self.assign_into(node, v);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let expected = self.place_ty(lhs);
                let value = self.expr_expecting(rhs, expected);
                self.assign_place(lhs, value);
            }
            Stmt::Expr(e) => {
                if let Expr::Call(call) = e {
                    self.lower_call(call, false);
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    let func = self
                        .current_func
                        .expect("the parser reads `return` only inside a function body");
                    let ret = self.builder.func_info(func).ret;
                    let value = self.expr(v);
                    self.assign_into(ret, value);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.cond(cond);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.cond(cond);
                self.stmt(body);
            }
            Stmt::Block(b) => self.block(b),
        }
    }

    /// The declared type of a place, when statically known (used to type
    /// `malloc()` on the right-hand side).
    fn place_ty(&self, place: &Place) -> Option<Ty> {
        let Slot::Node(_, ty) = self.resolve(place.name) else {
            return None;
        };
        match place.field {
            Some(sel) => match ty.base {
                BaseTy::Struct(s) => self.field_ty(s, sel.name),
                _ => None,
            },
            None => {
                if place.derefs == 0 {
                    Some(ty)
                } else if place.derefs <= ty.depth {
                    Some(Ty {
                        base: ty.base,
                        depth: ty.depth - place.derefs,
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Lowers the side effects of a condition (calls only — reads have no
    /// pointer effects).
    fn cond(&mut self, cond: &Cond) {
        if let Expr::Call(call) = &cond.lhs {
            self.lower_call(call, false);
        }
        if let Some((_, Expr::Call(call))) = &cond.rest {
            self.lower_call(call, false);
        }
    }

    /// The address of a field access, as a node holding a pointer to the
    /// field: `.` yields the field node's address, `->` a `FieldAddr`
    /// temporary.
    fn field_place_ptr(&mut self, base: ddpa_support::Symbol, sel: FieldSel) -> NodeId {
        let (node, idx) = self.resolve_field(base, sel);
        if sel.arrow {
            let t = self.temp();
            self.builder.field_addr(t, node, idx);
            t
        } else {
            let fld = self.builder.field_node(node, idx);
            let t = self.temp();
            self.builder.addr_of(t, fld);
            t
        }
    }

    fn assign_place(&mut self, place: &Place, value: Value) {
        if let Some(sel) = place.field {
            let ptr = self.field_place_ptr(place.name, sel);
            if let Some(src) = self.materialize(value) {
                self.builder.store(ptr, src);
            }
            return;
        }
        let base = self.resolve_node(place.name);
        if place.derefs == 0 {
            self.assign_into(base, value);
        } else {
            let ptr = self.deref_chain(base, place.derefs - 1);
            if let Some(src) = self.materialize(value) {
                self.builder.store(ptr, src);
            }
        }
    }

    fn expr(&mut self, expr: &Expr) -> Value {
        self.expr_expecting(expr, None)
    }

    /// Lowers an expression; `expected` (the destination's declared type,
    /// when known) types heap allocations.
    fn expr_expecting(&mut self, expr: &Expr, expected: Option<Ty>) -> Value {
        match expr {
            Expr::AddrOf {
                name,
                field: Some(sel),
                ..
            } => {
                let (node, idx) = self.resolve_field(*name, *sel);
                if sel.arrow {
                    let t = self.temp();
                    self.builder.field_addr(t, node, idx);
                    Value::Node(t)
                } else {
                    Value::Addr(self.builder.field_node(node, idx))
                }
            }
            Expr::AddrOf {
                name, field: None, ..
            } => match self.resolve(*name) {
                Slot::Node(n, _) => Value::Addr(n),
                Slot::Func(f) => Value::Addr(self.builder.func_info(f).object),
            },
            Expr::Path {
                derefs: 0,
                name,
                field: Some(sel),
                ..
            } => {
                // A field read: load through the field's address.
                let ptr = self.field_place_ptr(*name, *sel);
                let t = self.temp();
                self.builder.load(t, ptr);
                Value::Node(t)
            }
            Expr::Path { field: Some(_), .. } => {
                panic!("the parser reads no dereference before a field selection")
            }
            Expr::Path {
                derefs,
                name,
                field: None,
                ..
            } => match self.resolve(*name) {
                Slot::Node(n, _) => Value::Node(self.deref_chain(n, *derefs)),
                Slot::Func(f) => {
                    assert_eq!(*derefs, 0, "check_deref: a function is never dereferenced");
                    // Function designator decays to its address.
                    Value::Addr(self.builder.func_info(f).object)
                }
            },
            Expr::Call(call) => match self.lower_call(call, true) {
                Some(node) => Value::Node(node),
                None => Value::None,
            },
            Expr::Malloc { .. } => {
                let heap = self.heap();
                if let Some(ty) = expected {
                    self.type_heap(heap, ty);
                }
                Value::Addr(heap)
            }
            Expr::Null { .. } | Expr::Int { .. } => Value::None,
        }
    }

    /// Lowers a call; returns the node holding the result if `want_ret`.
    fn lower_call(&mut self, call: &ast::Call, want_ret: bool) -> Option<NodeId> {
        let mut args = Vec::with_capacity(call.args.len());
        for arg in &call.args {
            let value = self.expr(arg);
            args.push(self.materialize(value));
        }
        let ret_dst = if want_ret { Some(self.temp()) } else { None };
        let cs = match &call.callee {
            Callee::Named(sym) => match self.resolve(*sym) {
                Slot::Func(f) => self.builder.call_direct(f, args, ret_dst),
                Slot::Node(fp, _) => self.builder.call_indirect(fp, args, ret_dst),
            },
            Callee::Deref { derefs, name } => {
                let base = self.resolve_node(*name);
                // In C, `(*fp)()` and `fp()` are the same call; only derefs
                // beyond the first load through memory.
                let fp = self.deref_chain(base, derefs.saturating_sub(1));
                self.builder.call_indirect(fp, args, ret_dst)
            }
        };
        if let Some(caller) = self.current_func {
            self.builder.set_caller(cs, caller);
        }
        ret_dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CalleeRef;

    fn lower_src(src: &str) -> ConstraintProgram {
        lower(&ddpa_ir::parse(src).expect("parses")).expect("checks and lowers")
    }

    #[test]
    fn lower_rejects_what_check_rejects() {
        // An arity mismatch and a dereferenced `int`: the unchecked
        // lowering would have answered `pts(main::r) = {g}`.
        let program = ddpa_ir::parse(
            "int g; int *id(int *p) { return p; } \
             void main() { int x; int *q = &g; int *r = id(q, q); int *s = *x; }",
        )
        .expect("parses");
        let errs = ddpa_ir::check(&program).expect_err("check rejects");
        assert_eq!(errs.0.len(), 2);
        assert_eq!(lower(&program).expect_err("lower rejects"), errs);
    }

    #[test]
    fn lowers_basic_pointer_flow() {
        let cp = lower_src("int g; void main() { int *p = &g; int *q = p; *q = 0; }");
        assert_eq!(cp.addr_ofs().len(), 1);
        assert_eq!(cp.copies().len(), 1);
        assert_eq!(cp.loads().len(), 0);
        assert_eq!(cp.stores().len(), 0); // storing an int is not a pointer store
    }

    #[test]
    fn lowers_multi_deref_with_temps() {
        let cp = lower_src(
            "int g; void main() { int *p = &g; int **pp = &p; int ***ppp = &pp; \
             int *r = **ppp; **ppp = r; }",
        );
        // `**ppp` as rvalue: two loads; `**ppp = r`: one load then a store.
        assert_eq!(cp.loads().len(), 3);
        assert_eq!(cp.stores().len(), 1);
    }

    #[test]
    fn lowers_malloc_to_heap_site() {
        let cp = lower_src("void main() { int *p = malloc(); int *q = malloc(); }");
        assert_eq!(cp.addr_ofs().len(), 2);
        let objs: Vec<_> = cp
            .addr_ofs()
            .iter()
            .map(|a| cp.display_node(a.obj))
            .collect();
        assert_eq!(objs, vec!["@heap0", "@heap1"]);
    }

    #[test]
    fn lowers_calls_and_function_pointers() {
        let cp = lower_src(
            "int *id(int *p) { return p; } \
             void main() { void *fp = id; int *r = id(null); r = (*fp)(r); r = fp(r); }",
        );
        // fp = id  →  fp = &@fn_id
        assert!(cp
            .addr_ofs()
            .iter()
            .any(|a| cp.display_node(a.obj) == "@fn_id"));
        let sites = cp.callsites();
        assert_eq!(sites.len(), 3);
        let indirect: Vec<_> = sites.iter().filter(|c| c.is_indirect()).collect();
        assert_eq!(indirect.len(), 2);
        match sites.iter().next().expect("first callsite").callee {
            CalleeRef::Direct(f) => {
                assert_eq!(cp.interner().resolve(cp.func(f).name), "id");
            }
            CalleeRef::Indirect(_) => panic!("first call is direct"),
        }
    }

    #[test]
    fn null_arguments_are_skipped() {
        let cp = lower_src("void f(int *p) { } void main() { f(null); }");
        let cs = cp.callsites().iter().next().expect("one callsite");
        assert_eq!(cs.args, vec![None]);
    }

    #[test]
    fn return_flows_into_ret_node() {
        let cp = lower_src("int g; int *f() { return &g; } void main() { int *p = f(); }");
        let f = cp
            .funcs()
            .iter_enumerated()
            .find(|(_, i)| cp.interner().resolve(i.name) == "f");
        let (_, finfo) = f.expect("f exists");
        assert!(cp.addr_ofs().iter().any(|a| a.dst == finfo.ret));
        // p = f() creates a ret temp then copies into main::p.
        let cs = cp.callsites().iter().next().expect("callsite");
        assert!(cs.ret_dst.is_some());
    }

    #[test]
    fn shadowed_locals_get_distinct_nodes() {
        let cp = lower_src("int a; int b; void main() { int *p = &a; { int *p = &b; p = null; } }");
        // Two distinct nodes named main::p and main::p.2.
        let names: Vec<_> = cp.node_ids().map(|n| cp.display_node(n)).collect();
        assert!(names.contains(&"main::p".to_owned()));
        assert!(names.contains(&"main::p.2".to_owned()));
    }

    #[test]
    fn calls_in_conditions_are_lowered() {
        let cp = lower_src(
            "int *f() { return null; } void main() { if (f() == null) { } while (f() != null) { } }",
        );
        assert_eq!(cp.callsites().len(), 2);
    }

    #[test]
    fn global_initializers_lower() {
        let cp = lower_src("int g; int *p = &g; void main() { }");
        assert_eq!(cp.addr_ofs().len(), 1);
    }

    #[test]
    fn struct_value_fields_lower_to_field_nodes() {
        let cp = lower_src(
            "struct S { int *f; int *g; }; \
             int x; \
             void main() { struct S s; s.f = &x; int *r = s.f; int **pf = &s.g; }",
        );
        // s gets field nodes at declaration.
        let names: Vec<_> = cp.node_ids().map(|n| cp.display_node(n)).collect();
        assert!(names.contains(&"main::s.f0".to_owned()), "{names:?}");
        assert!(names.contains(&"main::s.f1".to_owned()));
        // s.f = &x: store through the field's address.
        assert_eq!(cp.stores().len(), 1);
        // r = s.f: load.
        assert_eq!(cp.loads().len(), 1);
        // No FieldAddr for `.` access — only direct addr-of field nodes.
        assert!(cp.field_addrs().is_empty());
    }

    #[test]
    fn struct_pointer_fields_lower_to_field_addr() {
        let cp = lower_src(
            "struct S { int *f; }; \
             int x; \
             void main() { struct S *p = malloc(); p->f = &x; int *r = p->f; int *q = &p->f; }",
        );
        // p->f twice as place/read + &p->f once = 3 FieldAddr constraints.
        assert_eq!(cp.field_addrs().len(), 3);
        assert_eq!(cp.stores().len(), 1);
        assert_eq!(cp.loads().len(), 1);
        // The malloc was typed: heap0 has a field node.
        let heap = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "@heap0")
            .expect("heap exists");
        assert!(cp.field_of(heap, 0).is_some());
    }

    #[test]
    fn untyped_malloc_has_no_fields() {
        let cp = lower_src(
            "struct S { int *f; }; \
             void take(void *p) { } \
             void main() { take(malloc()); }",
        );
        let heap = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "@heap0")
            .expect("heap exists");
        assert!(cp.field_of(heap, 0).is_none());
    }

    #[test]
    fn malloc_into_struct_pointer_field_is_typed() {
        let cp = lower_src(
            "struct L { struct L *next; }; \
             void main() { struct L *head = malloc(); head->next = malloc(); }",
        );
        // Both heap objects are typed with the `next` field.
        for heap_name in ["@heap0", "@heap1"] {
            let heap = cp
                .node_ids()
                .find(|&n| cp.display_node(n) == heap_name)
                .expect("heap exists");
            assert!(cp.field_of(heap, 0).is_some(), "{heap_name} untyped");
        }
    }

    /// `main` with its assignment `levels` blocks deep: the statement
    /// sits at depth `levels + 1` and its `&g` at `levels + 2`.
    fn nested_src(levels: usize) -> String {
        format!(
            "int g; void main() {{ int *p; {} p = &g; {} }}",
            "{".repeat(levels),
            "}".repeat(levels)
        )
    }

    #[test]
    fn nesting_at_the_parser_maximum_parses_checks_and_lowers() {
        let cp = lower_src(&nested_src(ddpa_ir::MAX_DEPTH - 2));
        assert_eq!(cp.addr_ofs().len(), 1);
        assert_eq!(cp.display_node(cp.addr_ofs()[0].obj), "g");
        let err = ddpa_ir::parse(&nested_src(ddpa_ir::MAX_DEPTH - 1)).expect_err("too deep");
        assert_eq!(
            err.message,
            format!("nesting deeper than {}", ddpa_ir::MAX_DEPTH)
        );
    }
}

#[cfg(test)]
mod array_tests {
    use super::*;

    fn lower_src(src: &str) -> ConstraintProgram {
        lower(&ddpa_ir::parse(src).expect("parses")).expect("checks and lowers")
    }

    #[test]
    fn arrays_lower_to_storage_and_decay() {
        let cp = lower_src(
            "int g; int h; \
             void main() { int *tab[4]; tab[0] = &g; tab[3] = &h; int *x = tab[1]; }",
        );
        let names: Vec<_> = cp.node_ids().map(|n| cp.display_node(n)).collect();
        assert!(names.contains(&"main::tab".to_owned()));
        assert!(names.contains(&"main::tab[]".to_owned()));
        // The decayed pointer holds the storage object's address.
        let tab = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "main::tab")
            .expect("tab");
        let storage = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "main::tab[]")
            .expect("storage");
        assert!(cp
            .addr_ofs()
            .iter()
            .any(|a| a.dst == tab && a.obj == storage));
        // Element accesses are loads/stores through the decayed pointer.
        assert_eq!(cp.stores().len(), 2);
        assert_eq!(cp.loads().len(), 1);
        assert!(cp.stores().iter().all(|st| st.ptr == tab));
    }

    #[test]
    fn global_arrays_lower() {
        let cp = lower_src("int *gtab[8]; void main() { gtab[2] = null; }");
        let names: Vec<_> = cp.node_ids().map(|n| cp.display_node(n)).collect();
        assert!(names.contains(&"gtab[]".to_owned()));
    }
}
