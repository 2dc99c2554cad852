//! The deduction rules, factored out of the engine loop.
//!
//! Both evaluators — the sequential tabled engine
//! ([`DemandEngine`](crate::DemandEngine)) and the frame scheduler's
//! workers ([`crate::sched`]) — run the *same* rule system: the static
//! rule installation for a goal (`[ADDR]`/`[COPY]`/`[LOAD]`/`[STORE]`/
//! `[FIELD]`/`[PARAM]`/`[RET]` and their `ptb` inverses) and the per-element firing of
//! each [`Watcher`] variant. This trait is that rule system. An evaluator
//! provides three primitives — the program, "add this fact to that goal",
//! and "install this watcher on that goal" — and inherits every rule body
//! as a default method, so the two evaluators cannot drift apart: a rule
//! changed here changes for both, which is what keeps parallel answers
//! bit-identical to sequential ones.
//!
//! `'p` is the lifetime of the program borrow, which is independent of
//! the evaluator's own borrow, so a rule body may hold the program across
//! its `&mut self` calls to `add`/`subscribe`. The sequential evaluator
//! is a pair of `&'p ConstraintProgram` and the engine's `&mut` memo
//! table, built per rule application (the engine keeps the two side by
//! side); a scheduler worker reads the program its scheduler was built
//! over.

use ddpa_constraints::{CalleeRef, ConstraintProgram, NodeId, NodeKind};

use crate::goal::{Goal, Watcher};
use crate::trace::Origin;

/// One evaluator of the demand deduction system.
///
/// Implementors supply fact storage and watcher bookkeeping; the trait
/// supplies the rules (as default methods). See the module docs.
pub trait Deduce<'p> {
    /// The program being analyzed. The `'p` lifetime outlives `self`, so
    /// rule bodies can hold program slices across `add`/`subscribe` calls.
    fn cp(&self) -> &'p ConstraintProgram;

    /// Adds `value` to `goal`'s set (activating the goal if needed),
    /// scheduling dependent work when the fact is new.
    fn add(&mut self, goal: Goal, value: u32, origin: Origin);

    /// Installs `watcher` on `goal` (idempotent), starting from the first
    /// element. Implementations must suppress a `CopyTo` that targets the
    /// subscribed goal's own state (a self copy is the identity).
    fn subscribe(&mut self, goal: Goal, watcher: Watcher);

    /// Records that deriving `goal` read the program rows of `node`, so an
    /// edit changing those rows must dirty `goal`. The default is a no-op:
    /// evaluators that don't track incremental support sets ignore it.
    fn note_support(&mut self, _goal: Goal, _node: NodeId) {}

    /// Records that deriving `goal` scanned the global indirect-callsite
    /// list, so *any* edit touching indirect calls must dirty `goal`.
    fn note_indirect(&mut self, _goal: Goal) {}

    /// Installs the static `pts` rules for `x`.
    fn install_pts(&mut self, x: NodeId) {
        let cp = self.cp();
        // The static rules read every row of x's program slice.
        self.note_support(Goal::Pts(x), x);
        // [ADDR]
        for i in 0..cp.addr_objs_of(x).len() {
            let o = cp.addr_objs_of(x)[i];
            self.add(Goal::Pts(x), o.as_u32(), Origin::Base);
        }
        // [COPY]
        for i in 0..cp.copy_srcs_of(x).len() {
            let s = cp.copy_srcs_of(x)[i];
            self.subscribe(Goal::Pts(s), Watcher::CopyTo { dst: x });
        }
        // [LOAD]
        for i in 0..cp.load_ptrs_of(x).len() {
            let p = cp.load_ptrs_of(x)[i];
            self.subscribe(Goal::Pts(p), Watcher::LoadDst { dst: x });
        }
        // [STORE] — only pointable locations can be written through pointers.
        if cp.is_address_taken(x) {
            self.subscribe(Goal::Ptb(x), Watcher::StoreInto { obj: x });
        }
        // [FIELD] — x = &base->field
        for i in 0..cp.field_addrs_of(x).len() {
            let (base, field) = cp.field_addrs_of(x)[i];
            self.subscribe(Goal::Pts(base), Watcher::FieldOf { dst: x, field });
        }
        // [PARAM]
        if let NodeKind::Formal { func, index } = cp.node(x).kind {
            let func_obj = cp.func(func).object;
            // Reads the callee's callsite rows (folded into the function
            // object's signature) and scans every indirect callsite.
            self.note_support(Goal::Pts(x), func_obj);
            self.note_indirect(Goal::Pts(x));
            for i in 0..cp.direct_callsites_of(func).len() {
                let cs = cp.direct_callsites_of(func)[i];
                if let Some(Some(a)) = cp.callsite(cs).args.get(index as usize) {
                    let a = *a;
                    self.subscribe(Goal::Pts(a), Watcher::CopyTo { dst: x });
                }
            }
            for i in 0..cp.indirect_callsites().len() {
                let cs = cp.indirect_callsites()[i];
                let site = cp.callsite(cs);
                if let CalleeRef::Indirect(fp) = site.callee {
                    if let Some(Some(a)) = site.args.get(index as usize) {
                        let a = *a;
                        self.subscribe(
                            Goal::Pts(fp),
                            Watcher::CallFormal {
                                func_obj,
                                formal: x,
                                arg: a,
                            },
                        );
                    }
                }
            }
        }
        // [RET]
        for i in 0..cp.ret_dst_uses_of(x).len() {
            let cs = cp.ret_dst_uses_of(x)[i];
            match cp.callsite(cs).callee {
                CalleeRef::Direct(f) => {
                    let ret = cp.func(f).ret;
                    self.subscribe(Goal::Pts(ret), Watcher::CopyTo { dst: x });
                }
                CalleeRef::Indirect(fp) => {
                    self.subscribe(Goal::Pts(fp), Watcher::CallRet { dst: x });
                }
            }
        }
    }

    /// Installs the static `ptb` rules for `o`.
    fn install_ptb(&mut self, o: NodeId) {
        let cp = self.cp();
        // The static rules read o's addr-inverse row and node kind.
        self.note_support(Goal::Ptb(o), o);
        // [ADDR⁻¹]
        for i in 0..cp.addr_dsts_of(o).len() {
            let d = cp.addr_dsts_of(o)[i];
            self.add(Goal::Ptb(o), d.as_u32(), Origin::Base);
        }
        // [FIELD⁻¹] — a field node is pointed to by the destinations of
        // field-address constraints whose base points at its parent.
        if let NodeKind::Field { parent, field } = cp.node(o).kind {
            self.subscribe(Goal::Ptb(parent), Watcher::FieldPtb { obj: o, field });
        }
        // Rules (a)–(e) fire per element via self-subscription.
        self.subscribe(Goal::Ptb(o), Watcher::FwdProp { obj: o });
    }

    /// Fires one watcher on one element.
    fn fire(&mut self, src: Goal, watcher: Watcher, elem: u32) {
        let cp = self.cp();
        let origin = Origin::Rule { watcher, src, elem };
        match watcher {
            Watcher::CopyTo { dst } => {
                self.add(Goal::Pts(dst), elem, origin);
            }
            Watcher::LoadDst { dst } => {
                let o = NodeId::from_u32(elem);
                self.subscribe(Goal::Pts(o), Watcher::CopyTo { dst });
            }
            Watcher::StoreInto { obj } => {
                let w = NodeId::from_u32(elem);
                // Reads w's store row on behalf of pts(obj).
                self.note_support(Goal::Pts(obj), w);
                for i in 0..cp.store_srcs_of(w).len() {
                    let s = cp.store_srcs_of(w)[i];
                    self.subscribe(Goal::Pts(s), Watcher::CopyTo { dst: obj });
                }
            }
            Watcher::CallFormal {
                func_obj,
                formal,
                arg,
            } => {
                if elem == func_obj.as_u32() {
                    self.subscribe(Goal::Pts(arg), Watcher::CopyTo { dst: formal });
                }
            }
            Watcher::CallRet { dst } => {
                if let Some(f) = cp.node(NodeId::from_u32(elem)).as_func() {
                    let ret = cp.func(f).ret;
                    self.subscribe(Goal::Pts(ret), Watcher::CopyTo { dst });
                }
            }
            Watcher::FwdProp { obj } => {
                self.fwd_prop(obj, NodeId::from_u32(elem), origin);
            }
            Watcher::StoreSpread { obj } => {
                self.add(Goal::Ptb(obj), elem, origin);
            }
            Watcher::LoadSpread { obj } => {
                let q = NodeId::from_u32(elem);
                // Reads q's load row on behalf of ptb(obj).
                self.note_support(Goal::Ptb(obj), q);
                for i in 0..cp.load_dsts_of(q).len() {
                    let d = cp.load_dsts_of(q)[i];
                    self.add(Goal::Ptb(obj), d.as_u32(), origin);
                }
            }
            Watcher::ArgSpread { obj, pos } => {
                if let Some(f) = cp.node(NodeId::from_u32(elem)).as_func() {
                    if let Some(&formal) = cp.func(f).formals.get(pos as usize) {
                        self.add(Goal::Ptb(obj), formal.as_u32(), origin);
                    }
                }
            }
            Watcher::RetSpread {
                obj,
                func_obj,
                ret_dst,
            } => {
                if elem == func_obj.as_u32() {
                    self.add(Goal::Ptb(obj), ret_dst.as_u32(), origin);
                }
            }
            Watcher::FieldOf { dst, field } => {
                // Reads elem's field declarations on behalf of pts(dst).
                self.note_support(Goal::Pts(dst), NodeId::from_u32(elem));
                if let Some(fld) = cp.field_of(NodeId::from_u32(elem), field) {
                    self.add(Goal::Pts(dst), fld.as_u32(), origin);
                }
            }
            Watcher::FieldPtb { obj, field } => {
                let base = NodeId::from_u32(elem);
                // Reads base's field-addr row on behalf of ptb(obj).
                self.note_support(Goal::Ptb(obj), base);
                for i in 0..cp.field_addrs_from(base).len() {
                    let (f, dst) = cp.field_addrs_from(base)[i];
                    if f == field {
                        self.add(Goal::Ptb(obj), dst.as_u32(), origin);
                    }
                }
            }
        }
    }

    /// Rules (a)–(e): forward-propagates the new pointer `w ∈ ptb(obj)`.
    fn fwd_prop(&mut self, obj: NodeId, w: NodeId, origin: Origin) {
        let cp = self.cp();
        // Rules (a)-(d) read w's copy/store/arg rows on behalf of ptb(obj).
        self.note_support(Goal::Ptb(obj), w);
        // (a) copies d = w
        for i in 0..cp.copy_dsts_of(w).len() {
            let d = cp.copy_dsts_of(w)[i];
            self.add(Goal::Ptb(obj), d.as_u32(), origin);
        }
        // (b) stores *p = w: everything p points to gains obj
        for i in 0..cp.store_ptrs_of(w).len() {
            let p = cp.store_ptrs_of(w)[i];
            self.subscribe(Goal::Pts(p), Watcher::StoreSpread { obj });
        }
        // (c) w may itself be pointed to; loads through such pointers
        //     propagate obj onward
        if cp.is_address_taken(w) {
            self.subscribe(Goal::Ptb(w), Watcher::LoadSpread { obj });
        }
        // (d) w passed as an argument
        for i in 0..cp.arg_uses_of(w).len() {
            let (cs, pos) = cp.arg_uses_of(w)[i];
            match cp.callsite(cs).callee {
                CalleeRef::Direct(f) => {
                    if let Some(&formal) = cp.func(f).formals.get(pos as usize) {
                        self.add(Goal::Ptb(obj), formal.as_u32(), origin);
                    }
                }
                CalleeRef::Indirect(fp) => {
                    self.subscribe(Goal::Pts(fp), Watcher::ArgSpread { obj, pos });
                }
            }
        }
        // (e) w is a return slot: flows to every caller's result
        if let NodeKind::Ret { func } = cp.node(w).kind {
            // Reads the function's callsite rows (folded into the function
            // object's signature) and scans every indirect callsite.
            self.note_support(Goal::Ptb(obj), cp.func(func).object);
            self.note_indirect(Goal::Ptb(obj));
            for i in 0..cp.direct_callsites_of(func).len() {
                let cs = cp.direct_callsites_of(func)[i];
                if let Some(d) = cp.callsite(cs).ret_dst {
                    self.add(Goal::Ptb(obj), d.as_u32(), origin);
                }
            }
            let func_obj = cp.func(func).object;
            for i in 0..cp.indirect_callsites().len() {
                let cs = cp.indirect_callsites()[i];
                let site = cp.callsite(cs);
                if let (CalleeRef::Indirect(fp), Some(d)) = (site.callee, site.ret_dst) {
                    self.subscribe(
                        Goal::Pts(fp),
                        Watcher::RetSpread {
                            obj,
                            func_obj,
                            ret_dst: d,
                        },
                    );
                }
            }
        }
    }
}
