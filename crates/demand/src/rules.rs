//! The deduction rules, factored out of the engine loop.
//!
//! Both evaluators — the sequential tabled engine
//! ([`DemandEngine`](crate::DemandEngine)) and the frame scheduler's
//! workers ([`crate::sched`]) — run the *same* rule system: the static
//! rule installation for a goal (`[ADDR]`/`[COPY]`/`[LOAD]`/`[STORE]`/
//! `[FIELD]`/`[PARAM]`/`[RET]` and their `ptb` inverses) and the per-element firing of
//! each [`Watcher`] variant. This trait is that rule system. An evaluator
//! provides its primitives — the program, "add this fact to that goal",
//! "install this watcher on that goal", "record this dependency" and
//! access to its [`CallEdges`] table — and inherits every rule body as a
//! default method, so the two evaluators cannot drift apart: a rule
//! changed here changes for both, which is what keeps parallel answers
//! bit-identical to sequential ones.
//!
//! # The call-edge table
//!
//! Two rules read the indirect call graph: `[PARAM]` (a formal of `f`
//! receives the arguments of every site that may call `f`) and `ptb`
//! rule (e) (the result destination of every such site joins any `ptb`
//! goal holding `f`'s return slot). Rather than have each such goal watch
//! `pts(fp)` of every indirect site, an evaluator keeps one [`CallEdges`]
//! table and discovers each call edge once:
//!
//! * The first goal that needs a site arms it: one [`Watcher::Dispatch`]
//!   on the site's `pts(fp)`, for the whole table's lifetime.
//! * When `@fn f` enters `pts(fp)`, the dispatch watcher records
//!   `site ∈ callers(f)` and wires the edge for every goal waiting on
//!   `f`: `CopyTo{formal}` on `pts(arg)`, or the site's result
//!   destination into `ptb(obj)`.
//! * A goal that starts waiting later wires the callers already known.
//!
//! Waiters are indexed under the function they wait on, so a new edge
//! reaches only its own waiters. Each waiting goal still records a
//! dependency on `pts(fp)` of every site it could be called from, so
//! edits dirty exactly what they dirtied when each goal watched those
//! sets itself.
//!
//! `'p` is the lifetime of the program borrow, which is independent of
//! the evaluator's own borrow, so a rule body may hold the program across
//! its `&mut self` calls to `add`/`subscribe`. The sequential evaluator
//! is a pair of `&'p ConstraintProgram` and the engine's `&mut` memo
//! table, built per rule application (the engine keeps the two side by
//! side); a scheduler worker reads the program its scheduler was built
//! over.

use ddpa_constraints::{
    CallSite, CallSiteId, CalleeRef, ConstraintProgram, FuncId, NodeId, NodeKind,
};
use ddpa_support::SparseBitSet;

use crate::goal::{Goal, Watcher};
use crate::trace::Origin;

/// The indirect call edges an evaluator has discovered, and the goals
/// waiting on each function's indirect callers (see the module docs).
/// The sequential engine keeps one in its memo table and resets it with
/// the table; the frame scheduler keeps one per solve.
#[derive(Debug, Default)]
pub struct CallEdges {
    /// Indirect call sites whose dispatch watcher is subscribed.
    armed: SparseBitSet,
    /// Per function id: its known indirect callers and its waiters.
    funcs: Vec<Callers>,
}

#[derive(Debug, Default)]
struct Callers {
    sites: Vec<CallSiteId>,
    waiters: Vec<CallWaiter>,
}

/// A goal waiting on a function's indirect callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallWaiter {
    /// `pts(formal)` of the function's formal at `pos` (`[PARAM]`): each
    /// caller's argument at `pos` flows in.
    Param {
        /// The formal.
        formal: NodeId,
        /// Its argument position.
        pos: u32,
    },
    /// `ptb(obj)`, which holds the function's return slot (`ptb` rule
    /// (e)): each caller's result destination joins it.
    Ret {
        /// The object whose `ptb` goal waits.
        obj: NodeId,
    },
}

impl CallWaiter {
    /// Whether a call from `site` reaches this waiter at all.
    fn uses(self, site: &CallSite) -> bool {
        match self {
            CallWaiter::Param { pos, .. } => matches!(site.args.get(pos as usize), Some(Some(_))),
            CallWaiter::Ret { .. } => site.ret_dst.is_some(),
        }
    }

    /// The goal waiting.
    fn goal(self) -> Goal {
        match self {
            CallWaiter::Param { formal, .. } => Goal::Pts(formal),
            CallWaiter::Ret { obj } => Goal::Ptb(obj),
        }
    }
}

impl CallEdges {
    /// Marks `site` armed; `true` if it was not yet.
    fn arm(&mut self, site: CallSiteId) -> bool {
        self.armed.insert(site.as_u32())
    }

    fn callers(&mut self, func: FuncId) -> &mut Callers {
        let i = func.as_u32() as usize;
        if i >= self.funcs.len() {
            self.funcs.resize_with(i + 1, Callers::default);
        }
        &mut self.funcs[i]
    }

    /// Adds `waiter` to `func`'s waiters and returns the callers known
    /// so far.
    fn register(&mut self, func: FuncId, waiter: CallWaiter) -> Vec<CallSiteId> {
        let callers = self.callers(func);
        callers.waiters.push(waiter);
        callers.sites.clone()
    }

    /// Records `site ∈ callers(func)` and returns the waiters to wire it
    /// for: all of them when the edge is new, none when it was known.
    fn record(&mut self, func: FuncId, site: CallSiteId) -> Vec<CallWaiter> {
        let callers = self.callers(func);
        if callers.sites.contains(&site) {
            return Vec::new();
        }
        callers.sites.push(site);
        callers.waiters.clone()
    }
}

/// The function pointer of an indirect call site.
fn fp_of(site: &CallSite) -> NodeId {
    match site.callee {
        CalleeRef::Indirect(fp) => fp,
        CalleeRef::Direct(_) => unreachable!("indirect call sites call through a pointer"),
    }
}

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

    /// Records that `consumer`'s fixpoint read `producer`'s set, so an
    /// edit dirtying `producer` must dirty `consumer`. [`subscribe`]
    /// records this edge itself; this is for a read the consumer makes
    /// through the call-edge table. A same-goal edge is skipped.
    ///
    /// [`subscribe`]: Deduce::subscribe
    fn note_dep(&mut self, _consumer: Goal, _producer: Goal) {}

    /// Runs `op` on this evaluator's call-edge table. `op` only touches
    /// the table; subscriptions and facts happen outside it.
    fn calls<R>(&mut self, op: impl FnOnce(&mut CallEdges) -> R) -> R;

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
            // object's signature); its indirect callers come from the
            // call-edge table.
            self.note_support(Goal::Pts(x), func_obj);
            for i in 0..cp.direct_callsites_of(func).len() {
                let cs = cp.direct_callsites_of(func)[i];
                if let Some(Some(a)) = cp.callsite(cs).args.get(index as usize) {
                    let a = *a;
                    self.subscribe(Goal::Pts(a), Watcher::CopyTo { dst: x });
                }
            }
            self.wait_on_callers(
                func,
                CallWaiter::Param {
                    formal: x,
                    pos: index,
                },
            );
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
            Watcher::Dispatch { site, .. } => {
                if let Some(f) = cp.node(NodeId::from_u32(elem)).as_func() {
                    for waiter in self.calls(|t| t.record(f, site)) {
                        self.wire(f, site, waiter);
                    }
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
            // object's signature); its indirect callers come from the
            // call-edge table.
            self.note_support(Goal::Ptb(obj), cp.func(func).object);
            for i in 0..cp.direct_callsites_of(func).len() {
                let cs = cp.direct_callsites_of(func)[i];
                if let Some(d) = cp.callsite(cs).ret_dst {
                    self.add(Goal::Ptb(obj), d.as_u32(), origin);
                }
            }
            self.wait_on_callers(func, CallWaiter::Ret { obj });
        }
    }

    /// Makes `waiter` wait on `func`'s indirect callers and wires the
    /// ones already known; the dispatch watchers wire the rest as they
    /// find them. Arms every indirect site the waiter could be called
    /// from that no goal armed yet, and records the waiting goal's
    /// dependency on each such site's `pts(fp)`: the goal scans the
    /// global indirect-callsite list to do so.
    fn wait_on_callers(&mut self, func: FuncId, waiter: CallWaiter) {
        let cp = self.cp();
        let goal = waiter.goal();
        self.note_indirect(goal);
        let sites = cp.indirect_callsites();
        let (fresh, known) = self.calls(|t| {
            let fresh: Vec<CallSiteId> = sites
                .iter()
                .copied()
                .filter(|&cs| waiter.uses(cp.callsite(cs)) && t.arm(cs))
                .collect();
            (fresh, t.register(func, waiter))
        });
        for site in fresh {
            let fp = fp_of(cp.callsite(site));
            self.subscribe(Goal::Pts(fp), Watcher::Dispatch { fp, site });
        }
        for &cs in sites {
            let site = cp.callsite(cs);
            if waiter.uses(site) {
                self.note_dep(goal, Goal::Pts(fp_of(site)));
            }
        }
        for site in known {
            self.wire(func, site, waiter);
        }
    }

    /// Wires the call edge `site → func` for one waiter: the argument
    /// flows into the formal, or the result destination joins the `ptb`
    /// goal, whose fact records the premise `@fn func ∈ pts(fp)`.
    fn wire(&mut self, func: FuncId, site: CallSiteId, waiter: CallWaiter) {
        let cp = self.cp();
        let call = cp.callsite(site);
        match waiter {
            CallWaiter::Param { formal, pos } => {
                if let Some(Some(a)) = call.args.get(pos as usize) {
                    self.subscribe(Goal::Pts(*a), Watcher::CopyTo { dst: formal });
                }
            }
            CallWaiter::Ret { obj } => {
                if let Some(d) = call.ret_dst {
                    let fp = fp_of(call);
                    let origin = Origin::Rule {
                        watcher: Watcher::Dispatch { fp, site },
                        src: Goal::Pts(fp),
                        elem: cp.func(func).object.as_u32(),
                    };
                    self.add(Goal::Ptb(obj), d.as_u32(), origin);
                }
            }
        }
    }
}
