//! Structural diff of two constraint programs — the edit-detection half
//! of incremental invalidation.
//!
//! The diff is a *changed-node set*: the old node ids whose
//! rule-visible rows differ between the two programs. A goal whose
//! support set touches a changed node must be re-derived; everything
//! else may be kept warm. There are two ways to get one:
//!
//! * [`append_constraints`](crate::append_constraints) reads it off an
//!   append. A plain `add-constraints` edit is appended to the live
//!   program, so the rows that changed are exactly those of the appended
//!   constraints' old-node endpoints, and the diff costs time
//!   proportional to the edit.
//! * [`diff_programs`] compares two whole programs, for when there is no
//!   append to read: snapshot restore diffs the snapshot's program
//!   against the live one, and an edit that declares a `fun` or `field`
//!   is re-parsed whole. For every node id of the old program, a
//!   deterministic signature is computed over everything the deduction
//!   rules (`ddpa-demand`'s `rules.rs`) can read about that node — its
//!   display identity, address-takenness, all eight primitive adjacency
//!   rows, field-address rows, field declarations, and the full contents
//!   of every call site reachable from its argument/return/fp rows
//!   (plus, for function-object nodes, the function's signature and
//!   direct call sites). A node whose signature differs is *changed*.
//!
//! Two scans fall outside per-node rows and are tracked separately:
//!
//! * the global indirect-callsite list (`[PARAM]` and forward-prop rule
//!   (e) scan it in full) — [`ProgramDiff::indirect_changed`];
//! * identity itself — if any *old* node id resolves to a different
//!   location in the new program (or an old function's shape moved), the
//!   node-id space is not stable and no memoized answer can be rebound;
//!   [`ProgramDiff::compatible`] turns false and callers must fall back
//!   to full invalidation. Appends always keep the old id space intact;
//!   declarations renumber it.
//!
//! Hashing is FNV-1a over explicitly serialized fields — *not*
//! `DefaultHasher`, which is randomized per process and useless for
//! anything compared across parses.

use std::collections::HashMap;

use crate::model::{CallSiteId, CalleeRef, NodeId, NodeKind};
use crate::program::{ConstraintProgram, ProgramMark};

/// The changed-node summary of an edit `old → new`.
#[derive(Clone, Debug)]
pub struct ProgramDiff {
    /// Old-program node ids whose rule-visible signature changed, sorted
    /// ascending. Nodes that exist only in the new program are *not*
    /// listed — no old support set can reference them.
    pub changed: Vec<u32>,
    /// The global indirect-callsite list changed (a site was added or an
    /// existing one's contents differ).
    pub indirect_changed: bool,
    /// Old node ids mean the same locations in the new program. When
    /// false, `changed`/`indirect_changed` are meaningless and the caller
    /// must invalidate everything.
    pub compatible: bool,
}

impl ProgramDiff {
    /// The "give up" diff: incompatible, so callers fully invalidate.
    pub fn incompatible() -> Self {
        ProgramDiff {
            changed: Vec::new(),
            indirect_changed: true,
            compatible: false,
        }
    }

    /// Whether `node`'s signature changed.
    pub fn is_changed(&self, node: u32) -> bool {
        self.changed.binary_search(&node).is_ok()
    }

    /// Whether the edit changed nothing a rule can observe.
    pub fn is_noop(&self) -> bool {
        self.compatible && !self.indirect_changed && self.changed.is_empty()
    }
}

/// FNV-1a, the repo's standard process-independent hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn opt(&mut self, v: Option<NodeId>) {
        match v {
            Some(n) => self.u32(n.as_u32()),
            None => self.u32(u32::MAX),
        }
    }
}

/// Folds one call site's full rule-visible contents.
fn hash_callsite(h: &mut Fnv, cp: &ConstraintProgram, cs: CallSiteId) {
    let site = cp.callsite(cs);
    match site.callee {
        CalleeRef::Direct(f) => {
            h.byte(1);
            h.u32(f.as_u32());
        }
        CalleeRef::Indirect(fp) => {
            h.byte(2);
            h.u32(fp.as_u32());
        }
    }
    h.u32(site.args.len() as u32);
    for &a in &site.args {
        h.opt(a);
    }
    h.opt(site.ret_dst);
}

/// Per-program context precomputed once: field declarations grouped by
/// parent (the `field_of` lookup rules read them by parent node).
struct SigCtx<'a> {
    cp: &'a ConstraintProgram,
    fields_of: HashMap<NodeId, Vec<(u32, NodeId)>>,
}

impl<'a> SigCtx<'a> {
    fn new(cp: &'a ConstraintProgram) -> Self {
        let mut fields_of: HashMap<NodeId, Vec<(u32, NodeId)>> = HashMap::new();
        for (parent, field, node) in cp.field_nodes() {
            fields_of.entry(parent).or_default().push((field, node));
        }
        SigCtx { cp, fields_of }
    }

    /// The signature of everything a rule can read about `n`.
    fn node_sig(&self, n: NodeId) -> u64 {
        let cp = self.cp;
        let mut h = Fnv::new();
        h.str(&cp.display_node(n));
        h.byte(cp.is_address_taken(n) as u8);
        for row in [
            cp.addr_objs_of(n),
            cp.addr_dsts_of(n),
            cp.copy_srcs_of(n),
            cp.copy_dsts_of(n),
            cp.load_ptrs_of(n),
            cp.load_dsts_of(n),
            cp.store_srcs_of(n),
            cp.store_ptrs_of(n),
        ] {
            h.u32(row.len() as u32);
            for &m in row {
                h.u32(m.as_u32());
            }
        }
        h.u32(cp.field_addrs_of(n).len() as u32);
        for &(base, field) in cp.field_addrs_of(n) {
            h.u32(base.as_u32());
            h.u32(field);
        }
        h.u32(cp.field_addrs_from(n).len() as u32);
        for &(field, dst) in cp.field_addrs_from(n) {
            h.u32(field);
            h.u32(dst.as_u32());
        }
        if let Some(decls) = self.fields_of.get(&n) {
            h.u32(decls.len() as u32);
            for &(field, node) in decls {
                h.u32(field);
                h.u32(node.as_u32());
            }
        } else {
            h.u32(0);
        }
        // Callsite-backed rows fold the sites' full contents, so editing
        // a call dirties every node whose rules read that call.
        h.u32(cp.arg_uses_of(n).len() as u32);
        for &(cs, pos) in cp.arg_uses_of(n) {
            h.u32(pos);
            hash_callsite(&mut h, cp, cs);
        }
        h.u32(cp.ret_dst_uses_of(n).len() as u32);
        for &cs in cp.ret_dst_uses_of(n) {
            hash_callsite(&mut h, cp, cs);
        }
        h.u32(cp.fp_uses_of(n).len() as u32);
        for &cs in cp.fp_uses_of(n) {
            hash_callsite(&mut h, cp, cs);
        }
        // A function-object node also carries the function's shape and
        // direct call sites ([PARAM]/[RET]/fwd-prop (e) attribute those
        // reads to the function object).
        if let NodeKind::Func { func } = cp.node(n).kind {
            let info = cp.func(func);
            h.u32(info.formals.len() as u32);
            for &f in &info.formals {
                h.u32(f.as_u32());
            }
            h.u32(info.ret.as_u32());
            h.u32(cp.direct_callsites_of(func).len() as u32);
            for &cs in cp.direct_callsites_of(func) {
                hash_callsite(&mut h, cp, cs);
            }
        }
        h.0
    }

    /// The signature of the global indirect-callsite list.
    fn indirect_sig(&self) -> u64 {
        let cp = self.cp;
        let mut h = Fnv::new();
        h.u32(cp.indirect_callsites().len() as u32);
        for &cs in cp.indirect_callsites() {
            hash_callsite(&mut h, cp, cs);
        }
        h.0
    }
}

/// Checks that every old node id still names the same location and every
/// old function kept its shape — the precondition for rebinding any
/// memoized entry.
fn compatible(old: &ConstraintProgram, new: &ConstraintProgram) -> bool {
    if new.num_nodes() < old.num_nodes() {
        return false;
    }
    for n in old.node_ids() {
        if old.display_node(n) != new.display_node(n) {
            return false;
        }
    }
    if new.funcs().len() < old.funcs().len() {
        return false;
    }
    for (f, info) in old.funcs().iter_enumerated() {
        let ninfo = new.func(f);
        if old.interner().resolve(info.name) != new.interner().resolve(ninfo.name)
            || info.object != ninfo.object
            || info.formals != ninfo.formals
            || info.ret != ninfo.ret
        {
            return false;
        }
    }
    true
}

/// Diffs `old → new`, producing the changed-node set the dirtying pass
/// consumes. See the module docs for what a "change" is.
pub fn diff_programs(old: &ConstraintProgram, new: &ConstraintProgram) -> ProgramDiff {
    if !compatible(old, new) {
        return ProgramDiff::incompatible();
    }
    let old_ctx = SigCtx::new(old);
    let new_ctx = SigCtx::new(new);
    let mut changed = Vec::new();
    for n in old.node_ids() {
        if old_ctx.node_sig(n) != new_ctx.node_sig(n) {
            changed.push(n.as_u32());
        }
    }
    changed.sort_unstable();
    ProgramDiff {
        changed,
        indirect_changed: old_ctx.indirect_sig() != new_ctx.indirect_sig(),
        compatible: true,
    }
}

/// The diff of appending everything past `mark` to the program `cp` had
/// at `mark`: the old-node endpoints of the appended constraints and
/// call sites. Equal to [`diff_programs`] over the two programs, because
/// an append adds to exactly those nodes' rows and to no other old
/// node's.
pub(crate) fn diff_appended(cp: &ConstraintProgram, mark: &ProgramMark) -> ProgramDiff {
    let mut changed = Vec::new();
    let mut touch = |n: NodeId| {
        if (n.as_u32() as usize) < mark.nodes {
            changed.push(n.as_u32());
        }
    };
    for a in &cp.addr_ofs()[mark.addr_ofs..] {
        touch(a.dst);
        touch(a.obj);
    }
    for c in &cp.copies()[mark.copies..] {
        touch(c.dst);
        touch(c.src);
    }
    for l in &cp.loads()[mark.loads..] {
        touch(l.dst);
        touch(l.ptr);
    }
    for s in &cp.stores()[mark.stores..] {
        touch(s.ptr);
        touch(s.src);
    }
    for fa in &cp.field_addrs()[mark.field_addrs..] {
        touch(fa.dst);
        touch(fa.base);
    }
    let mut indirect_changed = false;
    for site in &cp.callsites().as_slice()[mark.callsites..] {
        for &arg in site.args.iter().flatten() {
            touch(arg);
        }
        if let Some(ret) = site.ret_dst {
            touch(ret);
        }
        match site.callee {
            CalleeRef::Direct(f) => touch(cp.func(f).object),
            CalleeRef::Indirect(fp) => {
                touch(fp);
                indirect_changed = true;
            }
        }
    }
    changed.sort_unstable();
    changed.dedup();
    ProgramDiff {
        changed,
        indirect_changed,
        compatible: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse_constraints;

    fn node(cp: &ConstraintProgram, name: &str) -> u32 {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("node {name}"))
            .as_u32()
    }

    #[test]
    fn identical_programs_diff_to_noop() {
        let a = parse_constraints("p = &o\nq = p\n").expect("parse");
        let b = parse_constraints("p = &o\nq = p\n").expect("parse");
        let d = diff_programs(&a, &b);
        assert!(d.compatible);
        assert!(d.is_noop());
    }

    #[test]
    fn appended_constraint_changes_exactly_its_endpoints() {
        let a = parse_constraints("p = &o\nq = p\nr = &u\n").expect("parse");
        let b = parse_constraints("p = &o\nq = p\nr = &u\nq = r\n").expect("parse");
        let d = diff_programs(&a, &b);
        assert!(d.compatible);
        assert!(!d.indirect_changed);
        // `q = r` touches q's copy_srcs row and r's copy_dsts row; p/o/u
        // rows are untouched.
        assert_eq!(
            d.changed,
            vec![node(&a, "q"), node(&a, "r")],
            "only the edit's endpoints change"
        );
        assert!(!d.is_changed(node(&a, "p")));
        assert!(!d.is_changed(node(&a, "o")));
    }

    #[test]
    fn new_nodes_are_not_reported_as_changed() {
        let a = parse_constraints("p = &o\n").expect("parse");
        let b = parse_constraints("p = &o\nz = &w\n").expect("parse");
        let d = diff_programs(&a, &b);
        assert!(d.compatible);
        assert!(d.changed.is_empty(), "p and o rows are untouched");
    }

    #[test]
    fn taking_an_address_changes_the_object() {
        let a = parse_constraints("p = &o\nq = &u\n").expect("parse");
        let b = parse_constraints("p = &o\nq = &u\nr = &o\n").expect("parse");
        let d = diff_programs(&a, &b);
        assert!(d.is_changed(node(&a, "o")), "o's addr_dsts row grew");
        assert!(!d.is_changed(node(&a, "u")));
    }

    #[test]
    fn divergent_node_spaces_are_incompatible() {
        let a = parse_constraints("p = &o\n").expect("parse");
        let b = parse_constraints("q = &o\np = q\n").expect("parse");
        let d = diff_programs(&a, &b);
        assert!(!d.compatible, "node 0 is p in one program, q in the other");
    }

    #[test]
    fn shrinking_is_incompatible() {
        let a = parse_constraints("p = &o\nq = p\n").expect("parse");
        let b = parse_constraints("p = &o\n").expect("parse");
        assert!(!diff_programs(&a, &b).compatible);
    }
}
