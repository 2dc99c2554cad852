//! Helpers shared by the constraint-text integration tests.

use ddpa_constraints::{print_constraints, ConstraintProgram};

/// Asserts that two programs are the same: node ids and names, every
/// index row, call sites and printed text.
pub fn assert_same(a: &ConstraintProgram, b: &ConstraintProgram, ctx: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}: node count");
    assert_eq!(a.funcs().len(), b.funcs().len(), "{ctx}: function count");
    assert_eq!(a.addr_ofs(), b.addr_ofs(), "{ctx}: addr-of rows");
    assert_eq!(a.copies(), b.copies(), "{ctx}: copy rows");
    assert_eq!(a.loads(), b.loads(), "{ctx}: load rows");
    assert_eq!(a.stores(), b.stores(), "{ctx}: store rows");
    assert_eq!(
        a.field_addrs(),
        b.field_addrs(),
        "{ctx}: field-address rows"
    );
    assert_eq!(a.field_nodes(), b.field_nodes(), "{ctx}: field nodes");
    assert_eq!(
        a.callsites().as_slice(),
        b.callsites().as_slice(),
        "{ctx}: call sites"
    );
    assert_eq!(
        a.indirect_callsites(),
        b.indirect_callsites(),
        "{ctx}: indirect call sites"
    );
    for n in a.node_ids() {
        assert_eq!(a.node(n), b.node(n), "{ctx}: node {n:?}");
        assert_eq!(a.display_node(n), b.display_node(n), "{ctx}: name of {n:?}");
        assert_eq!(a.owner_of(n), b.owner_of(n), "{ctx}: owner of {n:?}");
        assert_eq!(
            a.is_address_taken(n),
            b.is_address_taken(n),
            "{ctx}: address-taken {n:?}"
        );
        let rows = |cp: &ConstraintProgram| {
            (
                [
                    cp.addr_objs_of(n).to_vec(),
                    cp.addr_dsts_of(n).to_vec(),
                    cp.copy_srcs_of(n).to_vec(),
                    cp.copy_dsts_of(n).to_vec(),
                    cp.load_ptrs_of(n).to_vec(),
                    cp.load_dsts_of(n).to_vec(),
                    cp.store_srcs_of(n).to_vec(),
                    cp.store_ptrs_of(n).to_vec(),
                ],
                cp.field_addrs_of(n).to_vec(),
                cp.field_addrs_from(n).to_vec(),
                cp.arg_uses_of(n).to_vec(),
                cp.ret_dst_uses_of(n).to_vec(),
                cp.fp_uses_of(n).to_vec(),
            )
        };
        assert_eq!(rows(a), rows(b), "{ctx}: rows of {n:?}");
    }
    for (f, _) in a.funcs().iter_enumerated() {
        assert_eq!(a.func(f), b.func(f), "{ctx}: function {f:?}");
        assert_eq!(
            a.direct_callsites_of(f),
            b.direct_callsites_of(f),
            "{ctx}: direct call sites of {f:?}"
        );
    }
    assert_eq!(a.address_taken_funcs(), b.address_taken_funcs(), "{ctx}");
    assert_eq!(print_constraints(a), print_constraints(b), "{ctx}: printed");
}
