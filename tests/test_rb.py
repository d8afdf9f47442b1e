"""The defining identity, companions, structure reports, property suites."""

import numpy as np
import pytest

import rbgroups as rb
from rbgroups.errors import InputFormatError, PropertyFailure


def all_ops(ident):
    return rb.enumerate_rb(rb.named_group(ident))


def test_trivial_operators_verify():
    for ident in ["cyclic:6", "symmetric:3", "quaternion:8", "psl2:4"]:
        G = rb.named_group(ident)
        for op in (rb.trivial_e(G), rb.trivial_inv(G)):
            res = rb.verify_rb(G, op)
            assert res.ok
            assert res.witness is None
            assert rb.is_splitting(op)


def test_trivial_e_images():
    G = rb.named_group("cyclic:5")
    assert list(rb.trivial_e(G).images) == [0] * 5
    assert list(rb.trivial_inv(G).images) == [G.inv(g) for g in range(5)]


def test_verify_rejects_with_least_witness():
    G = rb.named_group("cyclic:4")
    res = rb.verify_rb(G, np.array([0, 1, 0, 1], dtype=np.int64))
    assert not res.ok
    assert res.witness == (1, 1)      # lexicographically least failing pair
    g, h = res.witness
    B = np.array([0, 1, 0, 1])
    bg = int(B[g])
    lhs = G.mul(bg, int(B[h]))
    inner = G.mul(G.mul(G.mul(g, bg), h), G.inv(bg))
    assert lhs != int(B[inner])


def test_make_rb_raises_on_non_operator():
    G = rb.named_group("symmetric:3")
    with pytest.raises(PropertyFailure):
        rb.make_rb(G, [0, 1, 2, 3, 4, 5][::-1])


def test_make_rb_validates_shape():
    G = rb.named_group("cyclic:4")
    with pytest.raises(Exception):
        rb.make_rb(G, [0, 1])


def test_sampled_mode_consistent():
    G = rb.named_group("psl2:4")
    op = rb.trivial_inv(G)
    full = rb.verify_rb(G, op, mode="full")
    sampled = rb.verify_rb(G, op, mode="sampled", seed=7, samples=2000)
    assert full.ok and sampled.ok
    assert sampled.mode == "sampled"
    assert sampled.checked == 2000


def test_sampled_mode_seed_reproducible():
    G = rb.named_group("cyclic:4")
    bad = np.array([0, 1, 0, 1], dtype=np.int64)
    a = rb.verify_rb(G, bad, mode="sampled", seed=3, samples=50)
    b = rb.verify_rb(G, bad, mode="sampled", seed=3, samples=50)
    assert a.ok == b.ok
    assert a.witness == b.witness


@pytest.mark.parametrize("mode,samples", [("sampled", 0), ("sampled", -1),
                                          ("sample", 50), ("fast", 50)])
def test_verify_rejects_bad_mode_or_sample_count(mode, samples):
    # [0, 1, 1, 1] is no operator on Z4, yet zero samples used to pass it
    G = rb.named_group("cyclic:4")
    with pytest.raises(InputFormatError):
        rb.verify_rb(G, np.array([0, 1, 1, 1]), mode=mode, samples=samples)


@pytest.mark.parametrize("ident", ["cyclic:6", "symmetric:3", "dihedral:8"])
def test_companion_is_involution(ident):
    for op in all_ops(ident):
        bt = rb.btilde(op)
        assert rb.verify_rb(op.group, bt).ok
        back = rb.btilde(bt)
        assert np.array_equal(back.images, op.images)


def test_companion_formula():
    G = rb.named_group("symmetric:3")
    for op in all_ops("symmetric:3"):
        bt = rb.btilde(op)
        for g in range(6):
            ig = G.inv(g)
            assert bt.images[g] == G.mul(ig, int(op.images[ig]))


def test_conjugate_rb_stays_rb():
    G = rb.named_group("dihedral:8")
    ops = all_ops("dihedral:8")
    keys = {op.key() for op in ops}
    for phi in rb.automorphism_group(G):
        for op in ops[:6]:
            moved = rb.conjugate_rb(op, phi)
            assert rb.verify_rb(G, moved).ok
            assert moved.key() in keys        # the census is Aut-stable


def test_image_and_kernel_are_subgroups():
    G, op = rb.paper16_fixture()
    im = rb.image(op)
    ker = rb.kernel(op)
    assert sorted(int(x) for x in im.members) == [0, 2, 4, 6, 8, 10, 12, 14]
    assert sorted(int(x) for x in ker.members) == [0, 2]
    assert rb.is_normal(G, ker, within=rb.image(rb.btilde(op)))


def test_splitting_iff_composite_trivial():
    for ident in ["cyclic:6", "symmetric:3", "dihedral:8", "quaternion:8"]:
        for op in all_ops(ident):
            assert rb.is_splitting(op) == (rb.im_bbt(op).size == 1)


def test_derived_group_is_group():
    G = rb.named_group("symmetric:3")
    for op in all_ops("symmetric:3"):
        D = rb.derived_group(op)
        assert D.order == 6
        D.check_axioms()


def test_operator_is_hom_from_derived():
    # B is a homomorphism from the derived structure to the original one
    G = rb.named_group("symmetric:3")
    for op in all_ops("symmetric:3"):
        D = rb.derived_group(op)
        B = op.images
        for g in range(6):
            for h in range(6):
                assert B[D.mul(g, h)] == G.mul(int(B[g]), int(B[h]))


@pytest.mark.parametrize("ident", ["cyclic:8", "symmetric:3", "dihedral:8",
                                   "quaternion:8"])
def test_prop_suite_on_census(ident):
    for op in all_ops(ident):
        verdict = rb.prop_initial_suite(op)
        assert verdict.ok, verdict


def test_structure_report_paper16():
    G, op = rb.paper16_fixture()
    rep = rb.structure_report(op)
    assert not rep.splitting
    assert rep.image.order == 8
    assert rep.image_tilde.order == 8
    assert rep.kernel.order == 2
    assert rep.kernel_tilde.order == 2
    assert rep.r.order == 4
    assert rep.quotient_order == 4
    assert rep.ok(), rep.checks


def test_structure_report_trivial():
    G = rb.named_group("symmetric:4")
    rep = rb.structure_report(rb.trivial_e(G))
    assert rep.splitting
    assert rep.image.order == 1
    assert rep.image_tilde.order == 24
    assert rep.r.order == 1
    assert rep.im_bbt_size == 1
    assert rep.ok()


def test_quotient_index_equality():
    # |Im(B~) : ker(B)| = |Im(B) : ker(B~)| = |R| on every census operator
    for ident in ["symmetric:3", "dihedral:8", "abelian:4x2"]:
        for op in all_ops(ident):
            imb = rb.image(op)
            imbt = rb.image(rb.btilde(op))
            kerb = rb.kernel(op)
            kerbt = rb.kernel(rb.btilde(op))
            r = rb.intersection(imb, imbt)
            assert imbt.order // kerb.order == r.order
            assert imb.order // kerbt.order == r.order


def test_old_convention_differs():
    G = rb.named_group("symmetric:3")
    flags = []
    for op in all_ops("symmetric:3"):
        d = rb.lemma_old_diagnostic(G, op)
        assert d.new_holds
        flags.append(d.old_holds)
        if not d.old_holds:
            assert d.witness_old is not None
    assert flags.count(False) == 4      # the two conventions genuinely differ


def test_provenance_tracking():
    G = rb.named_group("cyclic:6")
    op = rb.trivial_e(G)
    prov = op.provenance
    assert prov["mode"] == "full"
    assert prov["checked"] == 36
