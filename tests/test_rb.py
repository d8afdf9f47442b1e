"""The defining identity, companions, structure reports, property suites."""

import itertools

import numpy as np
import pytest

import rbgroups as rb
import rbgroups.rb as rb_module
from rbgroups.errors import InputFormatError, PropertyFailure
from rbgroups.groups import _closure_members


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


def test_derived_hom_clause_exact_on_unchecked_maps():
    # the clause is the defining identity itself, so it must agree with
    # the full pairwise check on maps that are not operators as well
    rng = np.random.default_rng(0)
    cases = [("cyclic:4", np.array(m)) for m in itertools.product(range(4), repeat=4)]
    cases += [("symmetric:3", np.concatenate([[0], rng.integers(0, 6, 5)]))
              for _ in range(150)]
    seen = set()
    for ident, B in cases:
        G = rb.named_group(ident)
        op = rb.RBOperator(G, B)
        D = rb.derived_group(op, validate=False)
        full = all(B[D.mul(g, h)] == G.mul(int(B[g]), int(B[h]))
                   for g in range(G.order) for h in range(G.order))
        assert rb.prop_initial_suite(op).clauses["derived-hom"] == full, (ident, B)
        seen.add(full)
    assert seen == {True, False}


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


def test_provenance_tracking():
    G = rb.named_group("cyclic:6")
    op = rb.trivial_e(G)
    prov = op.provenance
    assert prov["mode"] == "full"
    assert prov["checked"] == 36


# ----------------------------------------------------------------------
# verify_rb against a row-at-a-time scan of all n^2 pairs

def _row_oracle(G, B):
    """(ok, checked, witness) of the full check done one row g at a
    time: B(g) B(h) against B(g B(g) h B(g)^-1) for every h."""
    n = G.order
    if B[0] != 0:
        return False, 0, (0, 0)
    checked = 0
    for g in range(n):
        bg = int(B[g])
        lhs = G.row(bg)[B]
        rhs = B[G.col(G.inv(bg))[G.row(G.mul(g, bg))]]
        checked += n
        if not np.array_equal(lhs, rhs):
            h = int(np.nonzero(lhs != rhs)[0][0])
            return False, checked, (g, h)
    return True, checked, None


def _assert_matches_oracle(G, B):
    B = np.asarray(B, dtype=np.int64)
    res = rb.verify_rb(G, B)
    assert res.mode == "full"
    assert (res.ok, res.checked, res.witness) == _row_oracle(G, B)
    return res


def _broken(images, x, step=1):
    B = np.array(images, dtype=np.int64)
    B[x] = (B[x] + step) % B.size
    return B


@pytest.mark.parametrize("ident", ["paper16", "symmetric:4"])
@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
def test_blocked_verify_matches_row_oracle(monkeypatch, ident, rows):
    # A one-image change first fails on row 1 (every row g >= 1 meets
    # the changed image at h = x), so the block size is moved around
    # that row instead: with 1 or 2 rows per block row 1 is the last row
    # of its block, with 3 or 7 it is inside one and the last block is
    # partial, and None keeps the default (one block for n <= 90).
    G = rb.named_group(ident)
    n = G.order
    if rows is not None:
        monkeypatch.setattr(rb.rb, "_BLOCK_ENTRIES", rows * n)
    ops = rb.enumerate_rb(G, cap=n)
    for i, op in enumerate(ops):
        assert _assert_matches_oracle(G, op.images).ok
        res = _assert_matches_oracle(G, _broken(op.images, 1 + i % (n - 1)))
        assert not res.ok and res.checked == 2 * n


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6])
def test_blocked_verify_first_failure_late(monkeypatch, rows):
    # [0, 2, 0, 2, 2, 0] on S3 fails on rows 1, 3 and 4 only; renumbered
    # so that those become 3, 4, 5, its first failure is row n - 3, in
    # the last block for every block size here
    S3 = rb.named_group("symmetric:3")
    sigma = np.array([0, 3, 1, 4, 5, 2])
    table = np.empty((6, 6), dtype=np.int64)
    table[sigma[:, None], sigma] = sigma[S3.mul_block(np.arange(6), np.arange(6))]
    G = rb.FiniteGroup.from_table(table, name="S3 renumbered")
    B = np.empty(6, dtype=np.int64)
    B[sigma] = sigma[[0, 2, 0, 2, 2, 0]]
    monkeypatch.setattr(rb.rb, "_BLOCK_ENTRIES", rows * 6)
    res = _assert_matches_oracle(G, B)
    assert res.checked == 4 * 6


@pytest.mark.parametrize("ident", ["psl2:7", "psl2:8"])
def test_blocked_verify_partial_last_block(ident):
    # 168 = 3·48 + 24 and 504 = 31·16 + 8 rows: the last block is short
    G = rb.named_group(ident)
    n = G.order
    assert n % (rb_module._BLOCK_ENTRIES // n)
    split = rb.splitting_from_exact(rb.exact_factorizations(G)[-1])
    maps = [np.zeros(n, dtype=np.int64), G.inverse, split.images]
    for B in maps + [_broken(B, n - 1) for B in maps]:
        _assert_matches_oracle(G, B)


def test_blocked_verify_one_row_blocks():
    G = rb.named_group("psl2:23")
    n = G.order
    assert rb_module._BLOCK_ENTRIES // n == 1      # one row per block
    broken = np.zeros(n, dtype=np.int64)
    broken[1] = 1
    for B in (np.zeros(n, dtype=np.int64), G.inverse, broken):
        _assert_matches_oracle(G, B)


def _walked_columns(G, B):
    """The columns the walk checked on the one map B (``_walk``), in
    the order it checked them."""
    _, T = rb_module._walk(G, np.asarray(B)[None])
    return T[:, 0][T[:, 0] >= 0]


def _columns_short_of_g(G, B):
    """Whether the walk checked fewer than n columns on the operator B,
    after checking that the orbit of e under the maps g -> g o t, t a
    walked column, is all of G, as the exactness argument needs
    (g o t = g B(g) t B(g)^-1, computed here entry by entry)."""
    B = np.asarray(B, dtype=np.int64)
    cols = _walked_columns(G, B)
    reached, todo = {0}, [0]
    while todo:
        g = todo.pop()
        bg = int(B[g])
        for x in G.col(G.inv(bg))[G.row(G.mul(g, bg))[cols]].tolist():
            if x not in reached:
                reached.add(x)
                todo.append(x)
    assert reached == set(range(G.order))
    # each passed column at least doubles the reached subgroup
    assert 2 ** cols.size <= G.order
    return cols.size < G.order


@pytest.mark.parametrize("ident", ["cyclic:4", "elemabelian:2:2", "symmetric:3",
                                   "cyclic:5", "cyclic:6"])
def test_spanning_verify_matches_row_oracle_on_every_map(monkeypatch, ident):
    # one entry short of n^2 sends every map through the walk; a map
    # that fails a walked column is scanned against all of G, n - 1
    # entries g of its row per block
    G = rb.named_group(ident)
    n = G.order
    monkeypatch.setattr(rb.rb, "_BLOCK_ENTRIES", n * n - 1)
    short = 0
    for tail in itertools.product(range(n), repeat=n - 1):
        B = np.array((0,) + tail, dtype=np.int64)
        if _assert_matches_oracle(G, B).ok:
            short += _columns_short_of_g(G, B)
    assert short >= 2           # both trivial operators at least


@pytest.mark.parametrize("ident", ["psl2:13", "psl2:23"])
def test_spanning_verify_matches_row_oracle_on_perturbed_operators(ident):
    G = rb.named_group(ident)
    n = G.order
    assert n * n > rb_module._BLOCK_ENTRIES
    facts = rb.exact_factorizations(G)
    ops = [np.zeros(n, dtype=np.int64), G.inverse] + [
        rb.splitting_from_exact(f).images for f in facts[:4]]
    for i, B in enumerate(ops):
        assert _columns_short_of_g(G, B)
        assert rb.verify_rb(G, B).ok
        for x in (1 + i, n // 2 + i, n - 1 - i):
            for step in (1, n // 3):
                _assert_matches_oracle(G, _broken(B, x, step))


def test_spanning_verify_on_many_uncovered_columns():
    # on Z1000, g o h = g + h for both trivial operators, so their first
    # column, t = 1, gives the map g -> g + 1: one cycle through all of
    # G, which the walk closes by doubling after one column
    G = rb.named_group("cyclic:1000")
    for B in (np.zeros(1000, dtype=np.int64), G.inverse):
        assert _columns_short_of_g(G, B)
        assert _walked_columns(G, B).tolist() == [1]
        for C in (B, _broken(B, 1), _broken(B, 999, 7)):
            _assert_matches_oracle(G, C)


def _coset_break(G, cols):
    """A map that passes the walk's first len(cols) columns and fails
    the next: e outside one coset x K of K = <cols>, and cols[0] on it.
    The walked columns t lie in K and commute with cols[0] (K abelian,
    or K cyclic), so g o t = g t and B(g t) = B(g): each passes."""
    K = _closure_members(G, cols.tolist())
    x = int(np.flatnonzero(~np.isin(np.arange(G.order), K))[0])
    B = np.zeros(G.order, dtype=np.int64)
    B[G.row(x)[K]] = cols[0]
    return B


@pytest.mark.parametrize("ident, walked", [("alternating:6", 2), ("symmetric:6", 2),
                                           ("psl2:23", 3), ("elemabelian:2:7", 7)])
def test_walk_takes_further_columns(ident, walked):
    # the trivial operators' first column does not reach all of G, so
    # the walk checks the least element it has not reached next
    G = rb.named_group(ident)
    n = G.order
    B = np.stack([np.zeros(n, dtype=np.int64), G.inverse])
    failed, T = rb_module._walk(G, B)
    assert not failed.any() and T.shape == (walked, 2)
    assert T[:2].tolist() == [[1, 1], [2, 2]]
    for row in B:
        assert _columns_short_of_g(G, row)
        assert rb.verify_rb(G, row).checked == n * n
    rb_module.check_rows(G, B)


@pytest.mark.parametrize("ident, passed", [("alternating:6", 1), ("psl2:23", 1)] + [
    ("elemabelian:2:7", c) for c in range(1, 6)])
def test_walk_fails_a_later_column(ident, passed):
    # the map passes the first `passed` walked columns and fails the
    # next; verify_rb and check_rows still give the least failing pair
    # over all of G x G, and a batch with operators names that row
    G = rb.named_group(ident)
    n = G.order
    cols = _walked_columns(G, np.zeros(n, dtype=np.int64))
    B = _coset_break(G, cols[:passed])
    failed, T = rb_module._walk(G, B[None])
    assert failed[0] and T[:, 0].tolist() == cols[:passed + 1].tolist()
    res = _assert_matches_oracle(G, B)
    assert not res.ok
    rows = np.stack([np.zeros(n, dtype=np.int64), B, G.inverse, B])
    assert rb_module._first_failures(G, rows) == {1: res.witness, 3: res.witness}
    with pytest.raises(PropertyFailure) as info:
        rb_module.check_rows(G, rows)
    assert info.value.witness == res.witness


def test_walk_checks_few_columns_on_psl2_23(monkeypatch):
    # every column of the walk gathers 3 n table entries (g B(g) t,
    # g o t, B(g) B(t)), and a row that passes is not scanned
    G = rb.named_group("psl2:23")
    n = G.order
    gathered = []
    products = G.products

    def spy(index):
        gathered.append(np.size(index))
        return products(index)

    monkeypatch.setattr(G, "products", spy)
    for B in (np.zeros(n, dtype=np.int64), G.inverse):
        gathered.clear()
        assert rb.verify_rb(G, B).ok
        assert sum(gathered) <= 6 * 3 * n


@pytest.mark.parametrize("ident", ["cyclic:6", "elemabelian:2:3", "abelian:4x2",
                                   "symmetric:3", "dihedral:8", "quaternion:8"])
def test_derived_group_matches_row_table(ident):
    G = rb.named_group(ident)
    for op in all_ops(ident):
        B = op.images
        want = [G.col(G.inv(int(B[g])))[G.row(G.mul(g, int(B[g])))]
                for g in range(G.order)]
        got = rb.derived_group(op, validate=False)
        assert np.array_equal(got.mul_block(np.arange(G.order), np.arange(G.order)),
                              np.array(want))


@pytest.mark.parametrize("images", [
    pytest.param([0, 1.7, 2, 3], id="float"),
    pytest.param([0, 1, 2, 7], id="past-end"),
    pytest.param([0, -1, 2, 3], id="negative"),
    pytest.param([False, True, False, True], id="bool"),
])
def test_verify_rejects_bad_images(images):
    G = rb.named_group("cyclic:4")
    with pytest.raises(InputFormatError):
        rb.verify_rb(G, images)


def test_verify_rejects_out_of_range_operator():
    G = rb.named_group("cyclic:4")
    with pytest.raises(InputFormatError):
        rb.verify_rb(G, rb.RBOperator(G, [0, 1, 2, 4]))


def test_verify_refuses_an_operator_of_another_order():
    # the RBOperator path checks the length as the array path does
    G = rb.named_group("cyclic:4")
    with pytest.raises(ValueError, match="image array length must equal the group order"):
        rb.verify_rb(G, rb.trivial_e(rb.named_group("cyclic:6")))
    with pytest.raises(ValueError, match="image array length must equal the group order"):
        rb.verify_rb(G, np.zeros(6, dtype=np.int64))


# ----------------------------------------------------------------------
# the batched kernel against verify_rb, one row at a time

def _batch_matches_rows(G, B):
    """Check the kernel's failures on the matrix B against verify_rb on
    each row, witness included: the kernel gives every failing row its
    least failing pair over G x G.  Returns the failures."""
    B = np.asarray(B, dtype=np.int64)
    failed = rb_module._first_failures(G, B)
    for i, row in enumerate(B):
        res = rb.verify_rb(G, row)
        assert (i not in failed) == res.ok, i
        if not res.ok:
            assert failed[i] == res.witness, i
    return failed


@pytest.mark.parametrize("block", [None, 4, 7, 5 * 6 + 1])
def test_batched_check_matches_verify_on_every_map(monkeypatch, block):
    # every map of three groups of order 4 and 6, B(e) != e included,
    # stacked as one matrix.  The patched sizes give blocks of 1, 2 or
    # 11 whole maps on the groups of order 4, and of 1 or 5 maps on S3
    # at 7 · 6 and 31 · 6 entries.  At 4 · 6 = 24 S3's 36 pairs pass the
    # bound, so the S3 maps are walked 4 at a time, and those that fail
    # are scanned against all of G in blocks of 24 // 6 entries (i, g):
    # part of a map
    if block is not None:
        monkeypatch.setattr(rb.rb, "_BLOCK_ENTRIES", block * 6)
    for ident in ["cyclic:4", "elemabelian:2:2", "symmetric:3"]:
        G = rb.named_group(ident)
        n = G.order
        B = np.array(list(itertools.product(range(n), repeat=n)))
        failed = _batch_matches_rows(G, B)
        assert 0 < len(failed) < len(B)


@pytest.mark.parametrize("block", [None, 3 * 8192 + 1])
@pytest.mark.parametrize("ident", ["psl2:13", "psl2:23"])
def test_batched_check_on_perturbed_operators(monkeypatch, ident, block):
    # the operators and perturbations of the row-oracle test above, run
    # as one batch: past order 90 the rows are walked together, each on
    # the columns a walk of its own would check
    if block is not None:
        monkeypatch.setattr(rb.rb, "_BLOCK_ENTRIES", block)
    G = rb.named_group(ident)
    n = G.order
    facts = rb.exact_factorizations(G)
    ops = [np.zeros(n, dtype=np.int64), G.inverse] + [
        rb.splitting_from_exact(f).images for f in facts[:4]]
    rows = list(ops)
    for i, B in enumerate(ops):
        rows += [_broken(B, x, step) for x in (1 + i, n // 2 + i, n - 1 - i)
                 for step in (1, n // 3)]
    B = np.array(rows)
    failed = _batch_matches_rows(G, B)
    assert set(failed) == set(range(len(ops), len(B)))
    walked, T = rb_module._walk(G, B)
    assert set(np.flatnonzero(walked)) == set(failed)
    for i, B in enumerate(ops):
        assert _walked_columns(G, B).tolist() == T[:, i][T[:, i] >= 0].tolist()
