"""Core group machinery: tables, vectorized products, structure queries."""

import hashlib

import numpy as np
import pytest

import rbgroups as rb
from rbgroups.errors import InputFormatError, ResourceCapError
from rbgroups.groups import MAX_DENSE_ORDER, FiniteGroup, orbit_labels


def test_from_table_rejects_non_group():
    bad = np.zeros((3, 3), dtype=np.int64)  # constant row: no inverses
    with pytest.raises(InputFormatError):
        FiniteGroup.from_table(bad)


def test_from_table_rejects_monoid_without_inverses():
    # {e, z} with z z = z: associative with identity 0, but z has no
    # inverse, so 0 is missing from its row
    with pytest.raises(InputFormatError, match="not a Latin square"):
        FiniteGroup.from_table([[0, 1], [1, 1]])


def test_from_table_rejects_non_square():
    with pytest.raises(InputFormatError):
        FiniteGroup.from_table(np.zeros((2, 3), dtype=np.int64))


def test_identity_and_inverses():
    G = rb.named_group("symmetric:4")
    e = G.identity
    assert e == 0
    for g in range(G.order):
        assert G.mul(g, G.inv(g)) == e
        assert G.mul(G.inv(g), g) == e
        assert G.mul(e, g) == g == G.mul(g, e)


@pytest.mark.parametrize("ident", ["cyclic:6", "symmetric:3", "dihedral:8",
                                   "quaternion:8", "paper16"])
def test_associativity_spot(ident):
    G = rb.named_group(ident)
    rng = np.random.default_rng(0)
    n = G.order
    for _ in range(200):
        a, b, c = (int(x) for x in rng.integers(0, n, size=3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_row_col_match_mul():
    G = rb.named_group("dihedral:8")
    for g in range(G.order):
        assert [G.mul(g, x) for x in range(G.order)] == list(G.row(g))
        assert [G.mul(x, g) for x in range(G.order)] == list(G.col(g))


def test_mul_vec_and_block():
    G = rb.named_group("symmetric:3")
    a = np.array([0, 1, 2, 3, 4, 5])
    b = np.array([5, 4, 3, 2, 1, 0])
    out = G.mul_vec(a, b)
    for i in range(6):
        assert out[i] == G.mul(int(a[i]), int(b[i]))
    blk = G.mul_block(np.array([1, 2]), np.array([3, 4]))
    assert blk.shape == (2, 2)
    assert blk[0, 1] == G.mul(1, 4)
    assert blk[1, 0] == G.mul(2, 3)


def test_element_orders_oracle():
    G = rb.named_group("cyclic:12")
    expected = [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
    assert list(G.element_orders()) == expected


def test_power_and_pow_vec():
    G = rb.named_group("cyclic:10")
    assert G.power(1, 7) == 7
    assert G.power(3, 0) == 0
    assert G.power(3, -1) == G.inv(3)
    assert list(G.pow_vec(np.arange(10), 2)) == [(2 * k) % 10 for k in range(10)]


def test_conjugate_all_semantics():
    G = rb.named_group("symmetric:3")
    for s in range(G.order):
        v = G.conjugate_all(s)
        for x in range(G.order):
            assert v[x] == G.mul(G.mul(G.inv(x), s), x)


def test_commutator():
    G = rb.named_group("symmetric:3")
    # commutators of commuting elements are trivial
    for g in range(G.order):
        assert G.commutator(g, g) == 0
        assert G.commutator(g, 0) == 0


@pytest.mark.parametrize("ident,abelian", [
    ("cyclic:8", True), ("elemabelian:2:3", True), ("abelian:4x2", True),
    ("symmetric:3", False), ("dihedral:8", False), ("quaternion:8", False),
    ("paper16", False),
])
def test_is_abelian(ident, abelian):
    assert rb.named_group(ident).is_abelian() is abelian


@pytest.mark.parametrize("ident,centre_size", [
    ("symmetric:3", 1), ("dihedral:8", 2), ("quaternion:8", 2),
    ("paper16", 4), ("cyclic:6", 6),
])
def test_center_sizes(ident, centre_size):
    assert rb.named_group(ident).center().size == centre_size


@pytest.mark.parametrize("ident,exponent", [
    ("cyclic:12", 12), ("elemabelian:2:3", 2), ("symmetric:3", 6),
    ("dihedral:8", 4), ("quaternion:8", 4),
])
def test_exponent(ident, exponent):
    assert rb.named_group(ident).exponent() == exponent


def test_conjugacy_classes_partition():
    G = rb.named_group("symmetric:4")
    classes = G.conjugacy_classes()
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 3, 6, 6, 8]
    seen = np.concatenate(classes)
    assert sorted(seen) == list(range(24))


def test_class_of_constant_on_classes():
    G = rb.named_group("dihedral:8")
    cid = G.class_of()
    for c in G.conjugacy_classes():
        assert len({int(cid[x]) for x in c}) == 1


def test_find_generating_set():
    for ident in ["cyclic:9", "symmetric:4", "quaternion:8", "paper16"]:
        G = rb.named_group(ident)
        gens = G.find_generating_set()
        assert rb.closure(G, list(gens)).order == G.order


def test_fingerprint_is_isomorphism_invariant():
    A = rb.named_group("psl2:4")
    B = rb.named_group("psl2:5")
    C = rb.named_group("alternating:5")
    assert A.fingerprint() == B.fingerprint() == C.fingerprint()
    assert A.fingerprint_hex() == C.fingerprint_hex()


def test_fingerprint_separates_same_order():
    assert (rb.named_group("dihedral:8").fingerprint()
            != rb.named_group("quaternion:8").fingerprint())
    assert (rb.named_group("cyclic:8").fingerprint()
            != rb.named_group("abelian:4x2").fingerprint())


def test_from_permutations_symmetric():
    # S3 from its two standard generators
    G = FiniteGroup.from_permutations(3, [[1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert not G.is_abelian()


def test_check_axioms_passes():
    rb.named_group("dihedral:12").check_axioms()


def _associative_oracle(table):
    """(a b) c = a (b c) for all a, b, c, one column c at a time."""
    t = np.asarray(table, dtype=np.int64)
    return all((t[t, c] == t[:, t[:, c]]).all() for c in range(len(t)))


def _accepted(table):
    try:
        FiniteGroup.from_table(table)
    except InputFormatError:
        return False
    return True


def _table(G):
    ar = np.arange(G.order)
    return G.mul_block(ar, ar)


# every catalog family at each of its orders up to 64 (a sample of the
# abelian shapes)
_CATALOG_UP_TO_64 = [
    *(f"cyclic:{n}" for n in range(1, 65)),
    *(f"dihedral:{n}" for n in range(4, 65, 2)),
    *(f"elemabelian:{p}:{m}" for p, top in ((2, 6), (3, 3), (5, 2), (7, 2))
      for m in range(1, top + 1)),
    "abelian:4x2", "abelian:6x2", "abelian:4x4", "abelian:8x2", "abelian:2x2x3",
    "abelian:4x2x2", "abelian:3x3x3", "abelian:6x6", "abelian:8x8",
    "quaternion:8", "paper16",
    *(f"symmetric:{n}" for n in range(1, 5)),
    *(f"alternating:{n}" for n in range(3, 6)),
    "psl2:4", "psl2:5",
]


def test_catalog_tables_pass_light_test_and_oracle():
    for ident in _CATALOG_UP_TO_64:
        t = _table(rb.named_group(ident))
        assert t.shape[0] <= 64
        assert _associative_oracle(t), ident
        assert _accepted(t), ident


def _intercalate_swaps(t):
    """Each table with one 2 x 2 subsquare [[a, b], [b, a]] off row
    and column 0 turned into [[b, a], [a, b]]: still a Latin square
    with identity 0, maybe not associative."""
    n = len(t)
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    a, b = t[r1, c1], t[r1, c2]
                    if t[r2, c2] == a and t[r2, c1] == b:
                        u = t.copy()
                        u[r1, c1] = u[r2, c2] = b
                        u[r1, c2] = u[r2, c1] = a
                        yield u


# Z4's one swap, on rows and columns {1, 3}, gives the table of Z2^2
_SWAPS = [("cyclic:4", 1, 1), ("cyclic:12", 0, 25), ("dihedral:8", 0, 45)]


@pytest.mark.parametrize("ident,groups,swaps", _SWAPS)
def test_light_test_matches_oracle_on_intercalate_swaps(ident, groups, swaps):
    verdicts = []
    for u in _intercalate_swaps(_table(rb.named_group(ident))):
        verdicts.append(_accepted(u))
        assert verdicts[-1] == _associative_oracle(u)
    assert (sum(verdicts), len(verdicts)) == (groups, swaps)


_REFUSED_ORDERS = [200, 400, 1000]


@pytest.mark.parametrize("n", _REFUSED_ORDERS)
def test_non_associative_latin_square_refused(n):
    # Z_n with one intercalate swapped: a Latin square with identity 0
    # in which only a small share of the triples fail associativity
    t = np.add.outer(np.arange(n), np.arange(n)) % n
    h = n // 2
    t[3, 5] = t[3 + h, 5 + h] = 8 + h
    t[3, 5 + h] = t[3 + h, 5] = 8
    with pytest.raises(InputFormatError, match="not associative"):
        FiniteGroup.from_table(t)


@pytest.mark.parametrize("entries", [1, MAX_DENSE_ORDER ** 2])
def test_light_test_verdicts_do_not_depend_on_block_size(monkeypatch, entries):
    # blocks of one row each, or the whole table as one block
    monkeypatch.setattr(rb.groups, "_AXIOM_BLOCK_ENTRIES", entries)
    for case in _SWAPS:
        test_light_test_matches_oracle_on_intercalate_swaps(*case)
    for n in _REFUSED_ORDERS:
        test_non_associative_latin_square_refused(n)


@pytest.mark.parametrize("n", [1000, 2500])
def test_defect_in_last_row_refused_past_the_last_full_block(n):
    # Z_n with two entries of row n - 1 swapped: Light's test with s = 1
    # fails only for x = n - 2 and x = n - 1, in a last block that is
    # shorter than the others
    rows = rb.groups._AXIOM_BLOCK_ENTRIES // n
    assert n % rows >= 2
    t = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.uint16)
    t[n - 1, [5, 6]] = t[n - 1, [6, 5]]
    with pytest.raises(InputFormatError, match="not associative"):
        FiniteGroup.from_table(t)


def test_light_test_blocks_stay_under_the_mmap_threshold():
    # glibc maps every allocation of 128 KiB or more on its own, faulted
    # in page by page; each block gathers two uint16 arrays and compares
    # them into a bool one, and each generator makes two intp index arrays
    n = np.arange(1, MAX_DENSE_ORDER + 1)
    entries = np.maximum(1, rb.groups._AXIOM_BLOCK_ENTRIES // n) * n
    assert entries.max() * np.dtype(np.uint16).itemsize < 131072
    assert entries.max() * np.dtype(bool).itemsize < 131072
    assert MAX_DENSE_ORDER * np.dtype(np.intp).itemsize < 131072


def test_left_zero_band_refused_after_few_generators(monkeypatch):
    # x y = x for x, y >= 1, identity 0: associative, every s passes
    # Light's test and each kept generator grows the closure by one, so
    # unbounded it would keep n - 1 generators at about n^3 / 3 work
    n = 2000
    t = np.broadcast_to(np.arange(n)[:, None], (n, n)).copy()
    t[0] = np.arange(n)
    calls = []
    closure = rb.groups._closure_members
    monkeypatch.setattr(rb.groups, "_closure_members",
                        lambda *a, **k: calls.append(1) or closure(*a, **k))
    with pytest.raises(InputFormatError, match="not a Latin square"):
        FiniteGroup.from_table(t)
    # in a group each kept generator at least doubles the closure
    assert len(calls) <= int(np.log2(n))


def test_gens_that_do_not_generate_refused():
    t = np.add.outer(np.arange(6), np.arange(6)) % 6
    FiniteGroup.from_table(t, gens=(1,))
    with pytest.raises(InputFormatError, match="do not generate"):
        FiniteGroup.from_table(t, gens=(2,))
    # unvalidated tables are taken on trust
    FiniteGroup.from_table(t, gens=(2,), validate=False)


def test_table_past_dense_bound_refused_before_conversion():
    n = MAX_DENSE_ORDER + 1
    # a broadcast view: refused before any n x n array is made
    with pytest.raises(ResourceCapError):
        FiniteGroup.from_table(np.broadcast_to(np.zeros(1, dtype=np.int64), (n, n)))


# sha256 of the full int64 product block of catalog permutation groups:
# pins the breadth-first element numbering that every output depends on
_TABLE_SHA256 = {
    "symmetric:5": "0c3028285ab5321164e78641cc8a115f60cdef6334a81676213de4f7110248d1",
    "symmetric:6": "dfbaca1d389953bbb010c04083cf13aa50bc1d4bafdf901f4d1df865fac053f6",
    "psl2:7": "65503f5a08f449ec4dce89bcb66b6380a694c5ac5f19e8a789b74084c67b590e",
    "psl2:8": "20fbf0c7163c8ec04fe7d1aa7453748d9ee10c0cd5bfc730571ad994f0e1763c",
    "psl2:13": "d50510378c8efecccc1555b2c1bd94d9ae2ce041d1b43d1cb5f1500a5769c997",
}


@pytest.mark.parametrize("ident", sorted(_TABLE_SHA256))
def test_permutation_group_table_golden(ident):
    G = rb.named_group(ident)
    ar = np.arange(G.order)
    blk = G.mul_block(ar, ar)
    assert hashlib.sha256(blk.tobytes()).hexdigest() == _TABLE_SHA256[ident]


def test_permutation_closure_past_dense_bound_refused():
    # S8 has order 40320 > 10240, so the raised order cap does not help
    with pytest.raises(ResourceCapError):
        FiniteGroup.from_permutations(8, [[1, 0, 2, 3, 4, 5, 6, 7],
                                          [1, 2, 3, 4, 5, 6, 7, 0]],
                                      order_cap=50000)


def test_permutation_degree_past_int16():
    # points past 32767 need a dtype wider than int16
    d = 40000
    cycle = np.arange(d)
    cycle[[32766, 32767, 32768]] = [32767, 32768, 32766]
    swap = np.arange(d)
    swap[[0, d - 1]] = [d - 1, 0]
    for perm, order in ((cycle, 3), (swap, 2)):
        G = FiniteGroup.from_permutations(d, [perm])
        assert G.order == order
        assert G.order_of(G.gens[0]) == order


def test_orbit_labels_give_least_point_of_each_orbit():
    # <(0 1), (1 2)(4 5)> has orbits {0, 1, 2}, {3}, {4, 5}
    maps = [np.array([1, 0, 2, 3, 4, 5]), np.array([0, 2, 1, 3, 5, 4])]
    assert orbit_labels(6, maps).tolist() == [0, 0, 0, 3, 4, 4]
    assert orbit_labels(4, []).tolist() == [0, 1, 2, 3]
