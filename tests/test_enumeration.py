"""Lattice enumeration vs brute force, equivalence orbits, classification."""

import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from conftest import code_permutation, direct_square, graph_codes, operator_images

import rbgroups as rb
from rbgroups import enumeration
from rbgroups.enumeration import (ObstructionReport, _class_labels, _id_maps,
                                  _image_names_of, _pair_orbits)
from rbgroups.errors import InputFormatError, PropertyFailure, ResourceCapError
from rbgroups.groups import orbit_labels
from rbgroups.subgroups import all_subgroups, is_normal, is_simple, unchecked_quotient

# (catalog id, operator count, splitting count, equivalence classes)
# counts were computed once by exhaustive search and frozen
CENSUS = [
    ("cyclic:2", 2, 2, 1),
    ("cyclic:3", 3, 2, 2),
    ("cyclic:4", 4, 2, 2),
    ("cyclic:5", 5, 2, 3),
    ("cyclic:6", 6, 4, 3),
    ("cyclic:7", 7, 2, 4),
    ("cyclic:8", 8, 2, 4),
    ("elemabelian:2:2", 16, 8, 4),
    ("abelian:4x2", 32, 10, 7),
    ("elemabelian:2:3", 512, 58, 7),
    ("symmetric:3", 8, 8, 2),
    ("dihedral:8", 56, 18, 9),
    ("quaternion:8", 8, 2, 2),
]

# nontrivial splitting classes for the same groups, in the same order
EXPECTED_S = [0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 2, 0]


@pytest.mark.parametrize("ident,count,nsplit,nclasses",
                         CENSUS, ids=[c[0] for c in CENSUS])
def test_enumeration_matches_brute_force(ident, count, nsplit, nclasses):
    G = rb.named_group(ident)
    brute = rb.brute_force_rb(G)
    smart = rb.enumerate_rb(G)
    assert len(brute) == len(smart) == count
    assert {o.key() for o in brute} == {o.key() for o in smart}
    assert sum(rb.is_splitting(o) for o in smart) == nsplit


def filter_all_maps(G):
    """Every operator on G by filtering all n^(n-1) maps with B(e) = e
    against the defining identity, pair by pair; the oracle for the
    column search of ``brute_force_rb`` at order <= 8."""
    n = G.order
    total = n ** (n - 1)
    chunk = 200000
    keep = []
    pairs = [(g, h) for g in range(1, n) for h in range(1, n)]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        mat = np.zeros((idx.size, n), dtype=np.int64)
        for g in range(1, n):
            mat[:, g] = (idx // (n ** (g - 1))) % n
        alive = np.ones(idx.size, dtype=bool)
        for g, h in pairs:
            if not alive.any():
                break
            rows = np.nonzero(alive)[0]
            bg = mat[rows, g]
            lhs = G.mul_vec(bg, mat[rows, h])
            inner = G.mul_vec(G.col(h)[G.row(g)[bg]], G.inverse[bg])
            rhs = mat[rows, inner]
            alive[rows[lhs != rhs]] = False
        for row in np.nonzero(alive)[0]:
            keep.append(mat[row].copy())
    ops = [rb.RBOperator(G, m, {"mode": "full", "checked": n * n}) for m in keep]
    ops.sort(key=lambda o: o.key())
    return ops


# "name~seed" is the catalog group with its non-identity elements renumbered
@pytest.mark.parametrize("ident", [c[0] for c in CENSUS] + [
    "cyclic:1", "dihedral:8~1", "dihedral:8~2", "quaternion:8~3", "quaternion:8~4"])
def test_column_search_matches_map_filter(ident, relabelled):
    G = relabelled(ident)
    got = rb.brute_force_rb(G)
    want = filter_all_maps(G)
    assert [o.key() for o in got] == [o.key() for o in want]
    assert all(o.provenance == {"mode": "full", "checked": G.order ** 2} for o in got)


# operator counts of the catalog groups of order 9-24 that both engines
# reach, three of them also relabelled; elemabelian:2:4 takes about 5 s
ABOVE_MAP_FILTER = [
    ("cyclic:9", 9), ("cyclic:12", 12), ("dihedral:12", 80), ("alternating:4", 18),
    ("paper16", 352), ("dihedral:16", 136), ("abelian:2x2x4", 1024),
    ("dihedral:24", 288), ("symmetric:4", 100),
    ("paper16~5", 352), ("dihedral:24~1", 288), ("symmetric:4~4", 100),
    ("elemabelian:2:4", 65536)]


@pytest.mark.parametrize("ident,count", ABOVE_MAP_FILTER)
def test_engines_agree_up_to_order_24(ident, count, relabelled):
    G = relabelled(ident)
    brute = rb.brute_force_rb(G)
    smart = rb.enumerate_rb(G, cap=G.order)
    assert len(brute) == len(smart) == count
    assert [o.key() for o in brute] == [o.key() for o in smart]


def _refusal_peak(G):
    """Peak traced bytes of a brute_force_rb call that must be refused."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            rb.brute_force_rb(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_column_search_refuses_past_the_order_cap():
    # (Z2)^5 has 2^25 operators; its census would need a 2^25-row array
    G = rb.named_group("elemabelian:2:5")
    t0 = time.process_time()
    assert _refusal_peak(G) < 2 ** 20
    assert time.process_time() - t0 < 1.0


def test_column_search_refuses_before_the_row_budget(monkeypatch):
    # symmetric:4's columns hold 24, 576, 13,824 and then 139,320 rows;
    # under a budget of 2^14 the fourth column (3.3 MB of uint8) is refused
    # before it is allocated
    monkeypatch.setattr(enumeration, "BRUTE_ROWS", 2 ** 14)
    assert _refusal_peak(rb.named_group("symmetric:4")) < 2 ** 20


@pytest.mark.parametrize("ident,count,nsplit,nclasses",
                         CENSUS, ids=[c[0] for c in CENSUS])
def test_census_ops_all_verify(ident, count, nsplit, nclasses):
    G = rb.named_group(ident)
    for op in rb.enumerate_rb(G):
        assert rb.verify_rb(G, op).ok


def test_abelian_operators_are_endomorphisms():
    # on an abelian group the identity collapses to B(g)B(h) = B(gh)
    for ident, count, _, _ in CENSUS:
        G = rb.named_group(ident)
        if not G.is_abelian():
            continue
        for op in rb.enumerate_rb(G):
            phi = rb.GroupMap(G, G, op.images)
            assert phi.is_homomorphism()


@pytest.mark.parametrize("ident,endo_count", [
    ("cyclic:4", 4), ("cyclic:6", 6),
    ("elemabelian:2:2", 16),      # 2x2 matrices over GF(2)
    ("elemabelian:2:3", 512),     # 3x3 matrices over GF(2)
    ("abelian:4x2", 32),
])
def test_abelian_census_equals_endomorphism_count(ident, endo_count):
    assert len(rb.enumerate_rb(rb.named_group(ident))) == endo_count


def test_graph_roundtrip():
    # graph_key holds the graph's sorted pair codes, which give back B
    G = rb.named_group("dihedral:8")
    for op in rb.enumerate_rb(G):
        codes = np.frombuffer(rb.graph_key(op), dtype=np.int64)
        assert np.array_equal(codes, graph_codes(op))
        assert np.array_equal(operator_images(G, codes), op.images)


def _is_subgroup(GG, codes):
    prods = GG.mul_block(codes, codes)
    return codes[0] == 0 and np.isin(prods, codes).all()


def test_graph_is_subgroup():
    G = rb.named_group("symmetric:3")
    GG = direct_square(G)
    for op in rb.enumerate_rb(G):
        assert _is_subgroup(GG, graph_codes(op))


def test_diagonal_subgroup_is_not_a_graph():
    # {(g, g)} has full size but constant differences
    G = rb.named_group("cyclic:4")
    codes = np.arange(4) * 4 + np.arange(4)
    assert _is_subgroup(direct_square(G), codes)
    assert operator_images(G, codes) is None


def test_non_subgroup_rejected():
    # [0, 1, 0, 1] on Z4 fails the identity at (1, 1): its graph is no subgroup
    G = rb.named_group("cyclic:4")
    assert not _is_subgroup(direct_square(G), graph_codes(rb.RBOperator(G, [0, 1, 0, 1])))


def test_classify_equivalence_refuses_a_non_operator():
    G = rb.named_group("cyclic:4")
    ops = rb.enumerate_rb(G) + [rb.RBOperator(G, [0, 1, 0, 1])]
    with pytest.raises(PropertyFailure) as info:
        rb.classify_equivalence(ops)
    assert info.value.clause == "rb-identity"


def test_product_subgroup_gives_splitting_op():
    G = rb.named_group("symmetric:3")
    f = next(f for f in rb.exact_factorizations(G) if f.h.order == 3)
    l, h = f.l.members, f.h.members
    codes = np.repeat(l, h.size) * G.order + np.tile(h, l.size)
    assert _is_subgroup(direct_square(G), np.sort(codes))
    op = rb.make_rb(G, operator_images(G, codes))
    assert rb.is_splitting(op)


@pytest.mark.parametrize("ident,count,nsplit,nclasses",
                         CENSUS, ids=[c[0] for c in CENSUS])
def test_equivalence_class_census(ident, count, nsplit, nclasses):
    G = rb.named_group(ident)
    ops = rb.enumerate_rb(G)
    classes = rb.classify_equivalence(ops)  # also re-checks class invariants
    assert len(classes) == nclasses
    assert sum(c.size for c in classes) == count


def test_trivial_pair_shares_an_orbit():
    for ident in ["cyclic:6", "symmetric:3", "quaternion:8"]:
        G = rb.named_group(ident)
        key = rb.graph_key(rb.trivial_e(G))
        classes = rb.classify_equivalence(rb.enumerate_rb(G))
        cls = next(c for c in classes if key in c.graph_keys)
        assert rb.graph_key(rb.trivial_inv(G)) in cls.graph_keys


def test_classify_equivalence_refuses_an_open_list():
    G = rb.named_group("symmetric:3")
    ops = rb.enumerate_rb(G)
    for partial in (ops[:-1], [rb.trivial_e(G)]):
        with pytest.raises(InputFormatError):
            rb.classify_equivalence(partial)


def test_classify_equivalence_refuses_a_census_missing_one_class_member():
    G = rb.named_group("dihedral:8")
    ops = rb.enumerate_rb(G)
    cls = next(c for c in rb.classify_equivalence(ops) if c.size > 1)
    drop = next(i for i, op in enumerate(ops)
                if rb.graph_key(op) in cls.graph_keys)
    with pytest.raises(InputFormatError, match="not closed"):
        rb.classify_equivalence(ops[:drop] + ops[drop + 1:])


def bfs_equivalence_classes(ops):
    """Oracle: each class walked breadth-first on graph code arrays keyed
    by their bytes, starting from its operator with the least key; the
    representative is the given operator whose graph has the least key."""
    G = ops[0].group
    perms = [code_permutation(t) for t in rb.q_transform_generators(G)]
    op_of = {graph_codes(op).tobytes(): op for op in ops}
    classes, assigned = [], set()
    for op in sorted(ops, key=lambda o: o.key()):
        start = graph_codes(op)
        if start.tobytes() in assigned:
            continue
        seen, queue = {start.tobytes(): start}, deque([start])
        while queue:
            cur = queue.popleft()
            for p in perms:
                nxt = np.sort(p[cur])
                if nxt.tobytes() not in seen:
                    seen[nxt.tobytes()] = nxt
                    queue.append(nxt)
        assigned |= set(seen)
        rep = op_of[min(seen)]
        classes.append(rb.EquivalenceClass(
            representative=rep, size=len(seen), splitting=rb.is_splitting(rep),
            image_names=_image_names_of(rep), graph_keys=frozenset(seen)))
    classes.sort(key=lambda c: c.representative.key())
    return classes


def _class_fields(c):
    rep = c.representative
    return (rep.images.tolist(), rep.provenance, c.size, c.splitting,
            c.image_names, c.graph_keys)


# dihedral:18 has graph codes past 255, and one of its classes has a
# least graph in key (bytes) order that is not its numerically least one
@pytest.mark.parametrize("ident", [c[0] for c in CENSUS] + [
    "dihedral:12", "alternating:4", "dihedral:16", "paper16", "paper16~5",
    "dihedral:18"])
def test_classify_equivalence_matches_bfs_oracle(ident, relabelled):
    G = relabelled(ident)
    ops = rb.enumerate_rb(G, cap=18)
    got = rb.classify_equivalence(ops, verify_invariants=False)
    assert [_class_fields(c) for c in got] == [
        _class_fields(c) for c in bfs_equivalence_classes(ops)]


def test_swap_transform_realizes_companion():
    G = rb.named_group("symmetric:3")
    swap = next(t for t in rb.q_transform_generators(G) if t.label == "swap")
    for op in rb.enumerate_rb(G):
        moved = np.sort(code_permutation(swap)[graph_codes(op)])
        assert np.array_equal(moved, graph_codes(rb.btilde(op)))


def test_orbit_invariants_hold():
    G = rb.named_group("dihedral:8")
    ops = rb.enumerate_rb(G)
    for c in rb.classify_equivalence(ops, verify_invariants=True):
        assert c.size >= 1
        assert c.representative.key() in {o.key() for o in ops}


def _assert_break_reported(monkeypatch, breaks):
    # `breaks` non-representative members of one class get a changed
    # invariant row, found among the rows by their images; the witness
    # is the first of them in key order
    G = rb.named_group("dihedral:8")
    ops = rb.enumerate_rb(G)
    classes = rb.classify_equivalence(ops)
    cls = next(c for c in classes if c.size > breaks)
    members = [op for op in ops if rb.graph_key(op) in cls.graph_keys
               and op.key() != cls.representative.key()]
    targets = sorted(members, key=rb.graph_key, reverse=True)[:breaks]
    real = enumeration._class_invariants

    def patched(G, a):
        rows = real(G, a)
        for op in targets:
            j, = np.flatnonzero((a == op.images).all(axis=1))
            rows[j] = "changed"
        return rows

    monkeypatch.setattr(enumeration, "_class_invariants", patched)
    assert len(rb.classify_equivalence(ops, verify_invariants=False)) == len(classes)
    with pytest.raises(PropertyFailure) as info:
        rb.classify_equivalence(ops, verify_invariants=True)
    assert info.value.clause == "orbit-invariant-broken"
    assert info.value.witness == min(rb.graph_key(op) for op in targets)


def test_orbit_invariant_break_is_reported(monkeypatch):
    _assert_break_reported(monkeypatch, 1)


def test_orbit_invariant_break_names_the_first_member_in_key_order(monkeypatch):
    _assert_break_reported(monkeypatch, 2)


@pytest.mark.parametrize("ident", ["dihedral:8", "quaternion:8", "alternating:4", "paper16",
                                   "elemabelian:2:3", "psl2:7", "psl2:7~3"])
def test_class_invariants_match_derived_group(ident, relabelled):
    # the batched rows against each operator's derived-group table
    G = relabelled(ident)
    ops = rb.enumerate_rb(G, cap=G.order)
    rows = enumeration._class_invariants(G, np.array([op.images for op in ops]))
    assert len(rows) == len(ops)
    for op, row in zip(ops, rows):
        assert row == (rb.is_splitting(op), rb.derived_group(op, validate=False).fingerprint(),
                       rb.im_bbt(op).size)


@pytest.mark.parametrize("idx", range(len(CENSUS)), ids=[c[0] for c in CENSUS])
def test_classify_splitting_small_groups(idx):
    ident, _, _, _ = CENSUS[idx]
    G = rb.named_group(ident)
    rep = rb.classify_splitting(G)
    assert rep.s == EXPECTED_S[idx]
    assert rep.verification["representatives_verified"] in (True, None)
    # cross-check against the operator census: nontrivial splitting classes
    classes = rb.classify_equivalence(rb.enumerate_rb(G))
    nontrivial = [c for c in classes if c.splitting and c.image_names[0] != "1"]
    assert rep.s == len(nontrivial)


@pytest.mark.parametrize("ident,operators,s", [
    ("alternating:5", 62, 1), ("psl2:7", 562, 2),
    # about 1.3 s together, 0.7 s of it psl2:8
    ("alternating:6", 2, 0), ("psl2:8", 506, 1)])
def test_census_agrees_with_pair_route_on_simple_groups(ident, operators, s):
    # the census sees no non-splitting operator, as the obstruction scan
    # proves, and as many nontrivial splitting classes as the pair route
    G = rb.named_group(ident)
    ops = rb.enumerate_rb(G, cap=G.order)
    assert len(ops) == operators
    classes = rb.classify_equivalence(ops)
    assert all(c.splitting for c in classes)
    nontrivial = [c for c in classes if c.image_names[0] != "1"]
    assert len(nontrivial) == rb.classify_splitting(G).s == s


def test_psl2_11_census_agrees_with_pair_route():
    # about 6 s with the class invariants: 3,170 operators, all
    # splitting, in the trivial class and three nontrivial ones
    G = rb.named_group("psl2:11")
    ops = rb.enumerate_rb(G, cap=G.order)
    assert len(ops) == 3170
    classes = rb.classify_equivalence(ops)
    assert all(c.splitting for c in classes)
    nontrivial = [c for c in classes if c.image_names[0] != "1"]
    assert len(nontrivial) == rb.classify_splitting(G).s == 3


def _nonsplitting_triples(G):
    """(|Im B~|, |Im B|, r) of every non-splitting operator on G."""
    triples = set()
    for op in rb.enumerate_rb(G, cap=G.order):
        if not rb.is_splitting(op):
            a = rb.image(rb.btilde(op))
            c = rb.image(op)
            r = np.intersect1d(a.members, c.members).size
            triples.add((a.order, c.order, r))
    return triples


@pytest.mark.parametrize("ident,found,survivors", [
    ("symmetric:5", 6, 7), ("paper16", 7, 10)])
def test_census_nonsplitting_data_survive_the_obstruction_scan(ident, found, survivors):
    # the scan's necessary conditions hold for every operator the census finds
    G = rb.named_group(ident)
    scan = {(s["a_order"], s["c_order"], s["r"])
            for s in rb.nonsplitting_obstruction(G).survivors}
    got = _nonsplitting_triples(G)
    assert got <= scan
    assert (len(got), len(scan)) == (found, survivors)


@pytest.mark.parametrize("ident", ["psl2:7", "alternating:5", "psl2:11"])
def test_census_has_no_nonsplitting_operator_where_the_scan_has_no_survivor(ident):
    G = rb.named_group(ident)
    assert rb.nonsplitting_obstruction(G).survivors == []
    assert _nonsplitting_triples(G) == set()


def test_classify_splitting_images_s3():
    rep = rb.classify_splitting(rb.named_group("symmetric:3"))
    assert [c.images for c in rep.classes] == [("2", "3")]


def test_classify_splitting_images_d8():
    rep = rb.classify_splitting(rb.named_group("dihedral:8"))
    assert sorted(c.images for c in rep.classes) == [("2", "2^2"), ("2", "4")]


@pytest.mark.parametrize("q,s", [(4, 1), (7, 2), (9, 0), (13, 0)])
def test_psl2_expected_table(q, s):
    value, status, note = rb.psl2_expected_s(q)
    assert value == s
    assert status == "MATCH"


def test_psl2_expected_flag_q5():
    value, status, note = rb.psl2_expected_s(5)
    assert value == 1
    assert status == "FLAGGED"
    assert "psl2:4" in note


def test_obstruction_empty_on_small_simple():
    rep = rb.nonsplitting_obstruction(rb.named_group("psl2:7"))
    assert rep.survivors == []
    assert "no non-splitting" in rep.verdict


def test_obstruction_nonempty_on_fixture_group():
    G, _ = rb.paper16_fixture()
    rep = rb.nonsplitting_obstruction(G)
    assert rep.survivors          # the group really carries such operators
    assert rep.eliminated


def test_obstruction_nonempty_where_nonsplitting_exists():
    # Z4 carries the non-splitting doubling endomorphism, so the
    # necessary-condition scan must keep at least one pair
    G = rb.named_group("cyclic:4")
    rep = rb.nonsplitting_obstruction(G)
    assert rep.survivors


def _reason_totals(rep):
    totals = {}
    for row in rep.eliminated:
        totals[row["reason"]] = totals.get(row["reason"], 0) + row["count"]
    return totals


TRIVIAL = "intersection trivial (splitting regime)"
NO_A = "no admissible kernel on the A side"
NO_C = "no admissible kernel on the C side"
NO_Q = "no isomorphic quotient pair"

# (catalog id, covering pairs, survivors, eliminated per reason), frozen
# from the list-comprehension scan that preceded the containment matrix
OBSTRUCTION_GOLDEN = [
    ("symmetric:5", 1103, 231, {TRIVIAL: 322, NO_A: 296, NO_C: 254}),
    ("symmetric:6", 13431, 2311, {TRIVIAL: 1982, NO_A: 5945, NO_C: 3193}),
    ("psl2:11", 4935, 0, {TRIVIAL: 3170, NO_A: 1501, NO_C: 264}),
    ("paper16", 147, 87, {TRIVIAL: 58, NO_Q: 2}),
]


@pytest.mark.parametrize("ident,covering,survivors,eliminated", OBSTRUCTION_GOLDEN)
def test_obstruction_golden_counts(ident, covering, survivors, eliminated):
    rep = rb.nonsplitting_obstruction(rb.named_group(ident))
    assert rep.covering_pairs == covering
    assert len(rep.survivors) == survivors
    assert _reason_totals(rep) == eliminated


# paper16 survivors in scan order, run-length encoded as
# ((a_order, c_order, r, n_order, m_order), repeats)
PAPER16_SURVIVORS = [
    ((2, 16, 2, 1, 8), 7), ((4, 8, 2, 2, 4), 2), ((4, 16, 4, 1, 4), 2),
    *[((4, 8, 2, 2, 4), 2), ((4, 16, 4, 1, 4), 1)] * 9,
    ((8, 4, 2, 4, 2), 8), ((8, 8, 4, 2, 2), 2), ((8, 16, 8, 1, 2), 1),
    ((8, 4, 2, 4, 2), 4), ((8, 8, 4, 2, 2), 2), ((8, 4, 2, 4, 2), 8),
    ((8, 8, 4, 2, 2), 2), ((8, 16, 8, 1, 2), 1), ((16, 2, 2, 8, 1), 7),
    ((16, 4, 4, 4, 1), 11), ((16, 8, 8, 2, 1), 2), ((16, 16, 16, 1, 1), 1),
]


def test_obstruction_golden_paper16_survivors():
    rep = rb.nonsplitting_obstruction(rb.named_group("paper16"))
    keys = ("a_order", "c_order", "r", "n_order", "m_order")
    expected = [dict(zip(keys, row)) for row, k in PAPER16_SURVIVORS for _ in range(k)]
    assert rep.survivors == expected


@pytest.mark.parametrize("ident", ["symmetric:5", "psl2:7"])
def test_obstruction_with_given_subgroups_never_rebuilds_lattice(ident, monkeypatch):
    G = rb.named_group(ident)
    subs = rb.all_subgroups(G)

    def forbidden(*args, **kwargs):
        raise AssertionError("subgroup lattice rebuilt")

    monkeypatch.setattr("rbgroups.subgroups.all_subgroups", forbidden)
    monkeypatch.setattr("rbgroups.enumeration.all_subgroups", forbidden)
    rep = rb.nonsplitting_obstruction(G, subs=subs)
    assert rep.pairs_scanned == len(subs) ** 2


def all_pairs_obstruction(G, *, subs=None):
    """Oracle: the obstruction scan over all S^2 ordered pairs, reading
    intersections, covering and containment off S x S matrices."""
    n = G.order
    if subs is None:
        subs = all_subgroups(G)
    strict = (not G.is_abelian()) and is_simple(G)
    S = len(subs)
    M = np.stack([s.mask() for s in subs]).astype(np.float32)
    inter = np.rint(M @ M.T).astype(np.int64)
    orders = np.array([s.order for s in subs], dtype=np.int64)
    cover = (orders[:, None] * orders[None, :]) == n * inter
    contained = inter == orders[:, None]    # contained[i, j]: subs[i] <= subs[j]
    survivors = []
    reasons = {}

    def note(a, c, r, why):
        key = (int(orders[a]), int(orders[c]), int(r), why)
        reasons[key] = reasons.get(key, 0) + 1

    qfp_cache = {}
    normal_cache = {}

    def quotient_fp(big_idx, small_idx):
        key = (big_idx, small_idx)
        if key not in qfp_cache:
            Q, _ = unchecked_quotient(subs[big_idx], subs[small_idx])
            qfp_cache[key] = Q.fingerprint()
        return qfp_cache[key]

    def normal_inside(n_idx, a_idx):
        key = (n_idx, a_idx)
        if key not in normal_cache:
            normal_cache[key] = is_normal(G, subs[n_idx], within=subs[a_idx])
        return normal_cache[key]

    def kernels(big_idx, r, proper=False):
        """Ids of the normal subgroups of index r in subs[big_idx]."""
        big_ord = orders[big_idx]
        mask = contained[:, big_idx] & (orders * r == big_ord)
        if proper:
            mask &= (orders > 1) & (orders < big_ord)
        return [i for i in np.flatnonzero(mask).tolist() if normal_inside(i, big_idx)]

    covering = np.argwhere(cover)
    for a_idx, c_idx in covering:
        a_idx, c_idx = int(a_idx), int(c_idx)
        r = int(inter[a_idx, c_idx])
        if r <= 1:
            note(a_idx, c_idx, r, "intersection trivial (splitting regime)")
            continue
        a_ord, c_ord = int(orders[a_idx]), int(orders[c_idx])
        n_cands = kernels(a_idx, r, proper=strict)
        if not n_cands:
            note(a_idx, c_idx, r, "no admissible kernel on the A side")
            continue
        m_cands = kernels(c_idx, r)
        if not m_cands:
            note(a_idx, c_idx, r, "no admissible kernel on the C side")
            continue
        matched = False
        for ni in n_cands:
            for mi in m_cands:
                if quotient_fp(a_idx, ni) == quotient_fp(c_idx, mi):
                    survivors.append({
                        "a_order": a_ord, "c_order": c_ord, "r": r,
                        "n_order": int(orders[ni]), "m_order": int(orders[mi]),
                    })
                    matched = True
                    break
            if matched:
                break
        if not matched:
            note(a_idx, c_idx, r, "no isomorphic quotient pair")
    eliminated = [{"a_order": k[0], "c_order": k[1], "r": k[2],
                   "reason": k[3], "count": v}
                  for k, v in sorted(reasons.items())]
    if survivors:
        verdict = ("necessary conditions leave candidates; "
                   "survivors are not existence proofs")
    else:
        verdict = "no non-splitting RB operator can exist"
    return ObstructionReport(group_name=G.name, group_order=n,
                             strict_mode=bool(strict),
                             pairs_scanned=int(S) * int(S),
                             covering_pairs=int(cover.sum()),
                             survivors=survivors, eliminated=eliminated,
                             verdict=verdict)


@pytest.mark.parametrize("ident", ["cyclic:4", "symmetric:4", "symmetric:5", "symmetric:6",
                                   "psl2:11", "psl2:13", "paper16", "paper16~3",
                                   "psl2:11~7"])
def test_obstruction_matches_all_pairs_oracle(ident, relabelled):
    G = relabelled(ident)
    subs = rb.all_subgroups(G)
    assert (rb.nonsplitting_obstruction(G, subs=subs).to_json()
            == all_pairs_obstruction(G, subs=subs).to_json())


def test_obstruction_allocates_nothing_quadratic():
    G = rb.named_group("symmetric:6")
    subs = rb.all_subgroups(G)
    S = len(subs)
    tracemalloc.start()
    try:
        rb.nonsplitting_obstruction(G, subs=subs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one int64 S x S matrix is S^2 * 8 bytes (16 MiB here)
    assert peak < 2 * S * S * 8


# conjugacy classes of subgroups, as GAP's ConjugacyClassesSubgroups counts them
SUBGROUP_CLASSES = [("psl2:7", 15), ("psl2:8", 12), ("psl2:9", 22), ("psl2:11", 16),
                    ("psl2:13", 16), ("symmetric:5", 19), ("symmetric:6", 56)]


@pytest.mark.parametrize("ident,n_classes", SUBGROUP_CLASSES)
def test_class_labels_are_conjugacy_classes(ident, n_classes):
    G = rb.named_group(ident)
    subs = rb.all_subgroups(G)
    labels = _class_labels(G, subs)
    reps = np.flatnonzero(labels == np.arange(len(subs)))
    assert reps.size == n_classes
    for a in reps:
        conjugates = {rb.conjugate_subgroup(G, subs[a], g).key() for g in range(G.order)}
        assert conjugates == {subs[i].key() for i in np.flatnonzero(labels == a)}


def test_obstruction_refuses_subgroups_not_closed_under_conjugation():
    G = rb.named_group("symmetric:4")
    subs = rb.all_subgroups(G)
    labels = _class_labels(G, subs)
    drop = next(i for i in range(len(subs)) if np.count_nonzero(labels == labels[i]) > 1)
    with pytest.raises(InputFormatError, match="conjugation"):
        rb.nonsplitting_obstruction(G, subs=subs[:drop] + subs[drop + 1:])


def test_orbit_size_counts_distinct_graphs():
    G = rb.named_group("cyclic:6")
    ops = rb.enumerate_rb(G)
    classes = rb.classify_equivalence(ops)
    sizes = sorted(c.size for c in classes)
    assert sizes == [2, 2, 2]


# ----------------------------------------------------------------------
# pair-orbit walk


def bfs_pair_orbits(facts, transforms):
    """Oracle: (U, V) pairs as member arrays keyed by their bytes, each
    orbit walked breadth-first.  Returns the number of states and
    ((U.key(), V.key()) of the least pair, orbit size) per orbit."""
    states = {}
    for f in facts:
        for u, v in ((f.l.members, f.h.members), (f.h.members, f.l.members)):
            states[(u.tobytes(), v.tobytes())] = (u, v)
    done, out = set(), []
    for key in sorted(states):
        if key in done:
            continue
        seen, queue = {key}, deque([states[key]])
        while queue:
            u, v = queue.popleft()
            for t in transforms:
                a, b = (t.fa[u], t.fb[v]) if t.kind == "plain" else (t.fb[v], t.fa[u])
                a, b = np.sort(a), np.sort(b)
                if (a.tobytes(), b.tobytes()) not in seen:
                    seen.add((a.tobytes(), b.tobytes()))
                    queue.append((a, b))
        done |= seen
        out.append((min(seen), len(seen)))
    return len(states), out


@pytest.mark.parametrize("ident", ["symmetric:4", "symmetric:5", "dihedral:12",
                                   "psl2:7", "psl2:11", "psl2:11~7"])
def test_pair_orbits_match_bfs_oracle(ident, relabelled):
    G = relabelled(ident)
    facts = rb.exact_factorizations(G)
    transforms = rb.q_transform_generators(G)
    n_states, oracle = bfs_pair_orbits(facts, transforms)
    got_states, orbits = _pair_orbits(facts, transforms)
    assert got_states == n_states
    assert [((U.key(), V.key()), size) for U, V, size in orbits] == oracle
    rep = rb.classify_splitting(G)
    assert rep.verification["initial_states"] == n_states
    trivial = np.zeros(1, dtype=np.int64).tobytes()
    assert sorted(c.orbit_size for c in rep.classes) == sorted(
        size for (u, v), size in oracle if trivial not in (u, v))


def test_inner_id_maps_give_subgroup_conjugacy_classes():
    G = rb.named_group("psl2:11")
    by_key = {s.key(): s for f in rb.exact_factorizations(G) for s in (f.h, f.l)}
    subs = [by_key[k] for k in sorted(by_key)]
    inner = [t.fb for t in rb.q_transform_generators(G) if t.label.startswith("alpha")]
    labels = orbit_labels(len(subs), _id_maps(subs, inner))
    orbits = {}
    for i, s in enumerate(subs):
        orbits.setdefault(int(labels[i]), set()).add(s.key())
    classes = []
    for s in subs:
        if any(s.key() in c for c in classes):
            continue
        cls, queue = {s.key()}, [s]
        while queue:
            T = queue.pop()
            for g in G.find_generating_set():
                C = rb.conjugate_subgroup(G, T, int(g))
                if C.key() not in cls:
                    cls.add(C.key())
                    queue.append(C)
        classes.append(cls)
    assert sorted(map(sorted, orbits.values())) == sorted(map(sorted, classes))
    assert len(classes) > 1


def dict_id_maps(subs, element_maps):
    """Oracle for ``_id_maps``: one dict lookup per subgroup and map."""
    index = {s.key(): i for i, s in enumerate(subs)}
    return [np.array([index[np.sort(f[s.members]).tobytes()] for s in subs])
            for f in element_maps]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_id_maps_match_dict_lookup_on_factor_lists(q):
    G = rb.named_group(f"psl2:{q}")
    by_key = {s.key(): s for f in rb.exact_factorizations(G) for s in (f.h, f.l)}
    factors = [by_key[k] for k in sorted(by_key)]
    maps = [f for t in rb.q_transform_generators(G) for f in (t.fa, t.fb)]
    got, want = _id_maps(factors, maps), dict_id_maps(factors, maps)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("ident", ["symmetric:4", "paper16", "psl2:11", "symmetric:6"])
def test_id_maps_match_dict_lookup_on_lattices(ident):
    G = rb.named_group(ident)
    subs = rb.all_subgroups(G)
    maps = [G.conjugation_map(g) for g in range(G.order)][:40]
    got, want = _id_maps(subs, maps), dict_id_maps(subs, maps)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # a list missing an image raises KeyError, as the dict lookup does
    moved = next(int(p[i]) for p in want for i in range(len(subs)) if p[i] != i)
    rest = subs[:moved] + subs[moved + 1:]
    with pytest.raises(KeyError):
        dict_id_maps(rest, maps)
    with pytest.raises(KeyError):
        _id_maps(rest, maps)


def test_classify_equivalence_refuses_operators_of_different_groups():
    # different orders used to fail in numpy, equal orders as an open list
    c4 = rb.named_group("cyclic:4")
    for other in ("cyclic:6", "elemabelian:2:2"):
        ops = rb.enumerate_rb(c4) + rb.enumerate_rb(rb.named_group(other))
        with pytest.raises(InputFormatError, match="must share one group"):
            rb.classify_equivalence(ops)
    # a second copy of the same table is the same group
    ops = rb.enumerate_rb(c4)
    again = rb.named_group("cyclic:4")
    mixed = ops[:2] + [rb.RBOperator(again, op.images) for op in ops[2:]]
    assert ([c.graph_keys for c in rb.classify_equivalence(mixed)]
            == [c.graph_keys for c in rb.classify_equivalence(ops)])


def test_classify_equivalence_reports_the_first_failure_in_input_order():
    # one check covers the whole list, and the error is make_rb's on the
    # first operator that fails: its least witness, or its range error
    G = rb.named_group("cyclic:4")
    ops = rb.enumerate_rb(G)
    late = rb.RBOperator(G, [0, 1, 0, 1])          # least failing pair (1, 1)
    early = rb.RBOperator(G, [0, 1, 2, 0])         # least failing pair (1, 2)
    wild = rb.RBOperator(G, [0, 1, 2, 7])
    want = rb.verify_rb(G, early).witness
    assert want != rb.verify_rb(G, late).witness
    for listed, error, witness in [([early, late], PropertyFailure, want),
                                   ([late, wild], PropertyFailure, (1, 1)),
                                   ([wild, late], InputFormatError, None)]:
        with pytest.raises(error) as info:
            rb.classify_equivalence(ops[:1] + listed + ops[1:])
        if witness is not None:
            assert info.value.clause == "rb-identity" and info.value.witness == witness


def test_census_checks_each_chunk_of_graphs_in_one_call(monkeypatch):
    # the kept graphs are checked in batches, never one verify_rb each,
    # and each operator still reports a full check
    from rbgroups import rb as rb_module
    calls = []

    def spy(G, B):
        calls.append(len(B))
        return rb_module.check_rows(G, B)
    monkeypatch.setattr(enumeration, "check_rows", spy)
    monkeypatch.setattr(rb_module, "verify_rb", lambda *a: pytest.fail("verify_rb called"))
    G = rb.named_group("dihedral:8")
    ops = rb.enumerate_rb(G)
    assert len(ops) == 56 == sum(calls) and 0 < len([c for c in calls if c]) < len(ops)
    assert all(op.provenance == {"mode": "full", "checked": 64} for op in ops)
