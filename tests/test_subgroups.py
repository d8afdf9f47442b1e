"""Subgroup closure, lattice search, quotients, exact factorizations."""

import hashlib
import itertools
import math
from collections import deque

import numpy as np
import pytest
from conftest import direct_square, graph_codes

import rbgroups as rb
import rbgroups.catalog as catalog
import rbgroups.subgroups as sg
from rbgroups.errors import InputFormatError, ResourceCapError
from rbgroups.groups import MAX_DENSE_ORDER, orbit_labels


def brute_closure(G, gens):
    members = {0, *map(int, gens)}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(members), repeat=2):
            p = G.mul(a, b)
            if p not in members:
                members.add(p)
                changed = True
    return sorted(members)


@pytest.mark.parametrize("ident,gens", [
    ("symmetric:3", [1]), ("symmetric:3", [2]), ("symmetric:3", [1, 2]),
    ("dihedral:8", [2]), ("dihedral:8", [1, 4]),
    ("symmetric:4", [1, 9]), ("paper16", [2, 4]),
])
def test_closure_matches_brute_force(ident, gens):
    G = rb.named_group(ident)
    sub = rb.closure(G, gens)
    assert list(sub.members) == brute_closure(G, gens)


def test_subgroup_contains_and_mask():
    G = rb.named_group("symmetric:3")
    sub = rb.closure(G, [2])
    assert sub.order == 3
    m = sub.mask()
    for g in range(6):
        assert sub.contains(g) == bool(m[g])


def test_as_group_is_faithful():
    G = rb.named_group("symmetric:4")
    sub = rb.closure(G, [1, 9])
    H, to_parent = sub.as_group()
    assert H.order == sub.order
    for a in range(H.order):
        for b in range(H.order):
            assert to_parent[H.mul(a, b)] == G.mul(int(to_parent[a]), int(to_parent[b]))


@pytest.mark.parametrize("ident,count", [
    ("cyclic:12", 6),          # one per divisor
    ("symmetric:3", 6),
    ("dihedral:8", 10),
    ("quaternion:8", 6),
    ("elemabelian:2:2", 5),
    ("symmetric:4", 30),
    ("alternating:5", 59),
])
def test_lattice_counts(ident, count):
    G = rb.named_group(ident)
    assert len(rb.all_subgroups(G)) == count


def test_lattice_orders_divide():
    G = rb.named_group("symmetric:4")
    for sub in rb.all_subgroups(G):
        assert G.order % sub.order == 0


@pytest.mark.parametrize("ident,normal_count", [
    ("symmetric:3", 3),       # 1, A3, S3
    ("dihedral:8", 6),
    ("quaternion:8", 6),      # every subgroup is normal
    ("symmetric:4", 4),       # 1, V4, A4, S4
])
def test_normal_subgroup_counts(ident, normal_count):
    G = rb.named_group(ident)
    normals = [s for s in rb.all_subgroups(G) if rb.is_normal(G, s)]
    assert len(normals) == normal_count


def test_normalizer_mask():
    G = rb.named_group("symmetric:3")
    sub = rb.closure(G, [1])           # one reflection, order 2, self-normalizing
    mask = rb.normalizer_mask(G, sub)
    assert int(mask.sum()) == 2
    a3 = rb.closure(G, [2])
    assert int(rb.normalizer_mask(G, a3).sum()) == 6


def test_conjugate_subgroup():
    G = rb.named_group("symmetric:4")
    sub = rb.closure(G, [1])
    for g in range(G.order):
        c = rb.conjugate_subgroup(G, sub, g)
        assert c.order == sub.order
        expect = sorted(int(G.mul(G.mul(G.inv(g), int(s)), g)) for s in sub.members)
        assert list(c.members) == expect


def test_normal_closure():
    G = rb.named_group("symmetric:4")
    # normal closure of a transposition is all of S4
    t = int(np.nonzero(G.element_orders() == 2)[0][0])
    nc = rb.normal_closure(G, [t])
    assert nc.order in (12, 24)
    ds = rb.derived_subgroup(G)
    assert ds.order == 12               # A4


@pytest.mark.parametrize("ident,derived_order", [
    ("symmetric:3", 3), ("symmetric:4", 12), ("alternating:4", 4),
    ("alternating:5", 60), ("dihedral:8", 2), ("quaternion:8", 2),
    ("cyclic:12", 1), ("paper16", 2),
])
def test_derived_subgroup(ident, derived_order):
    G = rb.named_group(ident)
    assert rb.derived_subgroup(G).order == derived_order


def test_intersection_and_product_set():
    G = rb.named_group("dihedral:8")
    subs = rb.all_subgroups(G)
    four = [s for s in subs if s.order == 4]
    a, b = four[0], four[1]
    inter = rb.intersection(a, b)
    prod = rb.product_set(a, b)          # boolean mask over G
    assert inter.order * int(prod.sum()) == a.order * b.order
    for a, b in itertools.product(subs, repeat=2):
        assert rb.intersection(a, b).members.tolist() == \
            np.intersect1d(a.members, b.members).tolist()


def test_quotient_s4_mod_v4():
    G = rb.named_group("symmetric:4")
    v4 = next(s for s in rb.all_subgroups(G)
              if s.order == 4 and rb.is_normal(G, s)
              and (G.element_orders()[s.members] <= 2).all())
    Q = rb.quotient(rb.whole_group(G), v4)
    assert Q.order == 6
    assert rb.structure_name(Q) == "S3"


def test_quotient_projection_is_hom():
    G = rb.named_group("dihedral:8")
    centre = rb.closure(G, [int(z) for z in G.center() if z])
    Q, proj = rb.quotient_with_projection(rb.whole_group(G), centre)
    assert Q.order == 4
    for a in range(8):
        for b in range(8):
            assert proj[G.mul(a, b)] == Q.mul(int(proj[a]), int(proj[b]))


def test_quotient_requires_normal():
    G = rb.named_group("symmetric:3")
    refl = rb.closure(G, [1])
    with pytest.raises(InputFormatError):
        rb.quotient(rb.whole_group(G), refl)


@pytest.mark.parametrize("ident,pairs", [
    # one factorization per unordered pair, larger side reported first
    ("cyclic:6", [(3, 2), (6, 1)]),
    ("symmetric:3", [(3, 2), (6, 1)]),
    ("quaternion:8", [(8, 1)]),            # no proper exact factorization
    ("cyclic:4", [(4, 1)]),
])
def test_exact_factorization_order_pairs(ident, pairs):
    G = rb.named_group(ident)
    got = sorted({(int(f.h.order), int(f.l.order)) for f in rb.exact_factorizations(G)})
    assert got == sorted(pairs)


def test_exact_factorizations_cover():
    G = rb.named_group("symmetric:4")
    for f in rb.exact_factorizations(G):
        assert f.h.order * f.l.order == G.order
        assert rb.intersection(f.h, f.l).order == 1
        assert rb.product_set(f.h, f.l).all()


def test_psl27_factorization_shapes():
    G = rb.named_group("psl2:7")
    shapes = {(int(f.h.order), int(f.l.order)) for f in rb.exact_factorizations(G)}
    # exactly the shapes S4 . 7, (7:3) . D8 and the trivial split
    assert sorted(shapes) == [(21, 8), (24, 7), (168, 1)]


def test_trivial_group_factorization():
    G = rb.named_group("cyclic:1")
    fs = rb.exact_factorizations(G)
    assert len(fs) == 1
    assert fs[0].h.order == fs[0].l.order == 1


# ----------------------------------------------------------------------
# perfect seeds: adversarial tables and independent lattice checks


def sl2_table(p, m=1, projective=False):
    """Cayley table of SL(2, p^m), or of PSL(2, p^m), identity first."""
    F = rb.field(p, m)
    q = F.q

    def code(M):
        return ((M[..., 0] * q + M[..., 1]) * q + M[..., 2]) * q + M[..., 3]

    mats = np.array(list(itertools.product(range(q), repeat=4)))
    a, b, c, d = mats.T
    mats = mats[F.add[F.mul[a, d], F.neg[F.mul[b, c]]] == 1]
    if projective:
        mats = mats[code(mats) <= code(F.neg[mats])]
    mats = mats[np.argsort(code(mats) != code(np.array([1, 0, 0, 1])), kind="stable")]
    index = np.full(q ** 4, -1)
    index[code(mats)] = np.arange(len(mats))
    if projective:
        index[code(F.neg[mats])] = np.arange(len(mats))
    x, y = mats[:, None, :], mats[None, :, :]

    def entry(i, j, k, l):
        return F.add[F.mul[x[..., i], y[..., j]], F.mul[x[..., k], y[..., l]]]

    prod = np.stack([entry(0, 0, 1, 2), entry(0, 1, 1, 3),
                     entry(2, 0, 3, 2), entry(2, 1, 3, 3)], axis=-1)
    return index[code(prod)]


def times_c2(table):
    """Table of G x C2, (g, e) numbered 2g + e."""
    big = 2 * np.repeat(np.repeat(table, 2, axis=0), 2, axis=1)
    e = np.arange(2 * len(table)) % 2
    return big + (e[:, None] ^ e[None, :])


ADVERSARIAL = {
    "SL(2,5)": lambda: sl2_table(5),
    "SL(2,5)xC2": lambda: times_c2(sl2_table(5)),
    "A5xC2": lambda: times_c2(sl2_table(5, projective=True)),
    "SL(2,9)": lambda: sl2_table(3, 2),
}


def adversarial_group(name):
    return rb.FiniteGroup.from_table(ADVERSARIAL[name](), name=name)


def join_closure_lattice(G):
    """Member keys of every subgroup, found independently of the
    lattice search: close {1} under joins with cyclic subgroups.  Those
    of prime-power order suffice, since every element is a product of
    prime-power-order powers of itself."""
    cyclic = {}
    for g, k in enumerate(G.element_orders().tolist()):
        p = next(d for d in range(2, k + 1) if k % d == 0) if k > 1 else 1
        while k > 1 and k % p == 0:
            k //= p
        if k == 1:
            cyclic.setdefault(rb.closure(G, [g]).key(), g)
    found = {rb.trivial_subgroup(G).key()}
    queue = [((), np.array([0]))]
    while queue:
        gens, members = queue.pop()
        inside = np.zeros(G.order, dtype=bool)
        inside[members] = True
        for g in cyclic.values():
            if inside[g]:
                continue
            S = rb.closure(G, gens + (g,))
            if S.key() not in found:
                found.add(S.key())
                queue.append((gens + (g,), S.members))
    return sorted(found)


@pytest.mark.parametrize("name", ["SL(2,5)", "SL(2,5)xC2", "A5xC2"])
def test_lattice_matches_join_closure_on_adversarial_tables(name):
    G = adversarial_group(name)
    assert sorted(s.key() for s in rb.all_subgroups(G)) == join_closure_lattice(G)


def test_sl25_times_c2_keeps_its_perfect_subgroups():
    # SL(2,5)'s one involution is central, so no <involution, y> is SL(2,5)
    G = adversarial_group("SL(2,5)xC2")
    subs = rb.all_subgroups(G)
    orders = [s.order for s in subs]
    assert orders[-1] == 240
    sl = [s for s in subs if s.order == 120 and rb.derived_subgroup(
        s.as_group()[0]).order == 120]
    assert [s.members.tolist() for s in sl] == [list(range(0, 240, 2))]


def test_sl29_keeps_its_proper_perfect_subgroups():
    # SL(2,9) = 2.A6 has one involution, -I.  Its subgroups are the lifts
    # of A6's 501 subgroups plus 87 of odd order (1, 40 C3, 36 C5,
    # 10 C3^2); the lifts of A6's 12 A5s are SL(2,5)s.
    subs = rb.all_subgroups(adversarial_group("SL(2,9)"))
    assert len(subs) == 588
    assert sum(1 for s in subs if s.order == 120) == 12


def cyclic_counts_hold(G, subs):
    """#cyclic subgroups of order k == #elements of order k / phi(k)."""
    orders = G.element_orders()
    for k in np.unique(orders).tolist():
        phi = sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
        cyclic = sum(1 for s in subs if s.order == k
                     and (orders[s.members] == k).any())
        if cyclic != int((orders == k).sum()) // phi:
            return False
    return True


def frobenius_counts_hold(G, subs):
    """#subgroups of each prime-power order p^a is 1 mod p."""
    n = G.order
    by_order = {}
    for s in subs:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    for p in [d for d in range(2, n + 1) if n % d == 0
              and all(d % e for e in range(2, d))]:
        q = p
        while n % q == 0:
            if by_order.get(q, 0) % p != 1:
                return False
            q *= p
    return True


CHEAP_COUNT_GROUPS = ["symmetric:4", "dihedral:12", "paper16", "alternating:5",
                      "symmetric:5", "psl2:7", "psl2:8", "alternating:6"]


@pytest.mark.parametrize("name", CHEAP_COUNT_GROUPS + list(ADVERSARIAL))
def test_lattice_cheap_counts(name):
    G = adversarial_group(name) if name in ADVERSARIAL else rb.named_group(name)
    subs = rb.all_subgroups(G)
    assert cyclic_counts_hold(G, subs)
    assert frobenius_counts_hold(G, subs)


def spy_on_seed_scan(monkeypatch):
    """(pairs closed, bound) of each ``_pair_closures`` call made from
    now on, and the order of each subgroup put to ``_is_perfect``, in
    call order."""
    pair_closures, is_perfect = sg._pair_closures, sg._is_perfect
    closed, tested = [], []

    def closures_spy(G, x, ys, bound):
        closed.append((len(ys), bound))
        return pair_closures(G, x, ys, bound)

    def perfect_spy(G, x, y, order):
        tested.append(order)
        return is_perfect(G, x, y, order)

    monkeypatch.setattr(sg, "_pair_closures", closures_spy)
    monkeypatch.setattr(sg, "_is_perfect", perfect_spy)
    return closed, tested


@pytest.mark.parametrize("ident,count", [("cyclic:240", 20), ("dihedral:240", 376)])
def test_solvable_group_runs_no_seed_scan(ident, count, monkeypatch):
    G = rb.named_group(ident)
    closed, tested = spy_on_seed_scan(monkeypatch)
    assert len(rb.all_subgroups(G)) == count
    assert closed == [] and tested == []


@pytest.mark.parametrize("ident,count", [
    ("psl2:7", 179), ("psl2:13", 942), ("psl2:23", 5915), ("alternating:5", 59)])
def test_simple_order_sieve_skips_the_seed_scan(ident, count, monkeypatch):
    # no order m | |G| with m <= |G|/2 is a multiple of a simple order
    G = rb.named_group(ident)
    closed, tested = spy_on_seed_scan(monkeypatch)
    assert len(rb.all_subgroups(G)) == count
    assert closed == [] and tested == []


def test_psl2_11_seed_scan_is_bounded_by_a5(monkeypatch):
    # 60 is the only candidate order of a proper perfect subgroup
    G = rb.named_group("psl2:11")
    closed, tested = spy_on_seed_scan(monkeypatch)
    subs = rb.all_subgroups(G)
    assert sum(1 for s in subs if s.order == 60) == 22
    assert closed and {bound for _, bound in closed} == {60}
    assert set(tested) == {60}


# pairs closed and perfectness tests of the seed scan; the scan without
# the lcm test closes 125 pairs on psl2:8 (no element of order 9 lies in
# a subgroup of order 168) and 184 on psl2:11, and without one test per
# subgroup it makes 26, 26 and 14 tests on psl2:11, A6 and S6
@pytest.mark.parametrize("ident,pairs,tests", [
    ("psl2:8", 82, 0), ("psl2:11", 158, 10), ("alternating:6", 129, 9),
    ("symmetric:6", 86, 9)])
def test_seed_scan_prunes_pairs_and_tests_each_subgroup_once(
        ident, pairs, tests, monkeypatch):
    G = rb.named_group(ident)
    closed, tested = spy_on_seed_scan(monkeypatch)
    rb.all_subgroups(G)
    assert sum(k for k, _ in closed) == pairs
    assert len(tested) == tests


@pytest.mark.parametrize("ident", ["psl2:8", "symmetric:6"])
def test_chunk_size_changes_no_lattice_or_factorization(ident, monkeypatch):
    # one row per seed-scan pass and one left subgroup per meet
    G = rb.named_group(ident)
    subs = rb.all_subgroups(G)
    facts = rb.exact_factorizations(G, subs)
    monkeypatch.setattr(sg, "CHUNK_ENTRIES", 1)
    assert [(s.key(), s.gens) for s in rb.all_subgroups(G)] == \
        [(s.key(), s.gens) for s in subs]
    assert [(f.h.key(), f.l.key()) for f in rb.exact_factorizations(G, subs)] == \
        [(f.h.key(), f.l.key()) for f in facts]


@pytest.mark.parametrize("ident", ["psl2:11", "alternating:6", "symmetric:6"])
def test_pair_closures_match_closure_members(ident):
    G = rb.named_group(ident)
    n = G.order
    ys = np.arange(0, n, 7)
    for cls in G.conjugacy_classes():
        x = int(cls[0])
        for bound in (59, 60, 180, n):
            got = sg._pair_closures(G, x, ys, bound)
            for y, mem in zip(ys.tolist(), got):
                want = sg._closure_members(G, [x, y], bound=bound)
                assert (mem is None) == (want is None)
                if want is not None:
                    assert mem.tolist() == want.tolist()


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_simple_orders_table():
    psl2 = {q * (q * q - 1) // math.gcd(2, q - 1)
            for q in range(4, 28) if is_prime_power(q)}
    # A7, PSL(3,3), PSU(3,3), M11
    assert sg.SIMPLE_ORDERS == tuple(sorted(psl2 | {2520, 5616, 6048, 7920}))
    assert sg.NEXT_SIMPLE_ORDER == 29 * (29 * 29 - 1) // 2


def test_proper_perfect_subgroups_stay_inside_the_simple_order_table():
    # the seed sieve is complete because every group has a table, so a
    # proper perfect subgroup has order <= MAX_DENSE_ORDER / 2, and every
    # simple order up to there is in SIMPLE_ORDERS
    assert MAX_DENSE_ORDER // 2 < sg.NEXT_SIMPLE_ORDER


@pytest.mark.parametrize("ident", [f"{family}:{k}" for family, params
                                   in catalog._FAMILY_PARAMS.items() for k in params])
def test_catalog_simple_groups_have_simple_orders(ident):
    G = rb.named_group(ident)
    if rb.is_simple(G) and not G.is_abelian():
        assert G.order in sg.SIMPLE_ORDERS


#: sha256 of the concatenated sorted member keys of ``all_subgroups``
LATTICE_SHA256 = {
    "psl2:7": "01a0c103ad8f87e78d208159a8b1a961e4ce0b3632c285dfd7134d9e38b6a377",
    "psl2:8": "b5c372f024da24db6c76a595efed6cd53871615b7f3670ef6bf6eb56e139fe6b",
    "psl2:9": "b22643f4c5c449bd0e823ac531fc3a1a980296e371b4cfdd7375c00f02fb7e0f",
    "psl2:11": "25307ebf58a83e1b7f1cbc4b828aab69a071d2c685cb2e756debe090b6e0e37e",
    "psl2:13": "3c0f3fd290af345a3da2be09bba1cf0403404ba601e9e80778666c662366d270",
    "symmetric:5": "0cbebeb4d07d128edfd94b410e52087b171d0d653b3b57ec254ce9d2967b3756",
    "symmetric:6": "657fc65a1bb786bb04b7eb00960c4247c3fa51533a3cf3cd3eb67a043c473598",
    "SL(2,9)": "3a1cdeaa86d867d225650bd12a6126a4cef5265b032504157b424a34250c1474",
}


@pytest.mark.parametrize("name", list(LATTICE_SHA256))
def test_lattice_digest(name):
    G = adversarial_group(name) if name in ADVERSARIAL else rb.named_group(name)
    keys = sorted(s.key() for s in rb.all_subgroups(G))
    assert hashlib.sha256(b"".join(keys)).hexdigest() == LATTICE_SHA256[name]


# ----------------------------------------------------------------------
# the class walk against the per-subgroup walk


def blind_seed_scan(G, max_order):
    """Oracle: the perfect-seed scan without the order sieve.  Pairs
    <x, y> run over x a conjugacy class representative in the perfect
    core and y a representative of each orbit of x's centralizer, under
    the bound |P|/2, and every perfect closure of order >= 60 is kept."""
    n = G.order
    core = sg._perfect_core(G)
    if core.order == 1:
        return []
    seeds = [core] if core.order <= max_order else []
    proper_bound = min(max_order, core.order // 2)
    if proper_bound >= 60:
        in_core = core.mask()
        class_of = G.class_of()
        for i, cls in enumerate(G.conjugacy_classes()):
            x = int(cls[0])
            if x == 0 or not in_core[x]:
                continue
            cent = np.flatnonzero(G.row(x) == G.col(x))
            maps = [G.col(c)[G.row(G.inv(c))]
                    for c in sg._greedy_generators(G, cent)]
            ys = np.unique(orbit_labels(n, maps)[core.members])
            # <x, y> = <y, x>: let x come from the lower class
            for y in ys[class_of[ys] >= i].tolist():
                mem = sg._closure_members(G, [x, y], bound=proper_bound)
                if mem is None or mem.size < 60 or mem.size % 4:
                    continue
                dm = sg.normal_closure(G, [G.commutator(x, y)], under=(x, y))
                if dm.order == mem.size:
                    seeds.append(rb.Subgroup(G, mem, (x, y)))
    return seeds


def conjugation_closure(G, seeds):
    """``seeds`` and all their conjugates, by member key."""
    seen = {S.key(): S for S in seeds}
    closing = deque(seen.values())
    while closing:
        S = closing.popleft()
        for g in G.find_generating_set():
            T = rb.conjugate_subgroup(G, S, int(g))
            if T.key() not in seen:
                seen[T.key()] = T
                closing.append(T)
    return seen


def per_subgroup_walk(G, max_order=None, allowed_orders=None, prune=None):
    """Oracle: member arrays of the cyclic extension walk run on every
    subgroup rather than once per class, trying every t, with the
    perfect seeds closed under conjugation up front."""
    n = G.order
    max_order = min(max_order or n, n)
    ok_orders = {d for d in sg.divisors(n) if d <= max_order}
    if allowed_orders is not None:
        ok_orders &= set(allowed_orders)
    found, queue = {}, deque()

    def register(members, gens):
        if members.size in ok_orders and (prune is None or prune(members)) \
                and members.tobytes() not in found:
            found[members.tobytes()] = members
            queue.append(rb.Subgroup(G, members, gens))

    register(np.array([0]), ())
    seeds = blind_seed_scan(G, max_order) if max_order >= 60 and n >= 60 else []
    for S in conjugation_closure(G, seeds).values():
        register(S.members, S.gens)

    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    while queue:
        S = queue.popleft()
        mm = S.mask()
        cand = np.flatnonzero(rb.normalizer_mask(G, S) & ~mm)
        for p in primes:
            if p * S.order not in ok_orders:
                continue
            for t in cand[mm[G.pow_vec(cand, p)]].tolist():
                powers = [G.power(t, k) for k in range(p)]
                members = np.sort(G.mul_block(S.members, powers).ravel())
                register(members, S.gens + (t,))
    return [found[k] for k in sorted(found, key=lambda k: (len(k), k))]


def class_count(G, subs):
    """Number of conjugacy classes among ``subs``."""
    index = {s.key(): i for i, s in enumerate(subs)}
    maps = [np.array([index[rb.conjugate_subgroup(G, s, g).key()] for s in subs])
            for g in G.find_generating_set()]
    return np.unique(orbit_labels(len(subs), maps)).size


ORACLE_GROUPS = ["psl2:7", "psl2:8", "psl2:9", "psl2:11", "psl2:13",
                 "symmetric:5", "symmetric:6", "alternating:6", "paper16",
                 "dihedral:24", "SL(2,5)xC2", "SL(2,9)", "psl2:11~5"]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_class_walk_matches_per_subgroup_walk(name, relabelled):
    G = adversarial_group(name) if name in ADVERSARIAL else relabelled(name)
    got = [s.members.tolist() for s in rb.all_subgroups(G)]
    assert got == [m.tolist() for m in per_subgroup_walk(G)]


@pytest.mark.parametrize("name", ORACLE_GROUPS + ["SL(2,5)", "A5xC2"])
def test_sieved_seeds_match_blind_scan(name, relabelled):
    # both seed sets, closed under conjugation, are every nontrivial
    # perfect subgroup
    G = adversarial_group(name) if name in ADVERSARIAL else relabelled(name)
    sieved = sg._perfect_seed_subgroups(G)
    blind = blind_seed_scan(G, G.order)
    assert conjugation_closure(G, sieved).keys() == \
        conjugation_closure(G, blind).keys()


def unpruned_seed_scan(G):
    """Oracle: the seed scan closing every pair one at a time with
    ``_closure_members``, with no lcm test and a perfectness test per
    pair."""
    n = G.order
    core = sg._perfect_core(G)
    if core.order == 1:
        return []
    seeds = [core]
    orders = {m for m in sg.divisors(core.order)
              if 2 * m <= core.order and any(m % s == 0 for s in sg.SIMPLE_ORDERS)}
    if not orders:
        return seeds
    bound = max(orders)
    in_core = core.mask()
    class_of = G.class_of()
    cyclic_class = sg._cyclic_class_labels(G)
    for i, cls in enumerate(G.conjugacy_classes()):
        x = int(cls[0])
        if x == 0 or cyclic_class[i] != i or not in_core[x]:
            continue
        cyc = rb.Subgroup(G, sg._closure_members(G, [x]), (x,))
        norm = np.flatnonzero(rb.normalizer_mask(G, cyc))
        maps = [G.conjugation_map(c) for c in sg._greedy_generators(G, norm)]
        ys = np.unique(orbit_labels(n, maps)[core.members])
        for y in ys[cyclic_class[class_of[ys]] >= i].tolist():
            mem = sg._closure_members(G, [x, y], bound=bound)
            if mem is None or mem.size not in orders:
                continue
            dm = sg.normal_closure(G, [G.commutator(x, y)], under=(x, y))
            if dm.order == mem.size:
                seeds.append(rb.Subgroup(G, mem, (x, y)))
    return seeds


@pytest.mark.parametrize("ident", ["psl2:8", "psl2:9", "psl2:11", "symmetric:6",
                                   "alternating:7"])
def test_lattice_matches_unpruned_seed_scan(ident, monkeypatch):
    # the same subgroups with the same gens, in the same order
    G = rb.named_group(ident)
    got = [(s.key(), s.gens) for s in rb.all_subgroups(G)]
    monkeypatch.setattr(sg, "_perfect_seed_subgroups", unpruned_seed_scan)
    assert got == [(s.key(), s.gens) for s in rb.all_subgroups(G)]


# the census reads graphs off G's own lattice; this oracle searches the
# lattice of G x G for them, keeping subgroups with distinct differences
@pytest.mark.parametrize("ident", ["dihedral:8", "paper16", "elemabelian:2:3",
                                   "quaternion:8", "alternating:4", "paper16~2"])
def test_enumerate_rb_matches_per_subgroup_walk(ident, relabelled):
    G = relabelled(ident)
    n = G.order
    GG = direct_square(G)

    def distinct_diffs(codes):
        a, b = np.divmod(codes, n)
        return np.unique(G.mul_vec(b, G.inverse[a])).size == codes.size

    graphs = sorted(m.tolist() for m in per_subgroup_walk(
        GG, max_order=n, allowed_orders=sg.divisors(n), prune=distinct_diffs)
        if m.size == n)
    assert len(graphs) > 1
    assert sorted(graph_codes(B).tolist() for B in rb.enumerate_rb(G)) == graphs


def test_each_cyclic_extension_is_built_once(monkeypatch):
    G = rb.named_group("cyclic:5000")
    mul_block = rb.FiniteGroup.mul_block
    calls = []

    def spy(self, A, B):
        calls.append(len(A))
        return mul_block(self, A, B)

    monkeypatch.setattr(rb.FiniteGroup, "mul_block", spy)
    subs = rb.all_subgroups(G)
    assert len(subs) == 20
    assert len(calls) <= 2 * len(subs)


def test_normalizers_are_computed_once_per_class(monkeypatch):
    G = rb.named_group("psl2:13")
    normalizer_mask = sg.normalizer_mask
    calls = []

    def spy(G, sub):
        calls.append(sub.order)
        return normalizer_mask(G, sub)

    monkeypatch.setattr(sg, "normalizer_mask", spy)
    subs = rb.all_subgroups(G)
    monkeypatch.undo()
    assert len(subs) == 942
    assert class_count(G, subs) == 16
    assert len(calls) <= 16


def test_psl2_23_lattice():
    G = rb.named_group("psl2:23")
    subs = rb.all_subgroups(G)
    assert len(subs) == 5915
    assert class_count(G, subs) == 23


@pytest.mark.parametrize("cap,refused", [(30, False), (29, True), (2, True)])
def test_lattice_cap_bounds_registered_subgroups(monkeypatch, cap, refused):
    # symmetric:4 has 30 subgroups; under a cap of 2 the refusal comes from
    # the conjugation orbit of the first subgroup of order 2
    monkeypatch.setattr(sg, "LATTICE_CAP", cap)
    G = rb.named_group("symmetric:4")
    if refused:
        with pytest.raises(ResourceCapError, match="subgroup lattice cap"):
            rb.all_subgroups(G)
    else:
        assert len(rb.all_subgroups(G)) == 30


def test_derived_subgroup_keeps_few_generators():
    D = rb.derived_subgroup(rb.named_group("symmetric:6"))
    assert D.order == 360
    assert len(D.gens) <= 6
