"""Subgroups, the subgroup lattice, quotients and exact factorizations.

The lattice search is the cyclic extension method: a subgroup S grows to
S' = <S, t> where t normalizes S and t^p lies in S for a prime p, so
|S'| = p|S|.  Walking these prime steps from the trivial subgroup finds
every solvable subgroup; every other subgroup sits above some perfect
subgroup through such a chain (repeatedly cut a prime-index normal
subgroup under the derived quotient), so the search additionally seeds
every perfect subgroup.  Perfect subgroups all lie in the perfect core
(the last term of the derived series), so a solvable group needs no
seeds.  Otherwise the core is a seed, and the others are sought in it.

Seeds are sought only at orders that survive a sieve: a nontrivial
perfect group has a nonabelian simple quotient, so its order is a
multiple of a nonabelian simple order.  Below 12,180 = |PSL(2, 29)|
those orders are ``SIMPLE_ORDERS``, taken from the classification of
finite simple groups (the simple groups of these orders are PSL(2, q)
for the prime powers 4 <= q <= 27, A7, PSL(3, 3), PSU(3, 3) and M11).
Where no order a proper perfect subgroup of the core could have
survives, as in psl2:7, psl2:13, psl2:23 and A5, nothing is scanned.
Elsewhere the seeds come from a bounded scan of pairs <x, y> in the
core, x over classes of cyclic subgroups and y over the orbits of the
normalizer of <x>; this relies on perfect subgroups being 2-generated,
see the docstring of ``_perfect_seed_subgroups``.  By Lagrange a pair
whose lcm(o(x), o(y)) divides no order sought is skipped, and the y of
one x are closed together by ``_pair_closures``.

The walk runs on classes: each new subgroup is registered with its
conjugacy class and only the first member of the class is extended.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, PropertyFailure, ResourceCapError
from .groups import (CHUNK_ENTRIES, FiniteGroup, _closure_members,
                     _greedy_generators, orbit_labels)

#: orders of the nonabelian simple groups below NEXT_SIMPLE_ORDER, by the
#: classification of finite simple groups: PSL(2, q) for the prime powers
#: 4 <= q <= 27, A7 (2520), PSL(3, 3) (5616), PSU(3, 3) (6048) and M11
#: (7920)
SIMPLE_ORDERS = (60, 168, 360, 504, 660, 1092, 2448, 2520, 3420, 4080,
                 5616, 6048, 6072, 7800, 7920, 9828)
#: the next nonabelian simple order, |PSL(2, 29)|
NEXT_SIMPLE_ORDER = 12180
#: most subgroups ``all_subgroups`` registers before it refuses the group
#: with ResourceCapError, about 600 MB of them; (Z2)^9 has 8,283,458
#: subgroups, and psl2:23 5,915
LATTICE_CAP = 1 << 20


def _factorint(n):
    """Prime factorization of n as {prime: multiplicity}, primes ascending."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class Subgroup:
    """An immutable subgroup: sorted member indices plus the generators
    that produced it."""

    __slots__ = ("parent", "members", "gens", "_key")

    def __init__(self, parent, members, gens=()):
        self.parent = parent
        self.members = np.asarray(members, dtype=np.int64)
        self.gens = tuple(int(g) for g in gens)
        self._key = None

    @property
    def order(self):
        return int(self.members.size)

    def key(self):
        if self._key is None:
            self._key = self.members.tobytes()
        return self._key

    def mask(self):
        m = np.zeros(self.parent.order, dtype=bool)
        m[self.members] = True
        return m

    def contains(self, g):
        i = np.searchsorted(self.members, g)
        return i < self.members.size and self.members[i] == g

    def gen_elements(self):
        """A generating set: the recorded one, else all members."""
        return self.gens if self.gens else tuple(int(g) for g in self.members)

    def as_group(self, validate=True):
        """Re-index the subgroup as a standalone FiniteGroup.

        Returns (group, to_parent) where to_parent[i] is the parent index
        of element i.  Identity stays at index 0 because members are
        sorted and contain 0.
        """
        G = self.parent
        mem = self.members
        pos = np.full(G.order, -1, dtype=np.int64)
        pos[mem] = np.arange(mem.size)
        tab = pos[G.mul_block(mem, mem)]
        if (tab < 0).any():
            raise PropertyFailure("subgroup-not-closed")
        gens = tuple(int(pos[g]) for g in self.gens)
        H = FiniteGroup.from_table(tab, name=f"{G.name}|sub{self.order}",
                                   gens=gens, validate=validate)
        return H, mem.copy()

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.parent is other.parent \
            and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


def closure(G, gens) -> Subgroup:
    """The subgroup generated by ``gens``."""
    mem = _closure_members(G, list(gens))
    return Subgroup(G, mem, tuple(int(g) for g in gens))


def trivial_subgroup(G) -> Subgroup:
    return Subgroup(G, [0], ())


def whole_group(G) -> Subgroup:
    return Subgroup(G, np.arange(G.order), G.find_generating_set())


def normalizer_mask(G, sub: Subgroup) -> np.ndarray:
    """Boolean mask of the normalizer of ``sub`` in G."""
    mask = np.ones(G.order, dtype=bool)
    mm = sub.mask()
    for s in sub.gen_elements():
        if s == 0:
            continue
        mask &= mm[G.conjugate_all(int(s))]
    return mask


def conjugate_subgroup(G, sub: Subgroup, g) -> Subgroup:
    """g^-1 * S * g."""
    conj = G.conjugation_map(g)
    return Subgroup(G, np.sort(conj[sub.members]),
                    conj[np.asarray(sub.gens, dtype=np.int64)])


def is_normal(G, sub: Subgroup, within: Subgroup | None = None) -> bool:
    """Is ``sub`` normal in ``within`` (default: all of G)?"""
    gens = within.gen_elements() if within is not None else G.find_generating_set()
    return normal_under(sub, (G.conjugation_map(g) for g in gens))


def normal_under(sub: Subgroup, maps) -> bool:
    """Does every conjugation map in ``maps`` send ``sub`` into itself?
    The maps are read in order, up to the first that does not."""
    mm = sub.mask()
    for conj in maps:
        if not mm[conj[sub.members]].all():
            return False
    return True


def normal_closure(G, elems, under=None) -> Subgroup:
    """Smallest subgroup containing ``elems`` normalized by ``under``
    (default: generators of G).  A round adds one outside conjugate per
    element of ``under``, so the recorded ``gens`` stay short."""
    under = [int(g) for g in (under if under is not None else G.find_generating_set())]
    cur = [int(e) for e in elems]
    while True:
        mem = _closure_members(G, cur)
        mm = np.zeros(G.order, dtype=bool)
        mm[mem] = True
        extra = []
        for g in under:
            conj = G.conjugation_map(g)[mem]
            bad = conj[~mm[conj]]
            if bad.size:
                extra.append(int(bad[0]))
        if not extra:
            return Subgroup(G, mem, tuple(cur))
        cur += extra


def _derived(G, gens) -> Subgroup:
    """[D, D] for D = <gens>: the normal closure in D of the commutators
    of the generators."""
    coms = [c for i, a in enumerate(gens) for b in gens[i + 1:]
            if (c := G.commutator(int(a), int(b)))]
    if not coms:
        return trivial_subgroup(G)
    return normal_closure(G, coms, under=gens)


def derived_subgroup(G) -> Subgroup:
    """The commutator subgroup, as the normal closure of generator
    commutators."""
    return _derived(G, G.find_generating_set())


def _perfect_core(G) -> Subgroup:
    """The last term of the derived series; it holds every perfect
    subgroup of G."""
    D = whole_group(G)
    while (E := _derived(G, D.gens)).order < D.order:
        D = E
    return D


def _cyclic_class_labels(G):
    """For each conjugacy class i (in ``G.conjugacy_classes()`` order),
    the least class holding a generator of the cyclic subgroup of its
    representative x, i.e. of some x^k with gcd(k, o(x)) = 1.  Two
    classes get the same label exactly when their elements generate
    conjugate cyclic subgroups."""
    class_of = G.class_of()
    labels = []
    for cls in G.conjugacy_classes():
        x = int(cls[0])
        o = G.order_of(x)
        labels.append(min(int(class_of[G.power(x, k)])
                          for k in range(1, o + 1) if math.gcd(k, o) == 1))
    return np.array(labels, dtype=np.int64)


def _pair_closures(G, x, ys, bound):
    """Members of <x, y> for each y in ``ys``, in order, as sorted
    arrays, or None where the closure has more than ``bound`` elements.

    Row i of an m x |G| reached mask R starts as {1} and grows as
    R <- R ∪ Rx ∪ Ry_i, all rows in one gather per step, since
    (Rg)[h] = R[hg^-1].  After k steps a row holds the products of at
    most k generators, so it stops growing exactly when it is closed
    under right multiplication by x and y_i, that is when it is
    <x, y_i> (in a finite group the products of x and y_i form a
    subgroup).  A row is dropped once it stops growing or passes
    ``bound``.
    """
    n = G.order
    ys = np.asarray(ys, dtype=np.int64)
    out = [None] * ys.size
    # flat positions in R of h x^-1, then of h y^-1, for each row and h
    at = np.concatenate([np.broadcast_to(G.col(G.inverse[x]), (ys.size, n)),
                         G.col(G.inverse[ys]).T], axis=1).astype(np.int64)
    at += n * np.arange(ys.size)[:, None]
    live = np.arange(ys.size)
    R = np.zeros((ys.size, n), dtype=bool)
    R[:, 0] = True
    size = np.ones(ys.size, dtype=np.int64)
    while live.size:
        moved = R.take(at)
        R |= moved[:, :n]
        R |= moved[:, n:]
        grown = np.count_nonzero(R, axis=1)
        done = grown == size
        for i, row in zip(live[done].tolist(), R[done]):
            out[i] = np.flatnonzero(row)
        keep = np.flatnonzero((grown > size) & (grown <= bound))
        if keep.size < live.size:
            # row keep[j] moves up to row j
            at = at[keep] - (n * (keep - np.arange(keep.size)))[:, None]
            R, live = R[keep], live[keep]
        size = grown[keep]
    return out


def _is_perfect(G, x, y, order):
    """Is <x, y>, of the given order, perfect?  Its derived subgroup is
    the normal closure of [x, y] under x and y."""
    return normal_closure(G, [G.commutator(x, y)], under=(x, y)).order == order


def _perfect_seed_subgroups(G):
    """Perfect subgroups of G, excluding the trivial one, up to
    conjugacy.

    Every perfect subgroup lies in the perfect core P, which is itself
    perfect and is recorded whole.  A proper one has an order m that
    divides |P| and is at most |P|/2.  The sieve keeps only the m that
    are multiples of a member of ``SIMPLE_ORDERS``: a nontrivial perfect
    group has a nonabelian simple quotient, whose order divides m and so
    is in the table as long as m < ``NEXT_SIMPLE_ORDER``, which holds
    since m <= ``MAX_DENSE_ORDER`` / 2 = 5120.  Where no m survives,
    nothing is scanned: psl2:7, psl2:13, psl2:23 and A5 have none.

    Otherwise a proper one is sought as <x, y>, closed under the bound
    max m and kept when its order is a surviving m and it is perfect.
    Conjugate pairs generate conjugate subgroups, and ``all_subgroups``
    adds the conjugates of every seed, so one pair per class under the
    following moves suffices.  <x^k, y> = <x, y> when x^k generates
    <x>, so x runs over one element per class of cyclic subgroups
    inside P.  <x, y^g> = <x^g, y^g> = <x, y>^g for g in N_G(<x>),
    since x^g again generates <x>, so y runs over one element per orbit
    of the normalizer N_G(<x>) on P, not just of the centralizer.
    <x, y> = <y, x>, and a conjugate of y generates the cyclic subgroup
    of its class's representative, so y's cyclic class is not below
    x's.  This assumes every perfect subgroup is generated by two
    elements, which holds for every finite simple group but is not
    proved here for the others.  The assumption matters only where the sieve leaves
    orders to scan: 168 in psl2:8, 60, 120 and 180 in A6, 60 in psl2:11.
    A solvable G has P = 1 and no scan.

    By Lagrange o(x) and o(y) divide |<x, y>|, so a pair whose
    lcm(o(x), o(y)) divides no surviving m would fail the order test;
    such x and y are dropped before closing.  The y of one x are closed
    together by ``_pair_closures``.  Pairs that generate the same
    subgroup are tested for perfectness once, and the first one is the
    seed's ``gens``; ``all_subgroups`` would skip the later ones anyway.
    """
    n = G.order
    core = _perfect_core(G)
    if core.order == 1:
        return []
    seeds = [core]
    orders = {m for m in divisors(core.order)
              if 2 * m <= core.order and any(m % s == 0 for s in SIMPLE_ORDERS)}
    if not orders:
        return seeds
    bound = max(orders)
    step = max(1, CHUNK_ENTRIES // n)
    # the element orders that divide some surviving m
    fits = np.array(sorted({d for m in orders for d in divisors(m)}))
    elem_orders = G.element_orders()
    in_core = core.mask()
    class_of = G.class_of()
    cyclic_class = _cyclic_class_labels(G)
    tested = set()
    for i, cls in enumerate(G.conjugacy_classes()):
        x = int(cls[0])
        if x == 0 or cyclic_class[i] != i or not in_core[x] \
                or elem_orders[x] not in fits:
            continue
        cyc = Subgroup(G, _closure_members(G, [x]), (x,))
        norm = np.flatnonzero(normalizer_mask(G, cyc))
        maps = [G.conjugation_map(c) for c in _greedy_generators(G, norm)]
        ys = np.unique(orbit_labels(n, maps)[core.members])
        ys = ys[(cyclic_class[class_of[ys]] >= i)
                & np.isin(np.lcm(elem_orders[x], elem_orders[ys]), fits)]
        closed = [mem for lo in range(0, ys.size, step)
                  for mem in _pair_closures(G, x, ys[lo:lo + step], bound)]
        for y, mem in zip(ys.tolist(), closed):
            if mem is None or mem.size not in orders:
                continue
            key = mem.tobytes()
            if key not in tested:
                tested.add(key)
                if _is_perfect(G, x, y, mem.size):
                    seeds.append(Subgroup(G, mem, (x, y)))
    return seeds


def all_subgroups(G):
    """Every subgroup, each exactly once, ordered by (order, member tuple).

    A new subgroup is registered with its conjugacy class and only it
    is extended, as an extension of a conjugate is a conjugate of an
    extension.  Each generator's conjugation map is computed once per
    call.  Each extension <S, t> is built once: every t' in it outside S
    gives <S, t'> = <S, t>.  Only the recorded ``gens`` depend on which
    member of a class is found first.  A group with more than
    ``LATTICE_CAP`` subgroups to register is refused with
    ResourceCapError.
    """
    n = G.order
    # a central generator fixes every subgroup
    conj_maps = [m for m in map(G.conjugation_map, G.find_generating_set())
                 if (m != np.arange(n)).any()]

    found = {}
    queue = deque()

    def add(key, sub):
        if len(found) >= LATTICE_CAP:
            raise ResourceCapError(
                f"subgroup lattice cap {LATTICE_CAP} exceeded (order {n})")
        found[key] = sub

    def register(members, gens):
        key = members.tobytes()
        if key in found:
            return
        sub = Subgroup(G, members, gens)
        add(key, sub)
        queue.append(sub)
        orbit = deque([sub])
        while orbit:
            T = orbit.popleft()
            for conj in conj_maps:
                mem = np.sort(conj[T.members])
                key = mem.tobytes()
                if key not in found:
                    C = Subgroup(G, mem, conj[np.asarray(T.gens, dtype=np.int64)])
                    add(key, C)
                    orbit.append(C)

    register(np.array([0], dtype=np.int64), ())
    if n >= SIMPLE_ORDERS[0]:
        for seed in _perfect_seed_subgroups(G):
            register(seed.members, seed.gens)

    primes = list(_factorint(n))
    while queue:
        S = queue.popleft()
        k = S.order
        usable = [p for p in primes if n % (p * k) == 0]
        if not usable:
            continue
        nm = normalizer_mask(G, S)
        mm = S.mask()
        cand = np.nonzero(nm & ~mm)[0]
        if cand.size == 0:
            continue
        for p in usable:
            tp = G.pow_vec(cand, p)
            done = np.zeros(n, dtype=bool)
            for t in cand[mm[tp]].tolist():
                if done[t]:
                    continue
                block = G.mul_block(S.members, [G.power(t, k) for k in range(p)])
                members = np.sort(block.ravel())
                done[members] = True
                register(members, S.gens + (t,))

    subs = sorted(found.values(), key=lambda s: (s.order, s.members.tobytes()))
    return subs


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    mem = A.members[B.mask()[A.members]]
    return Subgroup(A.parent, mem, ())


def product_set(A: Subgroup, B: Subgroup) -> np.ndarray:
    """Boolean mask of the element set A*B (not generally a subgroup)."""
    prods = np.unique(A.parent.mul_block(A.members, B.members))
    mask = np.zeros(A.parent.order, dtype=bool)
    mask[prods] = True
    return mask


@dataclass(frozen=True)
class Factorization:
    """An (unordered) pair of subgroups with H ∩ L = 1 and |H||L| = |G|."""

    h: Subgroup
    l: Subgroup

    @property
    def group(self):
        return self.h.parent


def exact_factorizations(G, subs=None):
    """All exact factorizations {H, L} of G, each pair once, including
    the trivial {G, 1}.

    |HL| = |H||L| / |H ∩ L| holds for any two subgroups, so checking
    |H||L| = |G| and trivial intersection suffices; the product covering
    G is automatic and is asserted by the test suite, not recomputed
    here.  The pairs of one order pair are met in one gather: B ∩ A = 1
    exactly when B holds none of A's members past the identity.
    """
    n = G.order
    if n == 1:
        t = trivial_subgroup(G)
        return [Factorization(h=t, l=t)]
    if subs is None:
        subs = all_subgroups(G)
    by_order = {}
    for s in subs:
        by_order.setdefault(s.order, []).append(s)
    out = []
    for d1 in sorted(by_order):
        d2, rem = divmod(n, d1)
        if rem or d1 > d2 or d2 not in by_order:
            continue
        left = by_order[d1]
        right = by_order[d2]
        rmask = np.stack([s.mask() for s in right])
        # members past the identity, which is member 0 of every subgroup
        rest = np.stack([s.members[1:] for s in left])
        step = max(1, CHUNK_ENTRIES // (len(right) * d1))
        for lo in range(0, len(left), step):
            # meet[j, i]: right[j] and left[lo + i] share more than 1
            meet = rmask[:, rest[lo:lo + step]].any(axis=2)
            for j, i in zip(*np.nonzero(~meet)):
                if d1 < d2 or j > lo + i:
                    out.append(Factorization(h=right[j], l=left[lo + i]))
    out.sort(key=lambda f: (f.h.order, f.h.key(), f.l.key()))
    return out


def quotient(H: Subgroup, N: Subgroup) -> FiniteGroup:
    """The quotient group H/N (N must be normal in H)."""
    Q, _ = quotient_with_projection(H, N)
    return Q


def quotient_with_projection(H: Subgroup, N: Subgroup):
    """Quotient H/N plus the projection array over H's members.

    Returns (Q, proj) with proj[i] = Q-index of the coset of H.members[i].
    """
    if not H.mask()[N.members].all():
        raise InputFormatError("N is not contained in H")
    if not is_normal(H.parent, N, within=H):
        raise InputFormatError("N is not normal in H")
    return unchecked_quotient(H, N)


def unchecked_quotient(H: Subgroup, N: Subgroup):
    """``quotient_with_projection`` for a caller that has already proved
    N normal in H: N's containment and normality are not checked, but
    the quotient table is, by ``FiniteGroup.from_table``.  Cosets,
    positions and the table stay in the Cayley table's uint16; proj is
    int64."""
    G = H.parent
    reps = G.row(H.members)[:, N.members].min(axis=1)
    uniq = np.unique(reps)
    proj = np.searchsorted(uniq, reps)
    pos = np.zeros(G.order, dtype=np.uint16)
    pos[H.members] = np.arange(H.members.size)
    qtab = proj.astype(np.uint16)[pos[G.row(uniq)[:, uniq]]]
    Q = FiniteGroup.from_table(qtab, name=f"{G.name}|q{H.members.size // N.members.size}")
    return Q, proj


def is_simple(G):
    """No proper nontrivial normal subgroup: every nontrivial conjugacy
    class has full normal closure.  This suffices because every
    nontrivial normal subgroup contains a nontrivial class."""
    if G.order == 1:
        return False
    for c in G.conjugacy_classes():
        if len(c) == 1 and c[0] == 0:
            continue
        if normal_closure(G, [int(c[0])]).order != G.order:
            return False
    return True
