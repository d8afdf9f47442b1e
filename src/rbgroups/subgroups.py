"""Subgroups, the subgroup lattice, quotients and exact factorizations.

The lattice search is the cyclic extension method: a subgroup S grows to
S' = <S, t> where t normalizes S and t^p lies in S for a prime p, so
|S'| = p|S|.  Walking these prime steps from the trivial subgroup finds
every solvable subgroup; every other subgroup sits above some perfect
subgroup through such a chain (repeatedly cut a prime-index normal
subgroup under the derived quotient), so the search additionally seeds
every perfect subgroup.  Perfect subgroups all lie in the perfect core
(the last term of the derived series), so a solvable group needs no
seeds.  Otherwise the core is a seed, and the others come from a
bounded scan of pairs <x, y> inside it, x over conjugacy class
representatives and y over the orbits of x's centralizer; this relies
on perfect subgroups being 2-generated, see the docstring of
``_perfect_seed_subgroups``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, PropertyFailure, ResourceCapError
from .groups import (FiniteGroup, _closure_members, _greedy_generators,
                     orbit_labels)

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
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


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

    def as_group(self, name=None, validate=True):
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
        H = FiniteGroup.from_table(tab, name=name or f"{G.name}|sub{self.order}",
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
    ig = G.inv(g)
    mem = np.sort(G.col(g)[G.row(ig)[sub.members]])
    gens = tuple(int(G.mul(G.mul(ig, s), g)) for s in sub.gens)
    return Subgroup(G, mem, gens)


def is_normal(G, sub: Subgroup, within: Subgroup | None = None) -> bool:
    """Is ``sub`` normal in ``within`` (default: all of G)?"""
    mm = sub.mask()
    gens = within.gen_elements() if within is not None else G.find_generating_set()
    for g in gens:
        conj = G.col(int(g))[G.row(G.inv(int(g)))[sub.members]]
        if not mm[conj].all():
            return False
    return True


def normal_closure(G, elems, under=None) -> Subgroup:
    """Smallest subgroup containing ``elems`` normalized by ``under``
    (default: generators of G)."""
    under = [int(g) for g in (under if under is not None else G.find_generating_set())]
    cur = [int(e) for e in elems]
    while True:
        mem = _closure_members(G, cur)
        mm = np.zeros(G.order, dtype=bool)
        mm[mem] = True
        extra = []
        for g in under:
            conj = G.col(g)[G.row(G.inv(g))[mem]]
            bad = conj[~mm[conj]]
            extra.extend(int(b) for b in bad[:8])
        if not extra:
            return Subgroup(G, mem, tuple(cur))
        cur = [int(x) for x in mem] + extra


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
    while True:
        E = _derived(G, D.gens)
        if E.order == D.order:
            return D
        D = Subgroup(G, E.members, _greedy_generators(G, E.members))


def _perfect_seed_subgroups(G, max_order):
    """Perfect subgroups of order <= max_order (excluding the trivial one).

    Every perfect subgroup lies in the perfect core P, which is itself
    perfect and is recorded whole.  A proper one is sought as <x, y>
    with x a representative of a conjugacy class inside P and y a
    representative of an orbit of the centralizer C_G(x) on P (conjugate
    pairs generate conjugate subgroups), under the bound |P|/2; the
    perfect results are kept and the collection is closed under
    conjugation.  This assumes every perfect subgroup is generated by
    two elements, which holds for every finite simple group but is not
    proved here for the others.  A solvable G has P = 1 and no scan.
    """
    n = G.order
    seeds = {}

    def record(mem, gens):
        key = mem.tobytes()
        if key not in seeds:
            seeds[key] = Subgroup(G, mem, gens)
            return True
        return False

    core = _perfect_core(G)
    if core.order == 1:
        return []
    if core.order <= max_order:
        record(core.members, core.gens)
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
                    for c in _greedy_generators(G, cent)]
            ys = np.unique(orbit_labels(n, maps)[core.members])
            # <x, y> = <y, x>: let x come from the lower class
            for y in ys[class_of[ys] >= i].tolist():
                mem = _closure_members(G, [x, y], bound=proper_bound)
                if mem is None or mem.size < 60 or mem.size % 4:
                    continue
                dm = normal_closure(G, [G.commutator(x, y)], under=(x, y))
                if dm.order == mem.size:
                    record(mem, (x, y))
        # close under conjugation
        queue = deque(seeds.values())
        while queue:
            S = queue.popleft()
            for g in G.find_generating_set():
                T = conjugate_subgroup(G, S, int(g))
                if record(T.members, T.gens):
                    queue.append(seeds[T.key()])
    return list(seeds.values())


def all_subgroups(G, max_order=None, *, lattice_cap=10000, allowed_orders=None,
                  prune=None):
    """Every subgroup of order <= max_order, each exactly once, ordered by
    (order, member tuple).

    ``allowed_orders`` restricts which orders may appear at all (used by
    the operator-graph search, where only divisors of a target order can
    occur); ``prune`` is an optional predicate on member arrays — a
    subgroup failing it is dropped together with its whole extension
    subtree, which is sound whenever the property is inherited by
    subgroups.
    """
    n = G.order
    if n > lattice_cap:
        raise ResourceCapError(f"order {n} exceeds the lattice cap {lattice_cap}")
    if max_order is None:
        max_order = n
    max_order = min(max_order, n)
    ok_orders = set(d for d in divisors(n) if d <= max_order)
    if allowed_orders is not None:
        ok_orders &= set(int(a) for a in allowed_orders)

    found = {}
    queue = deque()

    def register(members, gens):
        if members.size not in ok_orders:
            return None
        if prune is not None and not prune(members):
            return None
        key = members.tobytes()
        if key in found:
            return None
        sub = Subgroup(G, members, gens)
        found[key] = sub
        queue.append(sub)
        return sub

    register(np.array([0], dtype=np.int64), ())
    if max_order >= 60 and n >= 60:
        for seed in _perfect_seed_subgroups(G, max_order):
            register(seed.members, seed.gens)

    primes = list(_factorint(n))
    while queue:
        S = queue.popleft()
        k = S.order
        usable = [p for p in primes if p * k in ok_orders]
        if not usable:
            continue
        nm = normalizer_mask(G, S)
        mm = S.mask()
        cand = np.nonzero(nm & ~mm)[0]
        if cand.size == 0:
            continue
        for p in usable:
            tp = G.pow_vec(cand, p)
            ts = cand[mm[tp]]
            for t in ts:
                t = int(t)
                powers = [0]
                cur = t
                for _ in range(p - 1):
                    powers.append(cur)
                    cur = G.mul(cur, t)
                block = G.mul_block(S.members, np.asarray(powers, dtype=np.int64))
                members = np.sort(block.ravel())
                register(members, S.gens + (t,))

    subs = sorted(found.values(), key=lambda s: (s.order, s.members.tobytes()))
    return subs


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    mem = np.intersect1d(A.members, B.members)
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
    exact: bool = True

    @property
    def group(self):
        return self.h.parent

    def orders(self):
        return (self.h.order, self.l.order)


def exact_factorizations(G, subs=None):
    """All exact factorizations {H, L} of G, each pair once, including
    the trivial {G, 1}.

    |HL| = |H||L| / |H ∩ L| holds for any two subgroups, so checking
    |H||L| = |G| and trivial intersection suffices; the product covering
    G is automatic and is asserted by the test suite, not recomputed
    here.
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
        for i, A in enumerate(left):
            am = A.mask()
            inter = (rmask & am).sum(axis=1)
            start = i + 1 if d1 == d2 else 0
            for j in np.nonzero(inter == 1)[0]:
                if j < start:
                    continue
                out.append(Factorization(h=right[j], l=A))
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
    G = H.parent
    if not H.mask()[N.members].all():
        raise InputFormatError("N is not contained in H")
    if not is_normal(G, N, within=H):
        raise InputFormatError("N is not normal in H")
    cosets = G.mul_block(H.members, N.members)
    reps = cosets.min(axis=1)
    uniq = np.unique(reps)
    rep_index = {int(r): i for i, r in enumerate(uniq)}
    proj = np.array([rep_index[int(r)] for r in reps], dtype=np.int64)
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[H.members] = np.arange(H.members.size)
    prod = G.mul_block(uniq, uniq)
    qtab = proj[pos[prod]]
    Q = FiniteGroup.from_table(qtab, name=f"{G.name}|q{H.members.size // N.members.size}")
    return Q, proj


def is_simple(G, method="auto"):
    """No proper nontrivial normal subgroup.

    ``classes`` (the ``auto`` choice) checks that every nontrivial
    conjugacy class has full normal closure; this suffices because every
    nontrivial normal subgroup contains a nontrivial class.  ``lattice``
    scans all subgroups for normality and is kept as an independent
    oracle.
    """
    if G.order == 1:
        return False
    if method in ("auto", "classes"):
        for c in G.conjugacy_classes():
            if len(c) == 1 and c[0] == 0:
                continue
            if normal_closure(G, [int(c[0])]).order != G.order:
                return False
        return True
    for s in all_subgroups(G):
        if 1 < s.order < G.order and is_normal(G, s):
            return False
    return True
