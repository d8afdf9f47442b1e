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

The walk runs on classes: each new subgroup is registered with its
orbit under conjugation (by default its conjugacy class) and only the
first member of the orbit is extended, so a ``prune`` predicate must
give the same answer on conjugate subgroups.
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
    left, right = G.row(G.inv(g)), G.col(g)
    return Subgroup(G, np.sort(right[left[sub.members]]),
                    right[left[np.asarray(sub.gens, dtype=np.int64)]])


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
            conj = G.col(g)[G.row(G.inv(g))[mem]]
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


def _perfect_seed_subgroups(G, max_order):
    """Perfect subgroups of order <= max_order (excluding the trivial one).

    Every perfect subgroup lies in the perfect core P, which is itself
    perfect and is recorded whole.  A proper one is sought as <x, y>
    with x a representative of a conjugacy class inside P and y a
    representative of an orbit of the centralizer C_G(x) on P (conjugate
    pairs generate conjugate subgroups), under the bound |P|/2; the
    perfect results are kept, possibly with repeats, and
    ``all_subgroups`` adds their conjugates.  This assumes every perfect
    subgroup is generated by two elements, which holds for every finite
    simple group but is not proved here for the others.  A solvable G
    has P = 1 and no scan.
    """
    n = G.order
    core = _perfect_core(G)
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
                    for c in _greedy_generators(G, cent)]
            ys = np.unique(orbit_labels(n, maps)[core.members])
            # <x, y> = <y, x>: let x come from the lower class
            for y in ys[class_of[ys] >= i].tolist():
                mem = _closure_members(G, [x, y], bound=proper_bound)
                if mem is None or mem.size < 60 or mem.size % 4:
                    continue
                dm = normal_closure(G, [G.commutator(x, y)], under=(x, y))
                if dm.order == mem.size:
                    seeds.append(Subgroup(G, mem, (x, y)))
    return seeds


def all_subgroups(G, *, lattice_cap=10000, allowed_orders=None, prune=None,
                  conjugators=None):
    """Every subgroup, each exactly once, ordered by (order, member tuple).

    ``allowed_orders`` restricts which orders may appear at all (used by
    the operator-graph search, where only divisors of a target order can
    occur); a subgroup whose order is not allowed is dropped with its
    whole extension subtree, so only perfect seeds up to the largest
    allowed order are sought.  ``prune`` is an optional predicate on
    member arrays — a subgroup failing it is dropped in the same way,
    which is sound whenever the property is inherited by subgroups.

    A new subgroup is registered with its orbit under conjugation by
    ``conjugators`` (default: G's generators, giving conjugacy classes)
    and only it is extended, as an extension of a conjugate is a
    conjugate of an extension; ``prune`` must be invariant under these
    conjugations.  Each extension <S, t> is built once: every t' in it
    outside S gives <S, t'> = <S, t>.  Only the recorded ``gens`` depend
    on which member of a class is found first.
    """
    n = G.order
    if n > lattice_cap:
        raise ResourceCapError(f"order {n} exceeds the lattice cap {lattice_cap}")
    ok_orders = set(divisors(n))
    if allowed_orders is not None:
        ok_orders &= set(int(a) for a in allowed_orders)
    seed_bound = max(ok_orders, default=0)
    if conjugators is None:
        conjugators = G.find_generating_set()

    found = {}
    queue = deque()

    def register(members, gens):
        key = members.tobytes()
        if members.size not in ok_orders or key in found \
                or (prune is not None and not prune(members)):
            return
        sub = found[key] = Subgroup(G, members, gens)
        queue.append(sub)
        orbit = deque([sub])
        while orbit:
            T = orbit.popleft()
            for g in conjugators:
                C = conjugate_subgroup(G, T, g)
                if C.key() not in found:
                    found[C.key()] = C
                    orbit.append(C)

    register(np.array([0], dtype=np.int64), ())
    if seed_bound >= 60:
        for seed in _perfect_seed_subgroups(G, seed_bound):
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

    @property
    def group(self):
        return self.h.parent


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
    if not H.mask()[N.members].all():
        raise InputFormatError("N is not contained in H")
    if not is_normal(H.parent, N, within=H):
        raise InputFormatError("N is not normal in H")
    return unchecked_quotient(H, N)


def unchecked_quotient(H: Subgroup, N: Subgroup):
    """``quotient_with_projection`` for a caller that has already proved
    N normal in H; nothing is checked."""
    G = H.parent
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
