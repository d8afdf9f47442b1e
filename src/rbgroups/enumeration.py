"""Exhaustive enumeration, equivalence orbits, splitting classification,
and the non-splitting obstruction filter.

An operator B corresponds to its graph H_B = {(B(g), g B(g))} inside
G x G; subgroups of order |G| whose difference map (a,b) -> b a^-1 is a
bijection are exactly the graphs of operators.  No G x G group is built:
equivalence acts through two side maps of G, plain (g, h) ->
(fa(g), fb(h)) or swapped, on each operator's pairs, and a graph is
named by its sorted pair codes (``graph_key``).

The census reads every graph off G's own lattice.  With C = Im B,
A = Im B~, M = ker B~ and N = ker B, Goursat's lemma gives
H_B = {(c, a) : psi(cM) = aN} for an isomorphism psi: C/M -> A/N, of
order r = |A ∩ C| as A C = G.  The obstruction scan looks for the same
(A, C, N, M) data; ``_Lattice`` serves both.

Splitting operators have product graphs L x H coming from exact
factorizations, and every equivalence transform preserves productness,
so the classification walks orbits of subgroup *pairs* instead of raw
graphs.  The factor subgroups are numbered in key order, each transform
becomes one id permutation per side, and ``groups.orbit_labels`` labels
every pair with the least pair of its orbit, which is the representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

from .automorphisms import (NODE_BUDGET, aut_generators, automorphism_group,
                            find_isomorphism)
from .constructions import splitting_from_exact
from .errors import InputFormatError, PropertyFailure, ResourceCapError
from .groups import CHUNK_ENTRIES, orbit_labels
from .naming import structure_name
from .rb import RBOperator, btilde, check_rows, image, is_splitting
from .subgroups import (Factorization, all_subgroups, exact_factorizations,
                        is_normal, is_simple, unchecked_quotient)

BRUTE_CAP = 24
BRUTE_ROWS = 1 << 22
ENUM_CAP = 16


def graph_key(op: RBOperator) -> bytes:
    """The class identity of ``op``: its graph H_B = {(B(g), g B(g))}
    as the sorted codes B(g)·|G| + g B(g), in bytes."""
    G = op.group
    a = op.images
    return np.sort(a * G.order + G.mul_vec(np.arange(G.order), a)).tobytes()


class _Lattice:
    """Rows over the subgroup list ``subs``, named by id: intersection
    orders, covering rows, kernel lists and quotients, the last two
    built once each."""

    def __init__(self, G, subs):
        self.G, self.subs = G, subs
        self.orders = np.array([s.order for s in subs], dtype=np.int64)
        self._members = np.concatenate([s.members for s in subs])
        self._starts = np.cumsum(self.orders) - self.orders
        self._kernels = {}
        self._quotients = {}

    def inter_orders(self, a):
        """|subs[a] ∩ C| for every C."""
        return np.add.reduceat(self.subs[a].mask()[self._members],
                               self._starts, dtype=np.int64)

    def covering_row(self, a):
        """Ids C with A C = G, in ascending order, and their |A ∩ C|."""
        inter = self.inter_orders(a)
        cs = np.flatnonzero(self.orders[a] * self.orders == self.G.order * inter)
        return cs, inter[cs]

    def kernels(self, big, r):
        """Ids of the normal subgroups of index r in subs[big], ascending."""
        if (big, r) not in self._kernels:
            orders = self.orders
            mask = (orders * r == orders[big]) & (self.inter_orders(big) == orders)
            self._kernels[big, r] = [i for i in np.flatnonzero(mask).tolist()
                                     if is_normal(self.G, self.subs[i],
                                                  within=self.subs[big])]
        return self._kernels[big, r]

    def quotient(self, big, small):
        """(Q, proj, Q.fingerprint()) for subs[big] / subs[small], a
        kernel of subs[big]; proj is over subs[big].members."""
        if (big, small) not in self._quotients:
            Q, proj = unchecked_quotient(self.subs[big], self.subs[small])
            self._quotients[big, small] = (Q, proj, Q.fingerprint())
        return self._quotients[big, small]


def enumerate_rb(G, cap=ENUM_CAP) -> list[RBOperator]:
    """Every operator on G, read off G's lattice (module docstring).

    For every covering pair (A, C) and kernels N of A and M of C of
    index r with N ∩ M = 1 (else M x N repeats a difference), each
    quotient is mapped by phi to one representative Q of its class
    (fingerprint, then ``find_isomorphism``), and psi runs over
    phi_A^-1 alpha phi_C for alpha in Aut(Q).  Its graph is kept when
    the n differences s(psi(cM)) x c^-1 (c in C, x in N, s(aN) in aN)
    are distinct.  Each operator has one such datum, so is found once.
    The graphs kept from one chunk of alpha are checked against the
    defining identity in one ``check_rows`` call, which raises as
    ``make_rb`` would on the first that fails; each operator's
    provenance is {"mode": "full", "checked": n^2}.

    Refused with ResourceCapError above order ``cap``, and before the
    first trial when the trials, |Aut(Q)|·n entries per (N, M), pass
    ``NODE_BUDGET``; planned in ascending r, they are refused before a
    large quotient's Aut(Q) is listed.
    """
    n = G.order
    if n > cap:
        raise ResourceCapError(f"enumerate_rb cap {cap} exceeded (order {n})")
    lat = _Lattice(G, all_subgroups(G))
    subs = lat.subs
    reps = {}       # fingerprint -> [[Q, Aut(Q) images or None], ...]
    to_rep = {}     # (big, small) -> (representative, phi images)

    def iso_rep(big, small):
        if (big, small) not in to_rep:
            Q, _, fp = lat.quotient(big, small)
            for rep in reps.setdefault(fp, []):
                if (phi := find_isomorphism(Q, rep[0])) is not None:
                    to_rep[big, small] = rep, phi.images
                    break
            else:
                reps[fp].append(rep := [Q, None])
                to_rep[big, small] = rep, np.arange(Q.order)
        return to_rep[big, small]

    planned = 0
    trials = []
    for r, a, c in sorted((int(r), a, int(c)) for a in range(len(subs))
                          for c, r in zip(*lat.covering_row(a))):
        for ni in lat.kernels(a, r):
            meets = subs[ni].mask()
            for mi in lat.kernels(c, r):
                if np.count_nonzero(meets[subs[mi].members]) > 1:
                    continue
                (rep, phi_a), (rep_c, phi_c) = iso_rep(a, ni), iso_rep(c, mi)
                if rep is not rep_c:
                    continue
                if rep[1] is None:
                    rep[1] = np.array([f.images for f in automorphism_group(rep[0])])
                planned += len(rep[1]) * n
                if planned > NODE_BUDGET:
                    raise ResourceCapError("enumerate_rb: the isomorphism trials exceed the "
                                           f"node budget (order {n}, quotients of order {r})")
                trials.append((rep[1], phi_a, phi_c, a, c, ni, mi))
    ops = []
    rows = max(1, CHUNK_ENTRIES // n)
    for auts, phi_a, phi_c, a, c, ni, mi in trials:
        C, N = subs[c], subs[ni]
        to_a = np.empty(phi_a.size, dtype=np.int64)     # Q -> s(aN)
        to_a[phi_a[lat.quotient(a, ni)[1]]] = subs[a].members
        at_c = phi_c[lat.quotient(c, mi)[1]]            # c -> phi_C(cM)
        diff = G.mul_block(N.members, G.inverse[C.members]).T   # x c^-1
        value = np.repeat(C.members, N.order)           # B(x c^-1) = c
        for start in range(0, len(auts), rows):
            D = G.mul_vec(to_a[auts[start:start + rows][:, at_c]][:, :, None],
                          diff).reshape(-1, n)
            ok = (np.sort(D, axis=1) == np.arange(n)).all(axis=1)
            kept = value[np.argsort(D[ok], axis=1)]
            check_rows(G, kept)
            ops += [RBOperator(G, row, {"mode": "full", "checked": n * n}) for row in kept]
    ops.sort(key=lambda o: o.key())
    return ops


def brute_force_rb(G) -> list[RBOperator]:
    """Every operator on G from the defining identity alone; the
    independent oracle for enumerate_rb.

    A search over partial maps with B(e) = e, one uint8 row each.  A
    column c is fixed by turning each row into n rows, one per value of
    B(c).  A row is dropped as soon as a pair (g, h) of fixed columns
    fails B(g)B(h) = B(g B(g) h B(g)^-1) with the inner index fixed too;
    each (row, pair) is checked once, at the column that fixes the last
    of g, h and the inner index.  Pairs with g = e or h = e hold for
    every such map.  After the last column every pair has been checked,
    so the rows left are exactly the operators.

    The next column is the least product of two fixed elements not yet
    fixed, else the least element not yet fixed: the subgroup the fixed
    columns generate is filled before a new generator joins.  Unlike
    index order, this keeps the widest column of a relabelled group
    near that of the catalog labelling (elemabelian:2:4 under a random
    labelling: 2^20 rows, against 2^24 in index order).

    Refused with ResourceCapError above order BRUTE_CAP, which bounds
    the 3k pair checks of the k-th column, and before a column's array
    would hold more than BRUTE_ROWS rows.
    """
    n = G.order
    if n > BRUTE_CAP:
        raise ResourceCapError(f"brute_force_rb cap {BRUTE_CAP} exceeded (order {n})")
    t = G.row(np.arange(n)).astype(np.uint8)
    inv = G.inverse.astype(np.uint8)
    conj = t[t, inv[:, None]]               # conj[b, h] = b h b^-1

    def at(X, cols):
        """X[i, cols[i]] for every row i."""
        return np.take_along_axis(X, cols[:, None], axis=1)[:, 0]

    def keep(X, ok):
        return X if ok.all() else X[ok]

    fixed = np.zeros(n, dtype=bool)
    fixed[0] = True
    rows = np.zeros((1, n), dtype=np.uint8)
    for _ in range(1, n):
        if rows.shape[0] * n > BRUTE_ROWS:
            raise ResourceCapError(f"brute_force_rb row budget {BRUTE_ROWS} exceeded "
                                   f"(order {n}, column {int(fixed.sum())})")
        earlier = np.flatnonzero(fixed[1:]) + 1
        reached = np.zeros(n, dtype=bool)
        reached[t[np.ix_(fixed, fixed)]] = True
        new = reached & ~fixed
        c = int(np.flatnonzero(new if new.any() else ~fixed)[0])
        before = fixed.copy()
        fixed[c] = True
        X = np.repeat(rows, n, axis=0)
        X[:, c] = np.tile(np.arange(n, dtype=np.uint8), rows.shape[0])
        # pairs with c in {g, h}, due where the inner index is fixed
        for g, h in [(c, c)] + [(c, h) for h in earlier] + [(g, c) for g in earlier]:
            bg = X[:, g]
            inner = t[g, conj[bg, h]]
            X = keep(X, ~fixed[inner] | (t[bg, X[:, h]] == at(X, inner)))
        # pairs of earlier columns whose inner index is c
        for g in earlier:
            bg = X[:, g]
            h = conj[inv[bg], t[inv[g], c]]
            X = keep(X, ~before[h] | (t[bg, at(X, h)] == X[:, c]))
        rows = X
    ops = [RBOperator(G, row, {"mode": "full", "checked": n * n}) for row in rows]
    ops.sort(key=lambda o: o.key())
    return ops


@dataclass
class QTransform:
    """One generator of the equivalence action, given by two side maps
    of G (image arrays) acting on the pairs (g, h) of a graph:

    plain:   (g, h) -> (fa(g), fb(h))
    swapped: (g, h) -> (fb(h), fa(g))
    """

    kind: str
    fa: np.ndarray
    fb: np.ndarray
    label: str


def q_transform_generators(G) -> list[QTransform]:
    """Generators of the full equivalence action: each automorphism
    generator phi (fa = fb = phi), the conjugation twist at each group
    generator x (fa = id, fb = h -> h^x), and the swap (fa = fb = id);
    plain ones with fa = fb = id (as in abelian groups) are dropped."""
    ident = np.arange(G.order, dtype=np.int64)
    out = [QTransform("plain", phi.images, phi.images, f"phi{i}")
           for i, phi in enumerate(aut_generators(G))]
    out += [QTransform("plain", ident, G.conjugation_map(x), f"alpha{int(x)}")
            for x in G.find_generating_set()]
    out = [t for t in out if (t.fa != ident).any() or (t.fb != ident).any()]
    out.append(QTransform("swapped", ident, ident, "swap"))
    return out


@dataclass
class EquivalenceClass:
    representative: RBOperator
    size: int
    splitting: bool
    image_names: tuple
    graph_keys: frozenset = _dc_field(default=None, repr=False)


def _image_names_of(op: RBOperator):
    names = [structure_name(image(op)), structure_name(image(btilde(op)))]
    return tuple(sorted(names))


def _same_group(G, H):
    """Whether H is G or has G's multiplication table."""
    ar = np.arange(G.order)
    return H is G or (H.order == G.order and np.array_equal(H.row(ar), G.row(ar)))


def classify_equivalence(ops, verify_invariants=True) -> list[EquivalenceClass]:
    """Partition a closed list of operators into equivalence classes.

    The operators must share one group (InputFormatError otherwise),
    and every one must be an operator: the whole list is checked in one
    ``check_rows`` call, which raises what ``make_rb`` raises on the
    first that is not (PropertyFailure "rb-identity" with the least
    witness).  ``ops`` must be closed under the equivalence generators,
    as the output of ``enumerate_rb`` is; a list that is not raises
    InputFormatError.  The distinct operators are numbered in
    ``graph_key`` order.  A transform sends each pair
    (a, b) = (B(g), g B(g)) to (a', b'), and the image operator is
    B'(b' a'^-1) = a'; this is done for all image arrays at once, and
    ``groups.orbit_labels`` labels every operator with the least id of
    its orbit, the class representative.

    With ``verify_invariants`` the class invariants (splitting flag,
    derived-group fingerprint, |Im(B B~)|) are checked constant over
    every class, in one batched pass over the image rows that builds no
    derived group (``_class_invariants``).  The graph map
    g -> (B(g), g B(g)) is an isomorphism (G, o) -> H_B <= G x G, so g
    has order lcm(|B(g)|, |g B(g)|) in (G, o), and its centralizer
    order |C(g)| counts the h whose pair commutes with g's in both
    coordinates; the class sizes n / |C(g)|, the centre and the
    exponent follow.  This is exact, not a filter: the map is an
    isomorphism because B is a homomorphism (G, o) -> G, which holds
    as every row has passed ``check_rows``.  A break raises
    PropertyFailure("orbit-invariant-broken"); of the classes in
    representative order, the first that breaks names as witness the
    graph key of its first member, in key order, whose invariants
    differ from the representative's.
    """
    if not ops:
        return []
    G = ops[0].group
    if not all(_same_group(G, op.group) for op in ops):
        raise InputFormatError("the operators must share one group")
    check_rows(G, np.array([op.images for op in ops]))
    by_key = {graph_key(op): op for op in ops}
    keys = sorted(by_key)
    ops = [by_key[k] for k in keys]
    index = {op.key(): i for i, op in enumerate(ops)}
    a = np.array([op.images for op in ops])
    b = G.mul_vec(np.arange(G.order), a)
    rows = np.arange(len(ops))[:, None]
    maps = []
    for t in q_transform_generators(G):
        a2, b2 = (t.fa[a], t.fb[b]) if t.kind == "plain" else (t.fb[b], t.fa[a])
        moved = np.full_like(a, -1)
        moved[rows, G.mul_vec(b2, G.inverse[a2])] = a2
        try:
            maps.append(np.array([index[row.tobytes()] for row in moved]))
        except KeyError:
            raise InputFormatError(
                "operator list is not closed under the equivalence transforms") from None
    labels = orbit_labels(len(ops), maps)
    if verify_invariants:
        invariants = _class_invariants(G, a)
        # (class, member) of each break: the least names the witness
        broken = [(i, j) for j, i in enumerate(labels.tolist())
                  if invariants[j] != invariants[i]]
        if broken:
            raise PropertyFailure("orbit-invariant-broken", witness=keys[min(broken)[1]])
    classes = []
    for i in np.flatnonzero(labels == np.arange(len(ops))):
        rep = ops[i]
        members = np.flatnonzero(labels == i)
        cls = EquivalenceClass(
            representative=rep, size=members.size, splitting=is_splitting(rep),
            image_names=_image_names_of(rep),
            graph_keys=frozenset(keys[j] for j in members))
        classes.append(cls)
    classes.sort(key=lambda c: c.representative.key())
    return classes


_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


def _class_invariants(G, a):
    """(is_splitting(B), derived_group(B).fingerprint(), |Im(B B~)|)
    for each operator B whose image array is a row of the m x n matrix
    a, one tuple per row; rows with equal invariants share one tuple.

    With b = g B(g), the row a[b] is B(B~(g^-1)), as B~(g) = g^-1 B(g^-1)
    = b[g^-1], so it spells Im(B B~) and the splitting flag.  Orders in
    (G, o) are lcm(|B(g)|, |g B(g)|) and centralizer orders come from
    ``_centralizer_orders`` (``classify_equivalence``); the fingerprint
    takes the order histogram, count(n / |C| = s) / s classes of each
    size s, the centre as the g with |C(g)| = n, and the exponent.
    The rows must be operators, or the numbers mean nothing."""
    m, n = a.shape
    b = G.mul_vec(np.arange(n), a)
    bbt = np.sort(np.take_along_axis(a, b, axis=1), axis=1)
    im_sizes = 1 + np.count_nonzero(np.diff(bbt, axis=1), axis=1)
    ords = G.element_orders()
    shift = (np.arange(m) * (n + 1))[:, None]

    def histograms(x):              # row i: the counts of the values 0..n in x[i]
        return np.bincount((x + shift).ravel(), minlength=m * (n + 1)).reshape(m, n + 1)

    keys = np.column_stack([bbt[:, -1] == 0, im_sizes,
                            histograms(np.lcm(ords[a], ords[b])),
                            histograms(_centralizer_orders(G, a, b))])
    out, tuples = [], {}
    for key in keys:
        code = key.tobytes()
        if code not in tuples:
            orders, cents = key[2:n + 3], key[n + 3:]
            present = np.flatnonzero(orders)
            # centralizer order c: classes of size n // c, ascending as c descends
            sizes = tuple(n // c for c in np.flatnonzero(cents)[::-1].tolist()
                          for _ in range(int(cents[c]) * c // n))
            tuples[code] = (bool(key[0]),
                            (n, tuple(int(x) for x in orders[:present[-1] + 1]), sizes,
                             int(cents[n]), int(np.lcm.reduce(present))),
                            int(key[1]))
        out.append(tuples[code])
    return out


def _centralizer_orders(G, a, b):
    """|C(g)| in (G, o) for every entry g of the m x n image matrix a,
    with b = g B(g): the number of h with B(h) commuting with B(g) and
    h B(h) with g B(g).  Each distinct value x in a row of a (Im B) or
    of b (Im B~), usually far fewer than n, gets one packed bitset of
    the h whose value commutes with x, built CHUNK_ENTRIES // n sets at
    a time, and |C(g)| is the popcount of the AND of g's two sets.
    Rows go in blocks of max(1, CHUNK_ENTRIES // (n ⌈n/8⌉)), whose sets
    take at most n ⌈n/8⌉ bytes per row and side, so at most
    ``CHUNK_ENTRIES`` up to order 720, and the counts in blocks of as
    many bytes: no temporary grows with m n^2."""
    m, n = a.shape
    width = -(-n // 8)
    rows = max(1, CHUNK_ENTRIES // (n * width))

    def commuting_sets(v):          # (sets, at): g's set in row i is sets[at[i n + g]]
        codes, at = np.unique(v + (np.arange(len(v)) * n)[:, None], return_inverse=True)
        i, xs = np.divmod(codes, n)
        sets = np.empty((codes.size, width), dtype=np.uint8)
        step = max(1, CHUNK_ENTRIES // n)
        for s in range(0, codes.size, step):
            x, y = xs[s:s + step, None], v[i[s:s + step]]
            sets[s:s + step] = np.packbits(G.products(x * n + y) == G.products(y * n + x),
                                           axis=1)
        return sets, at.reshape(-1)

    out = np.empty((m, n), dtype=np.int64)
    k = max(1, CHUNK_ENTRIES // width)
    for r in range(0, m, rows):
        (sa, at_a), (sb, at_b) = commuting_sets(a[r:r + rows]), commuting_sets(b[r:r + rows])
        dst = out[r:r + rows].reshape(-1)
        for s in range(0, at_a.size, k):
            dst[s:s + k] = _POPCOUNT[sa[at_a[s:s + k]] & sb[at_b[s:s + k]]].sum(axis=1)
    return out


@dataclass
class SplitClass:
    images: tuple
    orbit_size: int
    splitting: bool


@dataclass
class ClassificationReport:
    group_name: str
    group_order: int
    s: int
    classes: list
    verification: dict

    def to_json(self):
        return {
            "group": self.group_name,
            "order": self.group_order,
            "s": self.s,
            "classes": [{"images": list(c.images), "splitting": c.splitting,
                         "orbit_size": c.orbit_size} for c in self.classes],
            "verification": self.verification,
        }


def _id_maps(subs, element_maps):
    """For each element map f, the array p with p[i] the index in
    ``subs`` of f(subs[i]); ``subs`` (subgroups, each with sorted
    ``members``) must be closed under every f, else KeyError.

    One pass per subgroup order d: the members of the subgroups of
    order d are stacked into rows, each f maps them, the images are
    sorted along the rows, and each image row, as its 8d bytes, is
    looked up among the rows' bytes.
    """
    out = [np.empty(len(subs), dtype=np.int64) for _ in element_maps]
    by_order = {}
    for i, s in enumerate(subs):
        by_order.setdefault(s.order, []).append(i)
    for d, ids in by_order.items():
        rows = np.stack([subs[i].members for i in ids])
        width = 8 * d
        spans = range(0, len(ids) * width, width)
        raw = rows.tobytes()
        index = {raw[a:a + width]: i for a, i in zip(spans, ids)}
        for f, p in zip(element_maps, out):
            raw = np.sort(f[rows], axis=1).astype(np.int64, copy=False).tobytes()
            p[ids] = [index[raw[a:a + width]] for a in spans]
    return out


def _pair_orbits(facts, transforms):
    """Orbits of the ordered pairs (U, V) with U x V a product graph.

    The factor subgroups are numbered in key order and the pair (U, V)
    is the state u*k + v, so a transform acts on states through one id
    array per side.  Returns the number of states and, per orbit in
    order of its least state, (U, V, orbit size); the least state is the
    pair with the least (U.key(), V.key()).
    """
    by_key = {s.key(): s for f in facts for s in (f.h, f.l)}
    factors = [by_key[key] for key in sorted(by_key)]
    k = len(factors)
    index = {s.key(): i for i, s in enumerate(factors)}
    ids = np.array([(index[f.l.key()], index[f.h.key()]) for f in facts])
    states = np.unique(np.concatenate([ids[:, 0] * k + ids[:, 1],
                                       ids[:, 1] * k + ids[:, 0]]))
    u, v = np.divmod(states, k)
    sides = _id_maps(factors, [f for t in transforms for f in (t.fa, t.fb)])
    maps = []
    for t, pa, pb in zip(transforms, sides[::2], sides[1::2]):
        image = pa[u] * k + pb[v] if t.kind == "plain" else pb[v] * k + pa[u]
        maps.append(np.searchsorted(states, image))
    labels = orbit_labels(states.size, maps)
    sizes = np.bincount(labels, minlength=states.size)
    least = np.flatnonzero(labels == np.arange(states.size))
    return states.size, [(factors[u[i]], factors[v[i]], int(sizes[i])) for i in least]


def classify_splitting(G, *, subs=None) -> ClassificationReport:
    """Classify nontrivial splitting operators up to equivalence.

    Every splitting operator comes from an exact factorization G = HL as
    B(hl) = l^-1, whose graph is the product subgroup L x H.  Transforms
    keep products products, so the orbit walk runs over (U, V) subgroup
    pairs.  Orbits meeting a trivial graph (a factor of order 1) are the
    classes of the two trivial operators and are excluded from s.  Each
    orbit's representative, which is named and fully verified, is its
    least pair in key order.
    """
    if subs is None:
        subs = all_subgroups(G)
    facts = exact_factorizations(G, subs)
    n_states, orbits = _pair_orbits(facts, q_transform_generators(G))
    classes = []
    n_trivial = 0
    verified = True
    for L, H, size in orbits:
        verified = verified and is_splitting(
            splitting_from_exact(Factorization(h=H, l=L), "HL"))
        if L.order == 1 or H.order == 1:
            n_trivial += 1
            continue
        classes.append(SplitClass(
            images=tuple(sorted((structure_name(L), structure_name(H)))),
            orbit_size=size, splitting=True))
    classes.sort(key=lambda c: (c.images, c.orbit_size))
    verification = {
        "mode": "pair-orbit",
        "factorizations": len(facts),
        "initial_states": n_states,
        "trivial_orbits": n_trivial,
        "representatives_verified": verified,
    }
    return ClassificationReport(group_name=G.name, group_order=G.order,
                                s=len(classes), classes=classes,
                                verification=verification)


def psl2_expected_s(q):
    """Reference classification values with the documented special cases.

    Returns (expected, status, note).  For q = 5 the abstract group
    coincides with psl2:4, so the computed value 1 disagrees with the
    q ≡ 1 (mod 4) reference row; the report flags that instead of
    silently preferring either number.
    """
    if q == 5:
        return 1, "FLAGGED", ("exceptional isomorphism with psl2:4; computed "
                              "per abstract group, reference row says 0")
    if q == 11:
        return 3, "MATCH", ""
    if q in (7, 23, 59):
        return 2, "MATCH", ""
    if q % 4 == 1:
        return 0, "MATCH", ""
    return 1, "MATCH", ""


@dataclass
class ObstructionReport:
    group_name: str
    group_order: int
    strict_mode: bool
    pairs_scanned: int
    covering_pairs: int
    survivors: list
    eliminated: list
    verdict: str

    def to_json(self):
        return {
            "group": self.group_name,
            "order": self.group_order,
            "strict_mode": self.strict_mode,
            "pairs_scanned": self.pairs_scanned,
            "covering_pairs": self.covering_pairs,
            "survivors": self.survivors,
            "eliminated": self.eliminated,
            "verdict": self.verdict,
        }


def _class_labels(G, subs):
    """The least id of each subgroup's conjugacy class within ``subs``,
    which must be closed under conjugation; one that is not raises
    InputFormatError."""
    conj = [G.conjugation_map(g) for g in G.find_generating_set()]
    try:
        maps = _id_maps(subs, conj)
    except KeyError:
        raise InputFormatError(
            "subgroup list is not closed under conjugation") from None
    return orbit_labels(len(subs), maps)


def nonsplitting_obstruction(G, *, subs=None) -> ObstructionReport:
    """Necessary-condition filter for non-splitting operators.

    A non-splitting operator has Goursat data (module docstring) with
    r > 1: N ⊴ A and M ⊴ C of index r with isomorphic quotients, and,
    for simple non-abelian G, a nontrivial N (strict mode).  An empty
    survivor list proves nonexistence; survivors are candidates only,
    never existence proofs.

    The scan runs on conjugacy classes of subgroups; ``subs`` must be
    closed under conjugation (InputFormatError otherwise).  Conjugation
    keeps kernels of index r and quotient fingerprints, and N and M are
    chosen independently, so a pair's verdict depends only on
    (class(A), class(C), r); it is decided once, on class
    representatives, with kernel candidates in ascending subgroup id.
    A runs over class representatives only, each pair weighted by
    |class(A)|, and nothing of size S x S or S x |G| is built.  Every
    count is that of the scan over all ordered pairs, and
    ``pairs_scanned`` still reports S^2.  Survivors are listed in
    row-major order of (A, C) ids, from the recomputed rows of every A
    whose class has one, since r may differ among the C of one order.
    """
    n = G.order
    if subs is None:
        subs = all_subgroups(G)
    strict = (not G.is_abelian()) and is_simple(G)
    S = len(subs)
    labels = _class_labels(G, subs)
    class_size = np.bincount(labels, minlength=S)
    lat = _Lattice(G, subs)
    orders = lat.orders

    def verdict(a_idx, c_idx, r):
        """None for a surviving pair, else the reason it is eliminated;
        both ids are class representatives."""
        if r <= 1:
            return "intersection trivial (splitting regime)"
        n_cands = [i for i in lat.kernels(a_idx, r) if not strict or orders[i] > 1]
        if not n_cands:
            return "no admissible kernel on the A side"
        m_cands = lat.kernels(c_idx, r)
        if not m_cands:
            return "no admissible kernel on the C side"
        if any(lat.quotient(a_idx, ni)[2] == lat.quotient(c_idx, mi)[2]
               for ni in n_cands for mi in m_cands):
            return None
        return "no isomorphic quotient pair"

    verdicts = {}
    reasons = {}
    covering = 0
    for a_idx in np.flatnonzero(labels == np.arange(S)).tolist():
        cs, rs = lat.covering_row(a_idx)
        weight = int(class_size[a_idx])
        covering += weight * cs.size
        pairs, counts = np.unique(np.stack([labels[cs], rs], axis=1),
                                  axis=0, return_counts=True)
        for (c_idx, r), k in zip(pairs.tolist(), counts.tolist()):
            why = verdicts[a_idx, c_idx, r] = verdict(a_idx, c_idx, r)
            if why is not None:
                key = (int(orders[a_idx]), int(orders[c_idx]), r, why)
                reasons[key] = reasons.get(key, 0) + weight * k
    surviving = {a for (a, _, _), why in verdicts.items() if why is None}
    survivors = []
    for a_idx in np.flatnonzero(np.isin(labels, list(surviving))).tolist():
        a_ord = int(orders[a_idx])
        cs, rs = lat.covering_row(a_idx)
        a_rep = int(labels[a_idx])
        for c_idx, r in zip(cs.tolist(), rs.tolist()):
            if verdicts[a_rep, int(labels[c_idx]), r] is None:
                c_ord = int(orders[c_idx])
                survivors.append({"a_order": a_ord, "c_order": c_ord, "r": r,
                                  "n_order": a_ord // r, "m_order": c_ord // r})
    eliminated = [{"a_order": k[0], "c_order": k[1], "r": k[2],
                   "reason": k[3], "count": v}
                  for k, v in sorted(reasons.items())]
    if survivors:
        verdict_text = ("necessary conditions leave candidates; "
                        "survivors are not existence proofs")
    else:
        verdict_text = "no non-splitting RB operator can exist"
    return ObstructionReport(group_name=G.name, group_order=n,
                             strict_mode=bool(strict),
                             pairs_scanned=int(S) * int(S),
                             covering_pairs=int(covering),
                             survivors=survivors, eliminated=eliminated,
                             verdict=verdict_text)
