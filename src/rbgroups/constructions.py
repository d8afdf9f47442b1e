"""Constructive recipes for Rota-Baxter operators.

Splitting operators from exact factorizations, (anti)homomorphisms into
abelian subgroups, lifts through an exact factorization, the order-two
intersection construction (lemma_r2_*), the abelian-extension
construction with its commutator criterion, and the order-16 fixture
operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automorphisms import _homomorphisms_by_images, extend_by_generator_images
from .catalog import named_group
from .errors import InputFormatError, PropertyFailure, ResourceCapError
from .groups import CHUNK_ENTRIES, _closure_members, _first_powers
from .maps import GroupMap
from .rb import _BLOCK_ENTRIES, RBOperator, _walk, btilde, make_rb, verify_rb
from .subgroups import (Factorization, Subgroup, all_subgroups, closure,
                        exact_factorizations, intersection, is_normal)

#: the most data ``extension_search`` may plan to return
EXTENSION_BUDGET = 300000


def _decomposition_images(G, first: Subgroup, second: Subgroup, value_of_second):
    """images[x*y] = value_of_second[j] for the unique decomposition
    x ∈ first, y = second.members[j]; errors if the decomposition is not
    unique (non-exact pair)."""
    n = G.order
    images = np.full(n, -1, dtype=np.int64)
    block = G.mul_block(first.members, second.members)
    images[block] = np.broadcast_to(value_of_second, block.shape)
    if (images < 0).any():
        raise InputFormatError("factorization does not cover the group")
    if first.order * second.order != n:
        raise InputFormatError("factorization orders do not multiply to |G|")
    return images


def splitting_from_exact(F: Factorization, order="HL") -> RBOperator:
    """B(hl) = l^-1 (order HL) or B(lh) = h^-1 (order LH) for an exact
    factorization G = HL; always a splitting operator."""
    if order not in ("HL", "LH"):
        raise InputFormatError("order must be HL or LH")
    G = F.group
    if intersection(F.h, F.l).order != 1:
        raise InputFormatError("factorization is not exact")
    first, second = (F.h, F.l) if order == "HL" else (F.l, F.h)
    vals = G.inverse[second.members]
    images = _decomposition_images(G, first, second, vals)
    op = make_rb(G, images)
    op.provenance["recipe"] = {"kind": "split", "order": order,
                              "h_order": F.h.order, "l_order": F.l.order}
    return op


def hom_to_abelian(G, H: Subgroup, phi: GroupMap, anti=False) -> RBOperator:
    """An (anti)homomorphism G -> H with H an abelian subgroup is a
    Rota-Baxter operator."""
    if phi.images.shape != (G.order,):
        raise InputFormatError("the map must give one image per element of G")
    Hgrp, _ = H.as_group(validate=False)
    if not Hgrp.is_abelian():
        raise InputFormatError("target subgroup is not abelian")
    if not H.mask()[phi.images].all():
        raise InputFormatError("map does not land inside the subgroup")
    if not phi.is_homomorphism(anti=anti):
        kind = "antihomomorphism" if anti else "homomorphism"
        raise InputFormatError(f"map is not a {kind}")
    op = make_rb(G, phi.images)
    op.provenance["recipe"] = {"kind": "hom-abelian", "anti": bool(anti),
                              "target_order": H.order}
    return op


def lift_from_factor(F: Factorization, C) -> RBOperator:
    """B(hl) = C(l) for an exact G = HL and a Rota-Baxter operator C on
    L whose companion image normalizes H.

    ``C`` is an RBOperator on L.as_group() or a positional image array
    over L's members.
    """
    if intersection(F.h, F.l).order != 1:
        raise InputFormatError("factorization is not exact")
    G = F.group
    Lgrp, to_parent = F.l.as_group(validate=False)
    c_images = np.asarray(C.images if isinstance(C, RBOperator) else C,
                          dtype=np.int64)
    if c_images.shape != (Lgrp.order,):
        raise InputFormatError("C must assign an image to every element of L")
    res = verify_rb(Lgrp, c_images)
    if not res.ok:
        raise PropertyFailure("c-not-rb-on-l", witness=res.witness)
    ct = btilde(RBOperator(Lgrp, c_images))
    hm = F.h.mask()
    for u in np.unique(to_parent[ct.images]):
        u = int(u)
        conj = G.conjugation_map(u)[F.h.members]
        if not hm[conj].all():
            raise PropertyFailure("companion-image-does-not-normalize-h",
                                  witness=u)
    images = _decomposition_images(G, F.h, F.l, to_parent[c_images])
    op = make_rb(G, images)
    op.provenance["recipe"] = {"kind": "lift", "h_order": F.h.order,
                              "l_order": F.l.order}
    return op


@dataclass
class LemmaR2Instance:
    """Data for the order-two intersection construction.

    h1 ⊴ h and k1 ⊴ k of index 2, G = h1*k exact, and h ∩ k of order 2,
    spanned by an involution r that then normalizes h1.
    """

    h: Subgroup
    k: Subgroup
    h1: Subgroup
    k1: Subgroup

    @property
    def group(self):
        return self.h.parent

    @property
    def r(self):
        """The non-identity member of h ∩ k, once that has order 2."""
        return int(intersection(self.h, self.k).members[1])


def _check_r2(inst: LemmaR2Instance):
    G = inst.group
    n = G.order
    if not (inst.h.mask()[inst.h1.members].all()
            and inst.h.order == 2 * inst.h1.order):
        raise PropertyFailure("h1-not-index-2-in-h")
    if not (inst.k.mask()[inst.k1.members].all()
            and inst.k.order == 2 * inst.k1.order):
        raise PropertyFailure("k1-not-index-2-in-k")
    if inst.h1.order * inst.k.order != n or \
            intersection(inst.h1, inst.k).order != 1:
        raise PropertyFailure("g-not-h1k-exact")
    R = intersection(inst.h, inst.k)
    if R.order != 2:
        raise PropertyFailure("r-not-order-2-intersection")
    if not is_normal(G, inst.h1, within=R):
        raise PropertyFailure("r-does-not-normalize-h1")


def lemma_r2_construct(inst: LemmaR2Instance) -> RBOperator:
    """B(h1 k) = k^-1 r^d where d = 0 for k in k1 and 1 otherwise."""
    _check_r2(inst)
    G, r = inst.group, inst.r
    k1m = inst.k1.mask()
    kinv = G.inverse[inst.k.members]
    delta = ~k1m[inst.k.members]
    vals = np.where(delta, G.col(r)[kinv], kinv)
    images = _decomposition_images(G, inst.h1, inst.k, vals)
    op = make_rb(G, images)
    op.provenance["recipe"] = {"kind": "lemma-r2", "h_order": inst.h.order,
                              "k_order": inst.k.order, "r": r}
    return op


def lemma_r2_search(G) -> list[LemmaR2Instance]:
    """All instances of the construction's hypotheses on G, in a
    deterministic order: the exact factorizations G = H1 K with |K| even,
    by (|K|, K, H1) in key order, then H and K1 in lattice order."""
    subs = all_subgroups(G)
    by_order = {}
    for s in subs:
        by_order.setdefault(s.order, []).append(s)
    pairs = sorted(((K, H1) for f in exact_factorizations(G, subs)
                    for K, H1 in ((f.h, f.l), (f.l, f.h)) if K.order % 2 == 0),
                   key=lambda p: (p[0].order, p[0].key(), p[1].key()))
    out = []
    for K, H1 in pairs:
        km = K.mask()
        k1s = [S for S in by_order.get(K.order // 2, []) if km[S.members].all()]
        if not k1s:
            continue
        for H in by_order.get(2 * H1.order, []):
            if not H.mask()[H1.members].all():
                continue
            if intersection(H, K).order != 2:
                continue
            out += [LemmaR2Instance(h=H, k=K, h1=H1, k1=K1) for K1 in k1s]
    return out


@dataclass(slots=True, eq=False)
class ExtensionData:
    """Data for the abelian-extension construction: G = <A, f> with A
    normal abelian, an endomorphism of A (positional over A.members),
    and an image for f inside A.

    Data from ``extension_search`` carry the frame of their (G, A) and
    ``_row``, their index in the frame's plan: the checks that depend
    only on A, run once per A, and the search's rows (f, BA, B(f)) in
    order, so that ``extension_construct`` checks and builds planned
    data in batches.  Data of one search share each BA array, so a
    change made to one in place reaches them all; the plan keeps its
    own copy, and a datum that no longer matches its row is checked and
    built on its own.  It trusts a frame only while ``frame.group is
    group and frame.a is a``; otherwise (hand-made data, or a datum
    whose group or A was replaced) it builds and checks a new one.
    Slotted, so that the hundreds of thousands of data a search may
    return carry no per-instance dict.  Data compare by identity, since
    ``ba_images`` is an array.
    """

    group: object
    a: Subgroup
    f: int
    ba_images: np.ndarray       # positions into a.members
    bf: int                     # parent index, must lie in A
    _frame: object = field(default=None, init=False, repr=False)
    _row: int = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.ba_images = np.asarray(self.ba_images, dtype=np.int64)


class _ExtensionFrame:
    """What the construction needs of (G, A) alone, checked once: ``pos``
    maps parent indices to positions in ``A.members`` (-1 outside A),
    ``tab = pos[A*A]`` is A's positional table, and ``expo[f]``,
    ``tops[f]`` are the coset exponent o of every f and f^o.  Closure
    and commutativity are read off ``tab``; raises unless A is a normal
    abelian subgroup.  ``powers[j, p]`` is the position of the j-th
    power of ``A.members[p]`` for j = 0..|G|/|A|, and ``layouts`` gives
    the transversals of many f at once.

    ``plan`` records the rows (f, BA, B(f)) that ``extension_search``
    returns, every f of the frame in one flat list, with BA an index
    into the frame's own copy ``endos`` of the endomorphisms.
    ``planned`` gives a datum's (images, is_rb, condition) while it
    still matches its row.  The rows fall into fixed chunks of
    ``CHUNK_ENTRIES // |G|`` rows, which span the frame's f: on the
    first read of one of its rows a chunk's rows are checked together
    (``_passes``) and built in one ``_build``, and the frame keeps that
    one chunk until its last row is read."""

    def __init__(self, G, A):
        pos = np.full(G.order, -1, dtype=np.int64)
        pos[A.members] = np.arange(A.order)
        tab = pos[G.mul_block(A.members, A.members)]
        if (tab < 0).any():
            raise PropertyFailure("subgroup-not-closed")
        if not (tab == tab.T).all():
            raise InputFormatError("A is not abelian")
        if not is_normal(G, A):
            raise InputFormatError("A is not normal")
        self.group, self.a, self.pos, self.tab = G, A, pos, tab
        self.expo, self.tops = _first_powers(G, pos >= 0, np.arange(G.order))
        powers = [np.zeros(A.order, dtype=np.int64)]
        for _ in range(G.order // A.order):
            powers.append(tab[powers[-1], np.arange(A.order)])
        self.powers = np.array(powers)
        self.endos, self._plan, self._chunk = None, np.empty((0, 3), dtype=np.int64), None

    def layouts(self, fs):
        """(j, p) with g = f^j A.members[p[g]] and j below the coset
        exponent |G|/|A| of f, which every f of ``fs`` must have, for
        every g: row r holds the transversal cells f^j a of f = fs[r],
        checked to cover G."""
        G, A, n = self.group, self.a, self.group.order
        fj, cells = np.zeros(len(fs), dtype=np.int64), []
        for _ in range(n // A.order):
            cells.append(G.mul_block(fj, A.members))
            fj = G.mul_vec(fj, fs)
        at = np.full((len(fs), n), -1)
        np.put_along_axis(at, np.stack(cells, axis=1).reshape(len(fs), n), np.arange(n), axis=1)
        if (at < 0).any():
            raise InputFormatError("transversal failed to decompose every element")
        return np.divmod(at, A.order)

    def endomorphism_checks(self, bas):
        """(in range, homomorphism) for every row of the positional array
        ``bas``: |A| entries in 0..|A|-1, and the homomorphism law on
        every pair of A's positional table, in blocks of
        ``_BLOCK_ENTRIES`` table entries."""
        tab, m = self.tab, self.a.order
        if bas.shape[1:] != (m,):
            no = np.zeros(len(bas), dtype=bool)
            return no, no
        in_range = ((bas >= 0) & (bas < m)).all(axis=1)
        safe = np.where(in_range[:, None], bas, 0)
        step = max(1, _BLOCK_ENTRIES // (m * m))
        hom = [(e[:, tab] == tab[e[:, :, None], e[:, None, :]]).all(axis=(1, 2))
               for e in (safe[s:s + step] for s in range(0, len(safe), step))]
        return in_range, in_range & np.concatenate(hom)

    def plan(self, endos, rows):
        """Record the frame's own copy ``endos`` of the endomorphisms (an
        e x |A| array) and its rows, given in order as r x 3 arrays of
        (f, index into ``endos``, B(f))."""
        self.endos, self._plan = endos, np.concatenate(rows)

    def planned(self, data, f, bf):
        """(images, is_rb, condition) of a datum that still matches its
        planned row (same f, B(f) and BA bytes) and passed its chunk's
        checks, read off the frame's cached chunk; None for any other
        datum."""
        row, ba = data._row, data.ba_images
        if data._frame is not self or row is None or not 0 <= row < len(self._plan):
            return None
        pf, e, pbf = self._plan[row].tolist()
        endo = self.endos[e]
        if pf != f or pbf != bf or ba.dtype != endo.dtype or \
                ba.shape != endo.shape or ba.tobytes() != endo.tobytes():
            return None
        size = max(1, CHUNK_ENTRIES // self.group.order)
        start = row - row % size
        if self._chunk is None or self._chunk[0] != start:
            self._chunk = (start, *self._checked_build(self._plan[start:start + size]))
        start, ok, images, is_rb, cond = self._chunk
        i = row - start
        if i == len(ok) - 1:
            self._chunk = None
        if not ok[i]:
            return None
        return images[i].astype(np.int64), bool(is_rb[i]), bool(cond[i])

    def _checked_build(self, rows):
        """(ok, images, is_rb, condition) for the planned rows (f, index
        into ``endos``, B(f)): ok[i] when row i passes ``_passes``, then
        one ``_build`` of all rows, with a row that fails replaced by one
        that passes."""
        ok = self._passes(*rows.T)
        if not ok.all():
            if not ok.any():
                return ok, None, None, None
            rows = np.where(ok[:, None], rows, rows[ok.argmax()])
        return (ok, *self._build(*rows.T, self.endos))

    def _passes(self, fs, ids, bfs):
        """Whether each row (fs[r], endos[ids[r]], bfs[r]) passes the
        checks of ``_check_datum`` and the wrap-around BA(f^o) = B(f)^o,
        all rows at once."""
        n, m = self.group.order, self.a.order
        ok = (fs >= 0) & (fs < n) & (bfs >= 0) & (bfs < n)
        f, bf = np.where(ok, fs, 0), np.where(ok, bfs, 0)
        used, which = np.unique(ids, return_inverse=True)
        ok &= (self.pos[bf] >= 0) & (self.expo[f] * m == n) & \
            self.endomorphism_checks(self.endos[used])[1][which]
        o = np.where(ok, self.expo[f], 0)
        return ok & (self.endos[ids, self.pos[self.tops[f]]] == self.powers[o, self.pos[bf]])

    def _build(self, fs, ids, bfs, endos):
        """(images, is_rb, condition) for the rows (fs[r], endos[ids[r]],
        bfs[r]), with the images as table entries: B(f^j a) = B(f)^j BA(a)
        by one gather over each row's transversal cells (``layouts`` of
        its f), the commutator criterion [Im(B~), f] ⊆ ker(B) by one
        masked ``any`` on each row's commutators [x, f], both in blocks
        of ``_BLOCK_ENTRIES``, and the identity by ``_walk``, which is
        exact at every order (``rb`` module docstring), in blocks of
        ``_BLOCK_ENTRIES // (n·n.bit_length())`` rows, which bound the
        permutations the walk keeps."""
        G, A, n, m = self.group, self.a, self.group.order, self.a.order
        fset, which = np.unique(fs, return_inverse=True)
        js, ps = self.layouts(fset)
        js *= m
        comm = G.mul_vec(G.inverse[G.row(fset)], G.col(fset).T)     # [x, f] = (f x)^-1 (x f)
        images = np.empty((len(fs), n), dtype=np.uint16)
        cond = np.empty(len(fs), dtype=bool)
        step = max(1, _BLOCK_ENTRIES // n)
        for s in range(0, len(fs), step):
            w = which[s:s + step]
            bfj = self.powers.take(js[w] + self.pos[bfs[s:s + step]][:, None])     # B(f)^j
            ba = endos.take(ps[w] + (ids[s:s + step] * m)[:, None])                  # BA(a)
            block = images[s:s + step]
            block[:] = G.products(A.members[bfj] * n + A.members[ba])
            bt = G.products(G.inverse * n + block[:, G.inverse])   # B~(g) = g^-1 B(g^-1)
            cond[s:s + step] = ~np.take_along_axis(
                block, comm.take(bt + w[:, None] * n), axis=1).any(axis=1)
        del bfj, ba, bt         # the last block's temporaries, before the walk
        rows = max(1, _BLOCK_ENTRIES // (n * n.bit_length()))
        is_rb = ~np.concatenate([_walk(G, images[r:r + rows])[0]
                                 for r in range(0, len(images), rows)])
        return images, is_rb, cond


def _check_datum(data: ExtensionData, frame: _ExtensionFrame):
    """The hypotheses that depend on f, B(f) and BA, on top of the
    frame's; returns f's coset exponent o.  With A normal,
    <A, f> = ∪_{j<o} f^j A, so A and f generate G exactly when
    o·|A| = |G|.  BA's homomorphism law is checked on every pair of
    A's positional table."""
    G, A = data.group, data.a
    f, bf = int(data.f), int(data.bf)
    if not 0 <= f < G.order:
        raise InputFormatError(f"f must be an element index in [0, {G.order})")
    if not 0 <= bf < G.order or frame.pos[bf] < 0:
        raise InputFormatError("B(f) does not lie in A")
    in_range, is_hom = frame.endomorphism_checks(data.ba_images[None])
    if not in_range[0]:
        raise InputFormatError("BA must be a positional image array over A")
    o = int(frame.expo[f])
    if o * A.order != G.order:
        raise InputFormatError("A and f do not generate the group")
    if not is_hom[0]:
        raise InputFormatError("BA is not a homomorphism of A")
    return o


def extension_construct(data: ExtensionData):
    """Build B(f^k a) = B(f)^k BA(a) over the canonical transversal
    (k = coset exponent of g in G/A) and test the commutator criterion.

    Returns (candidate, is_rb, condition_holds) where candidate is the
    built map, is_rb comes from full verification, and condition_holds
    is [Im(B~), f] ⊆ ker(B).  The two flags always agree; disagreement
    raises.  A searched datum that still matches its planned row takes
    its map and flags from its frame's chunk, whose rows were checked
    and built together (``_ExtensionFrame.planned``); any other datum is
    checked and built on its own, as a batch of one.
    """
    G = data.group
    A = data.a
    f, bf = int(data.f), int(data.bf)
    frame = data._frame
    if frame is None or frame.group is not G or frame.a is not A:
        frame = _ExtensionFrame(G, A)
    built = frame.planned(data, f, bf)
    if built is None:
        o = _check_datum(data, frame)
        # well-definedness across the wrap-around f^o ∈ A: BA(f^o) = B(f)^o
        if data.ba_images[frame.pos[frame.tops[f]]] != frame.powers[o, frame.pos[bf]]:
            raise InputFormatError("BA(f^o) differs from B(f)^o; "
                                   "the map is not well defined")
        images, is_rb, cond = frame._build(np.array([f]), np.zeros(1, dtype=np.int64),
                                           np.array([bf]), data.ba_images[None])
        built = images[0].astype(np.int64), bool(is_rb[0]), bool(cond[0])
    images, is_rb, cond = built
    if is_rb != cond:
        raise PropertyFailure("extension-iff-violated",
                              witness={"is_rb": is_rb, "condition": cond})
    return GroupMap(G, G, images), is_rb, cond


def _endomorphism_images(Agrp):
    """All endomorphism image arrays of an abelian group, positionally.

    Generator images are tried over an irredundant generating set (a
    recorded generator is dropped while the others still generate), each
    among the elements whose order divides the generator's.  Every
    candidate is checked on all Cayley edges, so the set of
    endomorphisms does not depend on that choice, only their order does.
    """
    gens = list(Agrp.find_generating_set())
    for g in tuple(gens):
        rest = [h for h in gens if h != g]
        if _closure_members(Agrp, rest).size == Agrp.order:
            gens = rest
    orders = Agrp.element_orders()
    cands = [[x for x in range(Agrp.order) if orders[int(g)] % orders[x] == 0]
             for g in gens]
    return [img for _, img in
            _homomorphisms_by_images(Agrp, Agrp, gens, cands, "endomorphism")]


def extension_search(G) -> list[ExtensionData]:
    """Every consistent ExtensionData on G: all normal abelian A, every
    f with <A, f> = G, every endomorphism BA of A, every B(f) in A
    compatible with BA across the wrap-around.

    For normal A, <A, f> = G exactly when f's coset exponent o has
    o·|A| = |G|; one power walk per A gives o for every f.  BA runs over
    ``_endomorphism_images`` (an irredundant generating set of A).  A
    search that would pass ``EXTENSION_BUDGET`` data, or an A whose
    endomorphism search is refused (more than 4 generators, or past
    ``automorphisms.NODE_BUDGET``), raises ResourceCapError.
    """
    out = []
    n = G.order
    for A in all_subgroups(G):
        try:
            frame = _ExtensionFrame(G, A)
        except InputFormatError:        # A is not normal abelian
            continue
        expo, tops = frame.expo, frame.tops
        fs = np.flatnonzero(expo * A.order == n)
        if not fs.size:
            continue
        Agrp, _ = A.as_group(validate=False)
        endos = _endomorphism_images(Agrp)
        if len(out) + fs.size * len(endos) * A.order > EXTENSION_BUDGET:
            raise ResourceCapError("extension search exceeds its budget")
        copy = np.array(endos, dtype=np.int64).reshape(len(endos), A.order)
        first, rows = len(out), []
        for f in fs.tolist():
            bf_pow = G.pow_vec(A.members, int(expo[f]))
            # the (BA, B(f)) with B(f)^o = BA(f^o), by BA and then B(f)
            es, at = np.nonzero(A.members[copy[:, frame.pos[tops[f]]]][:, None] == bf_pow)
            bfs = A.members[at]
            rows.append(np.stack([np.full(es.size, f), es, bfs], axis=1))
            for e, bf in zip(es.tolist(), bfs.tolist()):
                data = ExtensionData(group=G, a=A, f=f, ba_images=endos[e], bf=bf)
                data._frame, data._row = frame, len(out) - first
                out.append(data)
        frame.plan(copy, rows)
    return out


def paper16_fixture():
    """The order-16 group with its non-splitting operator, built through
    the extension construction from A = <a^2, b, c> and f = a."""
    G = named_group("paper16")
    A = closure(G, [2, 4, 8])          # a^2, b, c
    Agrp, to_parent = A.as_group(validate=False)
    pos = {int(m): i for i, m in enumerate(A.members)}
    srcs = (pos[2], pos[4], pos[8])
    imgs = (pos[0], pos[6], pos[14])   # B(a^2)=e, B(b)=a^2 b, B(c)=a^2 b c
    ba = extend_by_generator_images(Agrp, Agrp, srcs, imgs)
    data = ExtensionData(group=G, a=A, f=1, ba_images=ba, bf=2)
    candidate, is_rb, cond = extension_construct(data)
    if not (is_rb and cond):
        raise PropertyFailure("paper16-fixture-not-rb")
    op = RBOperator(G, candidate.images,
                    {"mode": "full", "checked": G.order ** 2,
                     "recipe": {"kind": "paper16"}})
    return G, op
