"""Automorphism groups and isomorphism testing.

One image search serves both.  A candidate assignment of images to a
generating set either extends to a unique map (built by breadth-first
search over the Cayley graph, checking every edge for multiplicativity
on the way) or conflicts and dies.  Since the search checks all n*k
edges, a surviving bijection is a genuine isomorphism — no sampling
involved.  A generator's candidates are the elements of its class
fingerprint, and an automorphism is flagged inner when some conjugation
sends the searched generators to the same images.

One base serves both too: a pair (x, y) with <x, y> = G and x in a
conjugacy class C that every automorphism must preserve (its class
fingerprint is shared by no other class).  Every automorphism is
(conjugation moving x within C) composed with an automorphism fixing x,
and the latter come from the image search on (x, y) with x pinned, so
only y's image varies.  The isomorphism search of a nonabelian group
with more than two stored generators runs on the base as well.  Only a
group without a base (every class fingerprint repeated, as in an
elementary abelian group) is searched on its whole stored generating
set, with backtracking over all their images.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ResourceCapError
from .groups import _closure_members
from .maps import GroupMap, inner_automorphism

#: the most Cayley-edge checks an automorphism or isomorphism search may
#: plan before it starts; a larger search is refused
NODE_BUDGET = 10 ** 8


def extend_by_generator_images(G, H, srcs, imgs):
    """The unique map G -> H with the given generator images, or None.

    ``srcs`` must generate G.  Every Cayley edge is checked, so a
    non-None result is a full homomorphism (bijective or not).
    """
    n = G.order
    img = np.full(n, -1, dtype=np.int64)
    img[0] = 0
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        nxt = []
        for s, si in zip(srcs, imgs):
            gs = G.col(int(s))[frontier]
            hs = H.col(int(si))[img[frontier]]
            unseen = img[gs] == -1
            img[gs[unseen]] = hs[unseen]
            if (img[gs] != hs).any():
                return None
            nxt.append(gs[unseen])
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, np.int64)
        frontier = frontier[img[frontier] != -1]  # guard: all were assigned
    if (img == -1).any():
        return None
    return img


def class_fingerprints(G):
    """Per-class invariants preserved by every automorphism.

    Returns (classes, class_of, fps) where fps[i] is a hashable
    fingerprint of class i, refined through power maps.
    """
    classes = G.conjugacy_classes()
    cid = G.class_of()
    orders = G.element_orders()
    fps = [(int(orders[c[0]]), len(c)) for c in classes]
    for _ in range(2):
        nxt = []
        for i, c in enumerate(classes):
            rep = int(c[0])
            powers = tuple(fps[cid[G.power(rep, j)]] for j in (2, 3, 5, 7))
            nxt.append((fps[i], powers))
        fps = nxt
    return classes, cid, fps


def _elem_fps(G):
    classes, cid, fps = class_fingerprints(G)
    return [fps[cid[x]] for x in range(G.order)]


def _base(G):
    """The base (x, y) of G, or None when G has none.

    x is the least element of the first non-identity conjugacy class
    that no automorphism can move (its class fingerprint is unique) and
    that generates G together with some y; y is the first such element.
    """
    classes, _, fps = class_fingerprints(G)
    counts = {}
    for f in fps:
        counts[f] = counts.get(f, 0) + 1
    for c, f in zip(classes, fps):
        if counts[f] != 1 or (len(c) == 1 and c[0] == 0):
            continue
        x = int(min(c))
        for y in range(1, G.order):
            if _closure_members(G, [x, y]).size == G.order:
                return x, y
    return None


def _homomorphisms_by_images(G, H, gens, cand_lists, what):
    """Yield (choice, images) for every homomorphism G -> H that sends
    ``gens`` to ``choice``, with ``choice`` running over the product of
    ``cand_lists`` in order.  Before searching, refuses more than 4
    generators and a candidate space whose edge checks would exceed
    ``NODE_BUDGET``."""
    if len(gens) > 4:
        raise ResourceCapError(f"more than 4 generators; {what} search refused")
    total = 1
    for c in cand_lists:
        total *= max(1, len(c))
    if total * G.order * len(gens) > NODE_BUDGET:
        raise ResourceCapError(f"{what} search exceeds the node budget")
    for choice in itertools.product(*cand_lists):
        img = extend_by_generator_images(G, H, gens, choice)
        if img is not None:
            yield choice, img


def _bijections_by_images(G, H, gens, what, fix_first=False):
    """Yield (choice, images) for every isomorphism G -> H that sends
    ``gens`` to ``choice``, trying elements of matching class
    fingerprint in order; with ``fix_first`` the first generator is sent
    to itself; refused as ``_homomorphisms_by_images`` refuses."""
    fps_G = _elem_fps(G)
    fps_H = fps_G if H is G else _elem_fps(H)
    cand_lists = [[x for x in range(1, H.order) if fps_H[x] == fps_G[g]]
                  for g in gens]
    if fix_first:
        cand_lists[0] = [gens[0]]
    for choice, img in _homomorphisms_by_images(G, H, gens, cand_lists, what):
        if np.unique(img).size == G.order:
            yield choice, img


def _automorphisms_by_images(G, gens, fix_first=False):
    """Every automorphism that ``_bijections_by_images`` finds on
    ``gens``, flagged inner when some conjugation sends ``gens`` to the
    same images."""
    conj = [G.conjugate_all(g).tolist() for g in gens]
    inner = {tuple(v[t] for v in conj) for t in range(G.order)}
    return [GroupMap(G, G, img, inner=choice in inner) for choice, img
            in _bijections_by_images(G, G, gens, "automorphism", fix_first)]


def _stabilizer_data(G):
    """(x, stab) for the base (x, y) of G, with ``stab`` every
    automorphism fixing x; None when G has no base."""
    base = _base(G)
    if base is None:
        return None
    return base[0], _automorphisms_by_images(G, base, fix_first=True)


def _aut_by_backtracking(G):
    return _automorphisms_by_images(G, G.find_generating_set())


def automorphism_group(G):
    """Every automorphism of G as a GroupMap with an ``inner`` flag,
    sorted by image array."""
    data = _stabilizer_data(G)
    if data is None:
        auts = _aut_by_backtracking(G)
    else:
        # every automorphism is (an inner map moving x within its class)
        # o (an automorphism fixing x); the inner factor keeps the flag.
        # One transporter per point of the class: the first g moving x there
        x, stab = data
        _, transporters = np.unique(G.conjugate_all(x), return_index=True)
        auts = []
        for g in transporters:
            alpha = inner_automorphism(G, int(g)).images
            auts.extend(GroupMap(G, G, alpha[s.images], inner=s.inner) for s in stab)
        assert len({a.key() for a in auts}) == len(auts)
    auts.sort(key=lambda a: a.key())
    return auts


def _generated_keys(G, maps):
    """Image keys of every element of the group generated by ``maps``."""
    ident = np.arange(G.order, dtype=np.int64)
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        nxt = []
        for img in frontier:
            for a in maps:
                c = img[a.images]
                key = c.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(c)
        frontier = nxt
    return seen


def aut_generators(G):
    """A small (not minimal) generating collection of Aut(G): inner
    automorphisms at group generators plus the automorphisms fixing the
    base point of the stabilizer decomposition.  When G has no base,
    backtracking lists every automorphism, and one is kept only if it
    lies outside the group generated by the maps kept before it."""
    inner = [inner_automorphism(G, int(g)) for g in G.find_generating_set()]
    data = _stabilizer_data(G)
    if data is not None:
        return list({a.key(): a for a in inner + data[1]}.values())
    gens = list({a.key(): a for a in inner}.values())
    got = _generated_keys(G, gens)
    for a in _aut_by_backtracking(G):
        if a.key() not in got:
            gens.append(a)
            got = _generated_keys(G, gens)
    return gens


def find_isomorphism(G, H):
    """An isomorphism G -> H as a GroupMap, or None, by generator-image
    backtracking; ResourceCapError when the search is refused."""
    if G.order != H.order or G.fingerprint() != H.fingerprint():
        return None
    gens = G.find_generating_set()
    if len(gens) > 2 and not G.is_abelian():
        gens = _base(G) or gens
    for _, img in _bijections_by_images(G, H, gens, "isomorphism"):
        return GroupMap(G, H, img)
    return None


def is_isomorphic(G, H):
    """Whether find_isomorphism finds a map."""
    return find_isomorphism(G, H) is not None
