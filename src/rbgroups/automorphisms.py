"""Automorphism groups and isomorphism testing.

Automorphisms are found by extending generator images: a candidate
assignment on a generating set either extends to a unique map (built by
breadth-first search over the Cayley graph, checking every edge for
multiplicativity on the way) or conflicts and dies.  Since the search
checks all n*k edges, a surviving bijection is a genuine automorphism —
no sampling involved.

The candidate space is cut down with a stabilizer decomposition
wherever G has a base: a conjugacy class C that every automorphism must
preserve (its class fingerprint is shared by no other class), a base
point x in C and a mate y with <x, y> = G.  Then every automorphism is
(conjugation moving x within C) composed with an automorphism fixing x,
and the latter are enumerated by candidate images of y alone.  A group
without a base (every class fingerprint repeated, as in an elementary
abelian group) falls back to backtracking over the images of a whole
generating set.
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


def _generating_pair(G):
    """A pair (x, y) with <x, y> = G, x taken from a rare fingerprint
    class; None when no pair turns up within a bounded scan."""
    elem_fps = _elem_fps(G)
    counts = {}
    for f in elem_fps[1:]:
        counts[f] = counts.get(f, 0) + 1
    by_rarity = sorted(range(1, G.order), key=lambda g: (counts[elem_fps[g]], g))
    tried = 0
    for x in by_rarity[:8]:
        for y in range(1, G.order):
            if _closure_members(G, [x, y]).size == G.order:
                return x, y
            tried += 1
            if tried > 4 * G.order:
                return None
    return None


def _stabilizer_data(G):
    """Base data for the transporter x stabilizer decomposition, or None.

    Picks a conjugacy class no automorphism can move (its class
    fingerprint is unique), a base point x in it and a mate y with
    <x, y> = G, then enumerates every automorphism fixing x.  Returns
    (x, stab) where ``stab`` holds those automorphisms as GroupMaps
    with their ``inner`` flags set; None when no such base exists.
    """
    classes, cid, fps = class_fingerprints(G)
    counts = {}
    for f in fps:
        counts[f] = counts.get(f, 0) + 1
    base = None
    for c, f in zip(classes, fps):
        if counts[f] != 1 or (len(c) == 1 and c[0] == 0):
            continue
        x = int(min(c))
        for y in range(1, G.order):
            mem = _closure_members(G, [x, y])
            if mem.size == G.order:
                base = (x, y)
                break
        if base is not None:
            break
    if base is None:
        return None
    x, y = base
    elem_fps = [fps[cid[g]] for g in range(G.order)]
    cands = [h for h in range(1, G.order) if elem_fps[h] == elem_fps[y]]
    if len(cands) * G.order * 2 > NODE_BUDGET:
        raise ResourceCapError("automorphism search exceeds the node budget")
    # sigma fixes x, so it is inner exactly when some g centralizing x
    # conjugates y to sigma(y)
    conj_x = G.conjugate_all(x)
    inner_y = {int(v) for v in G.conjugate_all(y)[conj_x == x]}
    stab = []
    for y2 in cands:
        img = extend_by_generator_images(G, G, (x, y), (x, y2))
        if img is not None and np.unique(img).size == G.order:
            stab.append(GroupMap(G, G, img, inner=y2 in inner_y))
    return x, stab


def _bijections_by_images(G, H, gens, what):
    """Yield (choice, images) for every isomorphism G -> H that sends
    ``gens`` to ``choice``, trying elements of matching class
    fingerprint in order.  Before searching, refuses more than 4
    generators and a candidate space whose edge checks would exceed
    ``NODE_BUDGET``."""
    if len(gens) > 4:
        raise ResourceCapError(f"more than 4 generators; {what} search refused")
    fps_G = _elem_fps(G)
    fps_H = fps_G if H is G else _elem_fps(H)
    cand_lists = [[x for x in range(1, H.order) if fps_H[x] == fps_G[g]]
                  for g in gens]
    total = 1
    for c in cand_lists:
        total *= max(1, len(c))
    if total * G.order * len(gens) > NODE_BUDGET:
        raise ResourceCapError(f"{what} search exceeds the node budget")
    for choice in itertools.product(*cand_lists):
        img = extend_by_generator_images(G, H, gens, choice)
        if img is not None and np.unique(img).size == G.order:
            yield choice, img


def _aut_by_backtracking(G):
    gens = G.find_generating_set()
    found = list(_bijections_by_images(G, G, gens, "automorphism"))
    gen_tuples = {tuple(int(G.conjugate(g, t)) for g in gens) for t in range(G.order)}
    return [GroupMap(G, G, img, inner=choice in gen_tuples) for choice, img in found]


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
        pair = _generating_pair(G)
        if pair is not None:
            gens = pair
    for _, img in _bijections_by_images(G, H, gens, "isomorphism"):
        return GroupMap(G, H, img)
    return None


def is_isomorphic(G, H):
    """Whether find_isomorphism finds a map."""
    return find_isomorphism(G, H) is not None
