"""Automorphism groups and isomorphism testing.

One image search serves both.  A candidate assignment of images to a
generating set either extends to a unique map (built by breadth-first
search over the Cayley graph, checking every edge for multiplicativity
on the way) or conflicts and dies.  Since the search checks all n*k
edges, a surviving bijection is a genuine isomorphism — no sampling
involved.  A generator's candidates are the elements of its class
fingerprint, and an automorphism is flagged inner when some conjugation
sends the searched generators to the same images.

One Schreier search finds Aut(G), on search generators g_1..g_k: the
base (x, y) of G when it has one, else its stored generators.  Let A_i
fix g_1..g_i.  Walking i = k down to 1, the maps kept so far generate
A_i, the stabilizer of g_i in A_{i-1}; for each candidate c of g_i
outside the orbit of g_i under them, the search keeps the first
automorphism fixing g_1..g_{i-1} and sending g_i to c, so that the kept
maps then generate A_{i-1}.  At i = 1 the inner automorphisms at G's
generators count as kept maps too.  The final orbit of g_i has
[A_{i-1} : A_i] points, so their product is |Aut(G)|, which
``automorphism_group`` bounds before it lists the closure
(``groups._permutation_closure``).  The base is a pair (x, y) with
<x, y> = G and x in a conjugacy class whose class fingerprint no other
class shares.  It only picks the search generators (conjugation then
reaches every candidate of x), for the isomorphism search too.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ResourceCapError
from .groups import _closure_members, _permutation_closure
from .maps import GroupMap

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


def _candidates(G, H, gens):
    """For each of ``gens``, the elements of H with its class fingerprint."""
    fps_G = _elem_fps(G)
    fps_H = fps_G if H is G else _elem_fps(H)
    return [[x for x in range(1, H.order) if fps_H[x] == fps_G[g]] for g in gens]


def _bijections_by_images(G, H, gens, cand_lists, what):
    """Yield (choice, images) for every isomorphism G -> H that sends
    ``gens`` to ``choice``, with ``choice`` running over the product of
    ``cand_lists`` in order; refused as ``_homomorphisms_by_images``
    refuses."""
    for choice, img in _homomorphisms_by_images(G, H, gens, cand_lists, what):
        if np.unique(img).size == G.order:
            yield choice, img


def _orbit(point, maps):
    """The orbit of ``point`` under the group generated by the image
    arrays ``maps``."""
    orbit, frontier = {point}, {point}
    while frontier:
        frontier = {int(a[p]) for p in frontier for a in maps} - orbit
        orbit |= frontier
    return orbit


def _aut_search(G):
    """(flagged, maps, order): ``maps`` generate Aut(G), the inner
    automorphisms at G's generators first and then the maps the search
    of the module docstring keeps, without repeats; ``flagged(images)``
    is the automorphism with those images, flagged inner when some
    conjugation sends the search generators to the same images; and
    ``order`` is |Aut(G)|, the product over the levels of the final
    orbit sizes (orbit-stabilizer)."""
    gens = _base(G) or G.find_generating_set()
    cands = _candidates(G, G, gens)
    inner = [G.conjugation_map(g) for g in G.find_generating_set()]
    kept = []
    order = 1
    for i in reversed(range(len(gens))):
        also = [] if i else inner   # inner maps need not fix gens[:i]
        orbit = _orbit(gens[i], kept + also)
        for c in cands[i]:
            if c in orbit:
                continue
            pinned = [[g] for g in gens[:i]] + [[c]] + cands[i + 1:]
            for _, img in _bijections_by_images(G, G, gens, pinned, "automorphism"):
                kept.append(img)
                orbit = _orbit(gens[i], kept + also)
                break
        order *= len(orbit)
    conj = [G.conjugate_all(g).tolist() for g in gens]
    inner_images = {tuple(v[t] for v in conj) for t in range(G.order)}

    def flagged(img):
        return GroupMap(G, G, img,
                        inner=tuple(int(img[g]) for g in gens) in inner_images)

    maps = {img.tobytes(): flagged(img) for img in inner + kept}
    return flagged, list(maps.values()), order


def automorphism_group(G):
    """Every automorphism of G as a GroupMap with an ``inner`` flag,
    sorted by image array: the closure of ``aut_generators``.  Refused
    with ResourceCapError, before anything is listed, when the list
    would hold more than ``NODE_BUDGET`` entries (|Aut(G)|·|G|)."""
    flagged, gens, order = _aut_search(G)
    if order * G.order > NODE_BUDGET:
        raise ResourceCapError(
            f"{order} automorphisms of a group of order {G.order} exceed "
            "the node budget")
    perms = _permutation_closure(np.arange(G.order, dtype=np.int64),
                                 [a.images for a in gens])[0]
    return [flagged(p) for p in sorted(perms, key=np.ndarray.tobytes)]


def aut_generators(G):
    """A small (not minimal) generating collection of Aut(G): the inner
    automorphisms at G's generators, then one automorphism for each new
    orbit point of the search (module docstring)."""
    return _aut_search(G)[1]


def find_isomorphism(G, H):
    """An isomorphism G -> H as a GroupMap, or None, by generator-image
    backtracking; ResourceCapError when the search is refused."""
    if G.order != H.order or G.fingerprint() != H.fingerprint():
        return None
    gens = _base(G) or G.find_generating_set()
    cands = _candidates(G, H, gens)
    for _, img in _bijections_by_images(G, H, gens, cands, "isomorphism"):
        return GroupMap(G, H, img)
    return None


def is_isomorphic(G, H):
    """Whether find_isomorphism finds a map."""
    return find_isomorphism(G, H) is not None
