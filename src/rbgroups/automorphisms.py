"""Automorphism groups and isomorphism testing.

One image search serves both.  A candidate assignment of images to a
generating set either extends to a unique map (built by breadth-first
search over the Cayley graph, checking every edge for multiplicativity
on the way) or conflicts and dies.  Since the search checks all n*k
edges, a surviving bijection is a genuine isomorphism — no sampling
involved.  The search order depends only on the group and its
generators, so one pass (``_extend_batch``) extends a chunk of
candidates together, ``CHUNK_ENTRIES // n`` of them drawn lazily in
candidate order, and drops each at its first conflicting edge.  A
generator's candidates are the elements of its class fingerprint, and
an automorphism is flagged inner when some conjugation sends the
searched generators to the same images.

One Schreier search finds Aut(G), on search generators g_1..g_k: the
base (x, y) of G when it has one, else its stored generators.  Let A_i
fix g_1..g_i.  Walking i = k down to 1, the maps kept so far generate
A_i, the stabilizer of g_i in A_{i-1}; for each candidate c of g_i
outside the orbit of g_i under them, the search keeps the first
automorphism fixing g_1..g_{i-1} and sending g_i to c, so that the kept
maps then generate A_{i-1}.  Each level streams its (c, later images)
choices through the chunked pass, skipping a c once it joins the orbit,
so the kept maps are those a one-candidate-at-a-time walk keeps.  At
i = 1 the inner automorphisms at G's generators count as kept maps
too.  The final orbit of g_i has [A_{i-1} : A_i] points, so their
product is |Aut(G)|, which
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
from .groups import CHUNK_ENTRIES, _closure_members, _permutation_closure
from .maps import GroupMap

#: the most Cayley-edge checks an automorphism or isomorphism search may
#: plan before it starts; a larger search is refused
NODE_BUDGET = 10 ** 8


def _extend_batch(G, H, srcs, rows):
    """(idx, images): the positions of the rows of ``rows`` (one image in
    H per entry of ``srcs``, which must generate G) that extend to a map
    G -> H, ascending, and the image array of each such map.

    One breadth-first search over the Cayley graph serves every row: its
    frontier and ``seen`` mask depend only on G and ``srcs``.  Each step
    takes one generator s over the frontier and sets, or checks, the
    image of x s in every live row with one gather; a row dies at its
    first conflicting edge, and the pass stops once every row is dead.
    Every edge is checked for every surviving row, so a survivor is a
    full homomorphism.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(srcs))
    idx = np.arange(len(rows))
    img = np.zeros((G.order, len(rows)), dtype=np.int64)   # img[x, row]
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size and idx.size:
        nxt = []
        for k, s in enumerate(srcs):
            gs = G.col(int(s))[frontier]
            new = ~seen[gs]
            seen[gs] = True
            hs = H.mul_vec(img[frontier], rows[idx, k])
            img[gs[new]] = hs[new]
            ok = (img[gs] == hs).all(axis=0)
            if not ok.all():
                idx, img = idx[ok], img[:, ok]
            nxt.append(gs[new])
        frontier = np.concatenate(nxt) if nxt else frontier[:0]
    if not seen.all():
        idx, img = idx[:0], img[:, :0]
    return idx, np.ascontiguousarray(img.T)


def extend_by_generator_images(G, H, srcs, imgs):
    """The unique map G -> H with the given generator images, or None.

    ``srcs`` must generate G.  Every Cayley edge is checked, so a
    non-None result is a full homomorphism (bijective or not).  This is
    ``_extend_batch`` on one row.
    """
    idx, img = _extend_batch(G, H, srcs, [imgs])
    return img[0] if idx.size else None


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


def _elem_fps(G, fingerprints):
    classes, cid, fps = fingerprints
    return [fps[cid[x]] for x in range(G.order)]


def _base(G, fingerprints):
    """The base (x, y) of G, or None when G has none.

    x is the least element of the first non-identity conjugacy class
    that no automorphism can move (its class fingerprint is unique) and
    that generates G together with some y; y is the first such element.
    ``fingerprints`` is ``class_fingerprints(G)``.
    """
    classes, _, fps = fingerprints
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


def _refuse(G, gens, cand_lists, what):
    """Raise ResourceCapError for a search over more than 4 generators,
    or one whose candidate space would pass ``NODE_BUDGET`` edge checks."""
    if len(gens) > 4:
        raise ResourceCapError(f"more than 4 generators; {what} search refused")
    total = 1
    for c in cand_lists:
        total *= max(1, len(c))
    if total * G.order * len(gens) > NODE_BUDGET:
        raise ResourceCapError(f"{what} search exceeds the node budget")


def _extensions(G, H, gens, choices):
    """Yield (choice, images) for every tuple of ``choices`` that sends
    ``gens`` to a homomorphism G -> H, in order.  ``choices`` is drawn
    lazily, a chunk of ``CHUNK_ENTRIES // |G|`` tuples at a time, and the
    next chunk only once every result of the last one has been taken."""
    choices = iter(choices)
    size = max(1, CHUNK_ENTRIES // G.order)
    while chunk := list(itertools.islice(choices, size)):
        idx, imgs = _extend_batch(G, H, gens, chunk)
        for j, img in zip(idx, imgs):
            yield chunk[j], img


def _homomorphisms_by_images(G, H, gens, cand_lists, what):
    """Yield (choice, images) for every homomorphism G -> H that sends
    ``gens`` to ``choice``, with ``choice`` running over the product of
    ``cand_lists`` in order.  Refused by ``_refuse`` before searching."""
    _refuse(G, gens, cand_lists, what)
    yield from _extensions(G, H, gens, itertools.product(*cand_lists))


def _candidates(G, H, gens, fingerprints):
    """For each of ``gens``, the elements of H with its class fingerprint;
    ``fingerprints`` as for ``_base``."""
    fps_G = _elem_fps(G, fingerprints)
    fps_H = fps_G if H is G else _elem_fps(H, class_fingerprints(H))
    return [[x for x in range(1, H.order) if fps_H[x] == fps_G[g]] for g in gens]


def _search_start(G, H):
    """(gens, cands): the generators a search from G to H sends, G's
    base or else its generating set, and ``_candidates`` for them, with
    G's class fingerprints built once for both."""
    fingerprints = class_fingerprints(G)
    gens = _base(G, fingerprints) or G.find_generating_set()
    return gens, _candidates(G, H, gens, fingerprints)


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


def _level_choices(G, gens, cands, i, orbit):
    """The image tuples that level i of the search extends: gens[:i]
    pinned to themselves, each candidate c of gens[i] outside ``orbit``
    (read as it grows), then every choice for the later generators.
    Refused, once some c lies outside the orbit, as
    ``_homomorphisms_by_images`` refuses the pinned candidate lists of
    that c (their refusal does not depend on c)."""
    if any(c not in orbit for c in cands[i]):
        _refuse(G, gens, [[g] for g in gens[:i + 1]] + cands[i + 1:], "automorphism")
    for c in cands[i]:
        for tail in itertools.product(*cands[i + 1:]):
            if c in orbit:
                break
            yield (*gens[:i], c, *tail)


def _aut_search(G):
    """(flagged, maps, order): ``maps`` generate Aut(G), the inner
    automorphisms at G's generators first and then the maps the search
    of the module docstring keeps, without repeats; ``flagged(images)``
    is the automorphism with those images, flagged inner when some
    conjugation sends the search generators to the same images; and
    ``order`` is |Aut(G)|, the product over the levels of the final
    orbit sizes (orbit-stabilizer)."""
    gens, cands = _search_start(G, G)
    inner = [G.conjugation_map(g) for g in G.find_generating_set()]
    kept = []
    order = 1
    for i in reversed(range(len(gens))):
        also = [] if i else inner   # inner maps need not fix gens[:i]
        orbit = _orbit(gens[i], kept + also)
        choices = _level_choices(G, gens, cands, i, orbit)
        for choice, img in _extensions(G, G, gens, choices):
            # the first bijection for each c that is still outside the orbit
            if choice[i] in orbit or np.unique(img).size != G.order:
                continue
            kept.append(img)
            orbit |= _orbit(gens[i], kept + also)
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
    # uint16 holds every element index (orders are at most 10240), and
    # sorting its tobytes() keys gives the order of the int64 ones
    perms = _permutation_closure(np.arange(G.order, dtype=np.uint16),
                                 [a.images.astype(np.uint16) for a in gens])[0]
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
    gens, cands = _search_start(G, H)
    for _, img in _bijections_by_images(G, H, gens, cands, "isomorphism"):
        return GroupMap(G, H, img)
    return None


def is_isomorphic(G, H):
    """Whether find_isomorphism finds a map."""
    return find_isomorphism(G, H) is not None
