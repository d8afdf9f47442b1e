"""Automorphism groups and isomorphism search."""

import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

import rbgroups as rb
from rbgroups import automorphisms
from rbgroups.automorphisms import class_fingerprints, extend_by_generator_images
from rbgroups.errors import ResourceCapError


@pytest.mark.parametrize("ident,aut_order", [
    ("cyclic:6", 2),
    ("cyclic:8", 4),
    ("elemabelian:2:2", 6),        # GL(2, 2)
    ("elemabelian:2:3", 168),      # GL(3, 2)
    ("abelian:4x2", 8),
    ("symmetric:3", 6),
    ("dihedral:8", 8),
    ("quaternion:8", 24),
    ("alternating:4", 24),
    ("symmetric:4", 24),
    ("paper16", 32),
    ("alternating:5", 120),
    ("elemabelian:2:4", 20160),    # GL(4, 2)
    ("elemabelian:3:2", 48),       # GL(2, 3)
    ("abelian:4x4", 96),
])
def test_aut_orders(ident, aut_order):
    G = rb.named_group(ident)
    auts = rb.automorphism_group(G)
    assert len(auts) == aut_order


def test_aut_psl27():
    G = rb.named_group("psl2:7")
    auts = rb.automorphism_group(G)
    assert len(auts) == 336
    inner = sum(1 for a in auts if a.inner)
    assert inner == 168


def test_automorphisms_are_bijective_homs():
    G = rb.named_group("dihedral:8")
    for a in rb.automorphism_group(G):
        assert a.is_bijective()
        assert a.is_homomorphism()


def test_automorphisms_closed_under_composition():
    G = rb.named_group("quaternion:8")
    auts = rb.automorphism_group(G)
    keys = {a.key() for a in auts}
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(auts), size=(40, 2))
    for i, j in idx:
        assert auts[int(i)].compose(auts[int(j)]).key() in keys


def aut_by_backtracking(G):
    """Every automorphism of G, from every image of its stored
    generators that extends to a bijection, flagged inner when some
    conjugation sends the stored generators to the same images."""
    gens = G.find_generating_set()
    conj = [G.conjugate_all(g).tolist() for g in gens]
    inner = {tuple(v[t] for v in conj) for t in range(G.order)}
    cands = automorphisms._candidates(G, G, gens,
                                      automorphisms.class_fingerprints(G))
    return [rb.GroupMap(G, G, img, inner=choice in inner) for choice, img
            in automorphisms._bijections_by_images(G, G, gens, cands, "automorphism")]


# "name~seed" is the catalog group with its non-identity elements renumbered
@pytest.mark.parametrize("ident", [
    "cyclic:1", "cyclic:8", "cyclic:12", "abelian:4x2", "abelian:6x2",
    "elemabelian:2:3", "symmetric:3", "dihedral:8", "quaternion:8",
    "alternating:4", "dihedral:12", "symmetric:4", "paper16", "dihedral:16",
    "dihedral:24", "alternating:5", "psl2:4", "psl2:5",
    "paper16~5", "dihedral:24~1", "symmetric:4~4", "elemabelian:2:3~1",
])
def test_automorphism_group_matches_backtracking(ident, relabelled):
    # the Schreier search against the plain generator-image search
    G = relabelled(ident)
    got = {(a.key(), a.inner) for a in rb.automorphism_group(G)}
    want = {(a.key(), a.inner) for a in aut_by_backtracking(G)}
    assert got == want


# candidate rows aut_generators hands the batched image search, at most
# as many as the listing of every automorphism fixing the base point made
@pytest.mark.parametrize("ident,most", [
    ("psl2:7", 48), ("psl2:13", 168), ("psl2:23", 528),
    ("elemabelian:2:3", 343), ("paper16", 32),
])
def test_aut_generators_extension_count(ident, most, monkeypatch):
    G = rb.named_group(ident)
    rows = []
    real = automorphisms._extend_batch

    def spy(G, H, srcs, chunk):
        rows.extend(chunk)
        return real(G, H, srcs, chunk)

    monkeypatch.setattr(automorphisms, "_extend_batch", spy)
    rb.aut_generators(G)
    assert 0 < len(rows) <= most


def _oracle_rows(extend_one, G, H, srcs, rows):
    """(position, images) of each row the one-candidate oracle extends."""
    got = [(j, extend_one(G, H, srcs, r)) for j, r in enumerate(rows)]
    return [(j, img) for j, img in got if img is not None]


# (G, H): homomorphisms into another group, onto a relabelled copy, and
# endomorphisms; the rows mix random images with images of real maps
@pytest.mark.parametrize("g_id,h_id", [
    ("symmetric:4", "symmetric:3"), ("symmetric:4", "cyclic:2"),
    ("cyclic:6", "cyclic:3"), ("dihedral:8", "dihedral:8"),
    ("abelian:4x2", "abelian:4x2"), ("psl2:7", "psl2:7~3"),
    ("paper16", "paper16~5"), ("alternating:5", "psl2:4"),
])
def test_extend_batch_matches_one_candidate_oracle(g_id, h_id, relabelled, extend_one):
    G, H = relabelled(g_id), relabelled(h_id)
    srcs = G.find_generating_set()
    rng = np.random.default_rng(7)
    rows = [tuple(int(x) for x in rng.integers(0, H.order, size=len(srcs)))
            for _ in range(200)]
    rows += [(0,) * len(srcs)]
    phi = rb.find_isomorphism(G, H)
    if phi is not None:
        rows += [tuple(phi(s) for s in srcs)]
        rows += [tuple(phi(int(G.conjugation_map(t)[s])) for s in srcs)
                 for t in range(1, 6)]
    for chunk in (rows, rows[::-1], rows[:1]):
        idx, imgs = automorphisms._extend_batch(G, H, srcs, chunk)
        want = _oracle_rows(extend_one, G, H, srcs, chunk)
        assert idx.tolist() == [j for j, _ in want]
        assert all(np.array_equal(a, b) for a, (_, b) in zip(imgs, want))
    assert any(extend_one(G, H, srcs, r) is not None for r in rows)


def test_extend_batch_srcs_that_do_not_generate():
    G = rb.named_group("symmetric:3")
    idx, imgs = automorphisms._extend_batch(G, G, (1,), [(0,), (1,)])
    assert idx.size == 0 and imgs.shape == (0, 6)


@pytest.mark.parametrize("ident", ["psl2:13", "psl2:23"])
def test_homomorphism_stream_longer_than_one_chunk(ident, extend_one):
    # x pinned, every candidate for y: more rows than one chunk holds,
    # yielded in product order, as the oracle finds them one by one
    G = rb.named_group(ident)
    fps = automorphisms.class_fingerprints(G)
    x, y = automorphisms._base(G, fps)
    cands = [[x], automorphisms._candidates(G, G, (x, y), fps)[1]]
    assert len(cands[1]) > automorphisms.CHUNK_ENTRIES // G.order
    got = list(automorphisms._homomorphisms_by_images(G, G, (x, y), cands, "test"))
    want = [(c, img) for c in itertools.product(*cands)
            if (img := extend_one(G, G, (x, y), c)) is not None]
    assert [c for c, _ in got] == [c for c, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
    assert len(got) > 1


@pytest.mark.parametrize("ident,aut_order", [
    ("symmetric:4", 24),
    ("alternating:5", 120),
    ("psl2:4", 120),
    ("dihedral:12", 12),
    ("paper16", 32),
    ("elemabelian:2:3", 168),
    ("elemabelian:2:2", 6),
    ("cyclic:8", 4),
    ("elemabelian:2:4", 20160),
    ("elemabelian:3:2", 48),
    ("abelian:4x4", 96),
])
def test_aut_generators_generate(ident, aut_order):
    G = rb.named_group(ident)
    gens = rb.aut_generators(G)
    if ident == "elemabelian:2:3":
        # no base: one map per new orbit point, not all 168
        assert len(gens) <= 8
    # close the generator set by composition; must reach all of Aut(G)
    seen = {rb.identity_map(G).key(): rb.identity_map(G)}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                c = f.compose(g)
                if c.key() not in seen:
                    seen[c.key()] = c
                    nxt.append(c)
        frontier = nxt
    assert len(seen) == aut_order


def test_class_fingerprints_refinement():
    G = rb.named_group("psl2:7")
    classes, cid, fps = class_fingerprints(G)
    # the two classes of order-7 elements are swapped by an outer
    # automorphism and must share a fingerprint
    sevens = [i for i, c in enumerate(classes)
              if G.order_of(int(c[0])) == 7]
    assert len(sevens) == 2
    assert fps[sevens[0]] == fps[sevens[1]]


def test_extend_by_generator_images_rejects_non_hom():
    G = rb.named_group("symmetric:3")
    # sending a 3-cycle to a transposition cannot extend
    assert extend_by_generator_images(G, G, (2, 1), (1, 1)) is None


def test_extend_by_generator_images_builds_hom():
    G = rb.named_group("cyclic:6")
    H = rb.named_group("cyclic:3")
    img = extend_by_generator_images(G, H, (1,), (1,))
    assert img is not None
    for a in range(6):
        for b in range(6):
            assert img[G.mul(a, b)] == H.mul(int(img[a]), int(img[b]))


@pytest.mark.parametrize("a,b,expect", [
    ("psl2:4", "alternating:5", True),
    ("psl2:5", "alternating:5", True),
    ("psl2:9", "alternating:6", True),
    ("dihedral:8", "quaternion:8", False),
    ("cyclic:8", "abelian:4x2", False),
    ("abelian:6x2", "cyclic:12", False),
    ("symmetric:3", "cyclic:6", False),
    ("abelian:3x4", "cyclic:12", True),
])
def test_is_isomorphic(a, b, expect):
    assert rb.is_isomorphic(rb.named_group(a), rb.named_group(b)) is expect


def test_find_isomorphism_returns_valid_map():
    G = rb.named_group("psl2:4")
    H = rb.named_group("alternating:5")
    phi = rb.find_isomorphism(G, H)
    assert phi is not None
    assert phi.is_bijective()
    assert phi.is_homomorphism()


def test_find_isomorphism_honours_node_budget(monkeypatch):
    D8 = rb.named_group("dihedral:8")
    monkeypatch.setattr(automorphisms, "NODE_BUDGET", 1)
    with pytest.raises(ResourceCapError):
        rb.find_isomorphism(D8, D8)
    with pytest.raises(ResourceCapError):
        rb.is_isomorphic(D8, D8)


def test_find_isomorphism_refuses_five_generators():
    # 31^5 candidate tuples: refused before the scan starts
    E = rb.named_group("elemabelian:2:5")
    with pytest.raises(ResourceCapError):
        rb.find_isomorphism(E, E)


@pytest.mark.parametrize("call,what", [
    (rb.aut_generators, "automorphism"),
    (rb.automorphism_group, "automorphism"),
    (lambda E: rb.find_isomorphism(E, E), "isomorphism"),
])
def test_five_generator_refusal_message(call, what):
    E = rb.named_group("elemabelian:2:5")
    with pytest.raises(ResourceCapError) as err:
        call(E)
    assert str(err.value) == f"more than 4 generators; {what} search refused"


def test_node_budget_refusal_message(monkeypatch):
    G = rb.named_group("psl2:7")
    monkeypatch.setattr(automorphisms, "NODE_BUDGET", 1)
    with pytest.raises(ResourceCapError) as err:
        rb.aut_generators(G)
    assert str(err.value) == "automorphism search exceeds the node budget"
    with pytest.raises(ResourceCapError) as err:
        rb.find_isomorphism(G, G)
    assert str(err.value) == "isomorphism search exceeds the node budget"


def test_level_inside_the_orbit_is_not_refused(monkeypatch):
    # psl2:7's base point x is moved through its whole class by the inner
    # maps, so the level of x searches nothing: a budget that its pinned
    # lists would exceed is not checked there, only at the level of y
    G = rb.named_group("psl2:7")
    gens, cands = automorphisms._search_start(G, G)
    x = gens[0]
    assert set(cands[0]) <= {int(c) for c in G.conjugate_all(x)}
    want = [(a.key(), a.inner) for a in rb.aut_generators(G)]
    level_y = G.order * len(gens)      # one choice per candidate of y
    monkeypatch.setattr(automorphisms, "NODE_BUDGET", level_y)
    with pytest.raises(ResourceCapError, match="node budget"):
        automorphisms._refuse(G, gens, [[x]] + cands[1:], "automorphism")
    assert [(a.key(), a.inner) for a in rb.aut_generators(G)] == want
    monkeypatch.setattr(automorphisms, "NODE_BUDGET", level_y - 1)
    with pytest.raises(ResourceCapError, match="node budget"):
        rb.aut_generators(G)


def test_find_isomorphism_none_when_distinct():
    assert rb.find_isomorphism(rb.named_group("dihedral:8"),
                               rb.named_group("quaternion:8")) is None


def test_automorphism_group_refused_before_listing():
    # |Aut| is the product of the search's orbit sizes ...
    for ident in ("cyclic:1", "abelian:4x2", "paper16", "psl2:7"):
        G = rb.named_group(ident)
        assert automorphisms._aut_search(G)[2] == len(rb.automorphism_group(G))
    # ... so GL(3, 5), 1,488,000 maps of 125 entries, is refused unlisted
    E = rb.named_group("elemabelian:5:3")
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(ResourceCapError, match="1488000 automorphisms"):
            rb.automorphism_group(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 30
    assert peak < 20 * 2 ** 20


def _maps_digest(maps):
    h = hashlib.sha256()
    for a in maps:
        h.update(a.key())
        h.update(b"1" if a.inner else b"0")
    return h.hexdigest()[:16]


# (generator count, digest, automorphism count, digest) of aut_generators
# and automorphism_group: keys and inner flags in order, as first
# recorded; the generator columns were re-recorded when the search became
# one Schreier search, which keeps other generators of the same group
@pytest.mark.parametrize("ident,n_gens,gens_digest,n_auts,auts_digest", [
    ("cyclic:1", 0, "e3b0c44298fc1c14", 1, "918a9bbdc4900f7d"),
    ("cyclic:8", 3, "112076f9da80ea22", 4, "223b4b12bd0d26fd"),
    ("cyclic:12", 3, "56dad8562a3a79bd", 4, "13ccb8c60219798c"),
    ("abelian:4x2", 3, "61935455d0a31aaa", 8, "ed0ac5cdcc34e59a"),
    ("abelian:6x2", 4, "353e1d8074fd891b", 12, "f814d809a0a37ddc"),
    ("elemabelian:2:3", 5, "717586f29c1d2e5f", 168, "a5dbed93f3b1cc17"),
    ("symmetric:3", 3, "9cca7ab8fb02cab2", 6, "ac7fa2ab67a7c102"),
    ("dihedral:8", 3, "4c18d8cb62829793", 8, "56894e53cf24b2e1"),
    ("quaternion:8", 4, "3c34c73926a06518", 24, "5d2131618570cb91"),
    ("alternating:4", 4, "5064754814372b5a", 24, "bd297dc21009c06c"),
    ("dihedral:12", 3, "caaa01307bf0cc1c", 12, "ee8bee9c85fd960e"),
    ("symmetric:4", 3, "0579c982c978931f", 24, "dc87006de79d43e2"),
    ("paper16", 5, "105f4631b9bb0c2a", 32, "3eb968601dd01afc"),
    ("dihedral:16", 4, "826305b2708af123", 32, "f4f2e3750053284b"),
    ("dihedral:24", 4, "ac071fcce90c420a", 48, "bd263f44968a2acf"),
    ("alternating:5", 5, "1f5063f1762e57d5", 120, "f8fa1ee6f16c54e8"),
    ("psl2:4", 5, "176e2c222f48f598", 120, "6fc7a2ffbff3df82"),
    ("psl2:5", 4, "2fb720743e00c1b4", 120, "755dfadbfb6e27e4"),
    ("psl2:7", 5, "f2bb5cf90553f8ff", 336, "be088a6d0ef08491"),
    ("psl2:8", 6, "8c7e9731ec269ad9", 1512, "c07ace3f954e1503"),
    ("psl2:9", 6, "f89abfe76e65ecd6", 1440, "6928a971aac01c96"),
    ("psl2:11", 6, "07e4c84187e89f33", 1320, "ff337af390020425"),
    ("psl2:13", 6, "f44626c3fc1d948b", 2184, "0ba3327839a3b2b3"),
])
def test_automorphism_outputs_frozen(ident, n_gens, gens_digest, n_auts, auts_digest):
    G = rb.named_group(ident)
    gens = rb.aut_generators(G)
    auts = rb.automorphism_group(G)
    assert (len(gens), _maps_digest(gens)) == (n_gens, gens_digest)
    assert (len(auts), _maps_digest(auts)) == (n_auts, auts_digest)


def test_find_isomorphism_without_base_uses_stored_generators(monkeypatch):
    # paper16 has no base; given three stored generators, the search runs
    # on all three
    P = rb.named_group("paper16")
    G = rb.FiniteGroup.from_table(P.mul_block(np.arange(16), np.arange(16)),
                                  name="paper16-3gens", gens=(1, 4, 8))
    assert G.find_generating_set() == (1, 4, 8)
    assert automorphisms._base(G, automorphisms.class_fingerprints(G)) is None
    searched = []
    real = automorphisms._bijections_by_images

    def spy(G, H, gens, *args):
        searched.append(tuple(gens))
        return real(G, H, gens, *args)

    monkeypatch.setattr(automorphisms, "_bijections_by_images", spy)
    for H in (G, P):
        phi = rb.find_isomorphism(G, H)
        assert phi is not None
        assert phi.is_bijective()
        assert phi.is_homomorphism()
    assert searched == [(1, 4, 8), (1, 4, 8)]


def test_searches_build_each_groups_class_fingerprints_once(monkeypatch):
    built = []
    real = automorphisms.class_fingerprints
    monkeypatch.setattr(automorphisms, "class_fingerprints",
                        lambda G: built.append(G) or real(G))
    G, H = rb.named_group("dihedral:8"), rb.named_group("dihedral:8")
    assert G is not H
    for _ in range(2):
        built.clear()
        assert rb.find_isomorphism(G, H) is not None
        assert built == [G, H]
    built.clear()
    rb.aut_generators(G)
    assert built == [G]
