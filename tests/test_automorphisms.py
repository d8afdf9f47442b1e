"""Automorphism groups and isomorphism search."""

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
        assert a.is_homomorphism(mode="full")


def test_automorphisms_closed_under_composition():
    G = rb.named_group("quaternion:8")
    auts = rb.automorphism_group(G)
    keys = {a.key() for a in auts}
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(auts), size=(40, 2))
    for i, j in idx:
        assert auts[int(i)].compose(auts[int(j)]).key() in keys


@pytest.mark.parametrize("ident", [
    "cyclic:1", "cyclic:8", "cyclic:12", "abelian:4x2", "abelian:6x2",
    "elemabelian:2:3", "symmetric:3", "dihedral:8", "quaternion:8",
    "alternating:4", "dihedral:12", "symmetric:4", "paper16", "dihedral:16",
    "dihedral:24", "alternating:5", "psl2:4", "psl2:5",
])
def test_automorphism_group_matches_backtracking(ident):
    # the stabilizer decomposition against the plain generator-image search
    G = rb.named_group(ident)
    got = {(a.key(), a.inner) for a in rb.automorphism_group(G)}
    want = {(a.key(), a.inner)
            for a in automorphisms._aut_by_backtracking(G)}
    assert got == want


@pytest.mark.parametrize("ident,aut_order", [
    ("symmetric:4", 24),
    ("alternating:5", 120),
    ("psl2:4", 120),
    ("dihedral:12", 12),
    ("paper16", 32),
    ("elemabelian:2:3", 168),
    ("elemabelian:2:2", 6),
    ("cyclic:8", 4),
])
def test_aut_generators_generate(ident, aut_order):
    G = rb.named_group(ident)
    gens = rb.aut_generators(G)
    if ident == "elemabelian:2:3":
        # no base: of the 168 backtracked maps only those outside the
        # group generated so far are kept
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


def test_classification_needs_no_backtracking(monkeypatch):
    # psl2:4 has a base pair, so its equivalence action never falls
    # back to the generator-image search
    def refuse(*args, **kwargs):
        raise AssertionError("backtracking search reached")
    monkeypatch.setattr(automorphisms, "_aut_by_backtracking", refuse)
    assert rb.classify_splitting(rb.named_group("psl2:4")).s == 1


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
    assert phi.is_homomorphism(mode="full")


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


def test_find_isomorphism_none_when_distinct():
    assert rb.find_isomorphism(rb.named_group("dihedral:8"),
                               rb.named_group("quaternion:8")) is None
