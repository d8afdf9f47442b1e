"""GroupMap plumbing: composition, inverse, homomorphism checks."""

import numpy as np
import pytest

import rbgroups as rb
from rbgroups.maps import GroupMap


def test_identity_map():
    G = rb.named_group("symmetric:3")
    ident = rb.identity_map(G)
    assert ident.is_bijective()
    assert ident.is_homomorphism()
    assert list(ident.images) == list(range(6))
    assert ident(3) == 3


def test_inner_automorphism_formula():
    G = rb.named_group("symmetric:4")
    for g in [1, 5, 17]:
        phi = rb.inner_automorphism(G, g)
        assert phi.inner
        for x in range(G.order):
            assert phi(x) == G.mul(G.mul(G.inv(g), x), g)
        assert phi.is_homomorphism()


def test_compose_and_inverse():
    G = rb.named_group("dihedral:8")
    a = rb.inner_automorphism(G, 1)
    b = rb.inner_automorphism(G, 2)
    ab = a.compose(b)
    for x in range(8):
        assert ab(x) == a(b(x))
    inv = a.inverse()
    assert list(inv.compose(a).images) == list(range(8))
    assert list(a.compose(inv).images) == list(range(8))


def test_compose_tracks_inner_flag():
    G = rb.named_group("dihedral:8")
    a = rb.inner_automorphism(G, 3)
    assert a.compose(a).inner is True


def test_is_homomorphism_detects_failure():
    G = rb.named_group("symmetric:3")
    # a transposition of two non-identity points is almost never a hom
    images = np.array([0, 2, 1, 3, 4, 5], dtype=np.int64)
    assert not GroupMap(G, G, images).is_homomorphism()


def test_antihomomorphism_inverse_map():
    G = rb.named_group("symmetric:3")
    inv_map = GroupMap(G, G, np.array([G.inv(g) for g in range(6)], dtype=np.int64))
    assert not inv_map.is_homomorphism()        # S3 is non-abelian
    assert inv_map.is_homomorphism(anti=True)


def test_map_between_groups():
    G = rb.named_group("cyclic:6")
    H = rb.named_group("cyclic:3")
    proj = GroupMap(G, H, np.array([g % 3 for g in range(6)], dtype=np.int64))
    assert proj.is_homomorphism()
    assert not proj.is_bijective()


def test_apply_vector():
    G = rb.named_group("cyclic:6")
    phi = rb.inner_automorphism(G, 2)
    v = np.array([0, 1, 5])
    assert list(phi.apply(v)) == [int(phi(int(x))) for x in v]


def test_key_is_stable():
    G = rb.named_group("cyclic:4")
    a = rb.identity_map(G)
    b = rb.identity_map(G)
    assert a.key() == b.key()


def _row_oracle(phi, anti=False):
    """phi(x y) = phi(x) phi(y) (phi(y) phi(x) when ``anti``), one row
    x at a time."""
    G, H, img = phi.source, phi.target, phi.images
    if img[0] != 0:
        return False
    for x in range(G.order):
        rhs = H.col(img[x])[img] if anti else H.row(img[x])[img]
        if not np.array_equal(img[G.row(x)], rhs):
            return False
    return True


def _map_cases():
    S3, S4 = rb.named_group("symmetric:3"), rb.named_group("symmetric:4")
    C4, C6, C12 = (rb.named_group(f"cyclic:{n}") for n in (4, 6, 12))
    P, op = rb.paper16_fixture()
    yield rb.identity_map(S3)
    for g in [1, 5, 17]:
        yield rb.inner_automorphism(S4, g)
    yield GroupMap(S3, S3, np.array([0, 2, 1, 3, 4, 5]))
    yield GroupMap(S3, S3, S3.inverse)
    yield GroupMap(C12, C12, np.array([(2 * g) % 12 for g in range(12)]))
    yield GroupMap(C4, C4, np.array([0, 1, 1, 1]))
    yield GroupMap(C6, rb.named_group("cyclic:3"), np.array([g % 3 for g in range(6)]))
    yield GroupMap(P, P, op.images)
    yield rb.find_isomorphism(rb.named_group("psl2:4"), rb.named_group("alternating:5"))
    for a in rb.automorphism_group(rb.named_group("dihedral:8")):
        yield a
    for ident in ("cyclic:4", "cyclic:6", "cyclic:8", "abelian:4x2"):
        G = rb.named_group(ident)
        for op in rb.enumerate_rb(G):
            yield GroupMap(G, G, op.images)
    for G in (S4, P):
        for i, a in enumerate(rb.automorphism_group(G)):
            yield a
            broken = a.images.copy()
            x = 1 + i % (G.order - 1)
            broken[x] = (broken[x] + 1) % G.order
            yield GroupMap(G, G, broken)


def test_generator_edge_check_matches_row_oracle():
    verdicts = set()
    for phi in _map_cases():
        for anti in (False, True):
            got = phi.is_homomorphism(anti=anti)
            assert got == _row_oracle(phi, anti), (phi, anti)
            verdicts.add(got)
    assert verdicts == {False, True}
