"""GroupMap plumbing: composition, inverse, homomorphism checks."""

import numpy as np
import pytest

import rbgroups as rb
from rbgroups.errors import InputFormatError
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
        assert phi.is_homomorphism(mode="full")


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
    assert not GroupMap(G, G, images).is_homomorphism(mode="full")


def test_antihomomorphism_inverse_map():
    G = rb.named_group("symmetric:3")
    inv_map = GroupMap(G, G, np.array([G.inv(g) for g in range(6)], dtype=np.int64))
    assert not inv_map.is_homomorphism(mode="full")        # S3 is non-abelian
    assert inv_map.is_homomorphism(mode="full", anti=True)


def test_sampled_mode_agrees_on_hom():
    G = rb.named_group("cyclic:12")
    doubling = GroupMap(G, G, np.array([(2 * g) % 12 for g in range(12)], dtype=np.int64))
    assert doubling.is_homomorphism(mode="full")
    assert doubling.is_homomorphism(mode="sampled")


@pytest.mark.parametrize("mode,samples", [("sampled", 0), ("sample", 50)])
def test_homomorphism_check_rejects_bad_mode_or_sample_count(mode, samples):
    G = rb.named_group("cyclic:4")
    not_hom = GroupMap(G, G, np.array([0, 1, 1, 1]))
    with pytest.raises(InputFormatError):
        not_hom.is_homomorphism(mode=mode, samples=samples)


def test_map_between_groups():
    G = rb.named_group("cyclic:6")
    H = rb.named_group("cyclic:3")
    proj = GroupMap(G, H, np.array([g % 3 for g in range(6)], dtype=np.int64))
    assert proj.is_homomorphism(mode="full")
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
