"""Catalog ids, projective groups, the order-16 fixture, JSON input."""

import subprocess
import sys

import numpy as np
import pytest

import rbgroups as rb
from rbgroups.errors import InputFormatError, OutOfScaleError, ResourceCapError
from rbgroups.groups import FiniteGroup


@pytest.mark.parametrize("ident,order", [
    ("cyclic:1", 1), ("cyclic:12", 12),
    ("elemabelian:2:3", 8), ("elemabelian:3:2", 9),
    ("abelian:4x2", 8), ("abelian:6x2", 12),
    ("dihedral:6", 6), ("dihedral:8", 8), ("dihedral:24", 24),
    ("quaternion:8", 8),
    ("symmetric:3", 6), ("symmetric:4", 24), ("symmetric:5", 120),
    ("alternating:4", 12), ("alternating:5", 60),
    ("paper16", 16),
])
def test_orders(ident, order):
    assert rb.named_group(ident).order == order


@pytest.mark.parametrize("q,order", [
    (4, 60), (5, 60), (7, 168), (8, 504), (9, 360), (11, 660), (13, 1092),
])
def test_psl2_orders(q, order):
    G = rb.named_group(f"psl2:{q}")
    assert G.order == order
    assert not G.is_abelian()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_psl2_simple(q):
    assert rb.is_simple(rb.named_group(f"psl2:{q}"))


@pytest.mark.parametrize("ident,simple", [
    ("cyclic:7", True), ("cyclic:6", False), ("alternating:5", True),
    ("symmetric:4", False), ("paper16", False), ("alternating:4", False),
])
def test_is_simple_small(ident, simple):
    assert rb.is_simple(rb.named_group(ident)) is simple


def _lattice_is_simple(G):
    """No subgroup strictly between 1 and G is normal, by a scan of the
    whole lattice."""
    if G.order == 1:
        return False
    return not any(1 < s.order < G.order and rb.is_normal(G, s)
                   for s in rb.all_subgroups(G))


@pytest.mark.parametrize("ident", [
    *(f"psl2:{q}" for q in (4, 5, 7, 8, 9, 11, 13)),
    "cyclic:7", "cyclic:6", "alternating:5", "symmetric:4", "paper16",
    "alternating:4",
])
def test_is_simple_classes_matches_lattice_oracle(ident):
    G = rb.named_group(ident)
    assert rb.is_simple(G) == _lattice_is_simple(G)


def test_exceptional_isomorphisms():
    a5 = rb.named_group("alternating:5")
    assert rb.is_isomorphic(rb.named_group("psl2:4"), a5)
    assert rb.is_isomorphic(rb.named_group("psl2:5"), a5)
    a6 = rb.named_group("alternating:6")
    assert rb.is_isomorphic(rb.named_group("psl2:9"), a6)


def test_paper16_presentation():
    # G = <a, b, c | a^4 = b^2 = c^2 = e, ab = ba, cb = bc, c a c = a b>
    # with element a^i b^j c^k encoded as i + 4 j + 8 k
    G = rb.named_group("paper16")
    a, b, c = 1, 4, 8
    e = 0
    assert G.power(a, 4) == e
    assert G.power(b, 2) == e
    assert G.power(c, 2) == e
    assert G.mul(a, b) == G.mul(b, a)
    assert G.mul(c, b) == G.mul(b, c)
    conj = G.mul(G.mul(G.inv(c), a), c)
    assert conj == G.mul(a, b)
    assert rb.closure(G, [a, b, c]).order == 16
    # centre is <a^2, b>
    assert sorted(int(z) for z in G.center()) == [0, 2, 4, 6]


def test_unknown_ids_rejected():
    for ident in ["", "cyclic", "cyclic:0", "psl2:6", "psl2:3", "nope:5",
                  "abelian:"]:
        with pytest.raises(InputFormatError):
            rb.named_group(ident)


def test_psl2_requires_prime_power():
    with pytest.raises(InputFormatError):
        rb.named_group("psl2:12")


@pytest.mark.parametrize("ident,order", [
    ("psl2:59", 102660),
    ("psp6:2", 1451520),
    ("g2:3", 3 ** 6 * (3 ** 6 - 1) * (3 ** 2 - 1)),
    ("f4:2", 2 ** 24 * (2 ** 12 - 1) * (2 ** 8 - 1) * (2 ** 6 - 1) * (2 ** 2 - 1)),
    ("3d4:2", 2 ** 8 * (2 ** 8 + 2 ** 4 + 1) * (2 ** 6 - 1) * (2 ** 2 - 1)),
    ("2g2:27", 27 ** 3 * (27 ** 3 + 1) * 26),
])
def test_out_of_scale_entries(ident, order):
    entry = rb.out_of_scale_entry(ident)
    assert entry is not None
    assert entry["id"] == ident
    assert entry["order"] == order
    assert entry["status"] == "out of desk scale"
    assert entry["reason"]
    with pytest.raises(OutOfScaleError):
        rb.named_group(ident)


def test_catalog_id_over_cap_refused_before_building(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("table built for a refused id")
    monkeypatch.setattr(FiniteGroup, "from_table", no_table)
    monkeypatch.setattr(FiniteGroup, "from_permutations", no_table)
    for ident in ["cyclic:4000", "dihedral:4000", "abelian:100x40",
                  "elemabelian:2:12", "psl2:23", "symmetric:6",
                  "alternating:6"]:
        with pytest.raises(OutOfScaleError):
            rb.group_from_json(ident, order_cap=10)


@pytest.mark.parametrize("ident", ["elemabelian:1:100000000",
                                   "elemabelian:0:5", "elemabelian:2:0",
                                   "symmetric:8", "alternating:2",
                                   "abelian:-1x-1", "abelian:-2x-2"])
def test_catalog_bad_family_parameter_refused_from_id(monkeypatch, ident):
    def no_build(*args, **kwargs):
        raise AssertionError("group built for a bad id")
    monkeypatch.setattr("rbgroups.catalog._abelian", no_build)
    monkeypatch.setattr(FiniteGroup, "from_permutations", no_build)
    with pytest.raises(InputFormatError):
        rb.named_group(ident)


@pytest.mark.parametrize("ident", ["cyclic:100000", "elemabelian:3:1000000000"])
def test_catalog_id_past_dense_bound_refused(ident):
    with pytest.raises(ResourceCapError):
        rb.named_group(ident)


def test_out_of_scale_entry_none_for_catalog_ids():
    assert rb.out_of_scale_entry("cyclic:6") is None
    assert rb.out_of_scale_entry("psl2:7") is None


def test_group_from_json_cayley_roundtrip():
    G = rb.named_group("symmetric:3")
    obj = {"cayley": [[int(G.mul(g, h)) for h in range(6)] for g in range(6)]}
    H = rb.group_from_json(obj)
    assert H.order == 6
    assert rb.is_isomorphic(G, H)


def test_group_from_json_named():
    H = rb.group_from_json({"named": "dihedral:8"})
    assert H.order == 8


def test_group_from_json_permutations():
    H = rb.group_from_json({"permutations": {"degree": 3,
                                             "generators": [[1, 0, 2], [1, 2, 0]]}})
    assert H.order == 6


def test_group_from_json_rejects_garbage():
    with pytest.raises(InputFormatError):
        rb.group_from_json({"cayley": [[0, 1], [1, 1]]})
    with pytest.raises(InputFormatError):
        rb.group_from_json({})
    with pytest.raises(InputFormatError):
        rb.group_from_json({"permutations": {"degree": 3}})


def test_cayley_input_over_cap_refused_before_building(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("table built for a refused cayley input")
    monkeypatch.setattr(FiniteGroup, "from_table", no_table)
    table = [[(g + h) % 11 for h in range(11)] for g in range(11)]
    with pytest.raises(OutOfScaleError):
        rb.group_from_json({"cayley": table}, order_cap=10)


_PEAK_RSS = """
import resource, sys
import rbgroups as rb
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
G = rb.named_group(sys.argv[1])
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(grown * 1024, G._table.nbytes)
"""


@pytest.mark.parametrize("ident", ["cyclic:4096", "dihedral:4096", "abelian:64x64"])
def test_catalog_table_built_at_table_width(ident):
    # peak RSS above a bare import stays near the one uint16 table: no
    # int64 table, no converted copy
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, ident],
                          capture_output=True, text=True, check=True)
    grown, table_bytes = map(int, proc.stdout.split())
    assert table_bytes == 4096 ** 2 * 2
    assert grown < 3 * table_bytes
