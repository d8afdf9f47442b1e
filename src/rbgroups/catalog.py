"""Named group catalog and JSON group references.

Ids: ``cyclic:n``, ``dihedral:n`` (n = order, even >= 4),
``elemabelian:p:m``, ``abelian:d1xd2x...``, ``symmetric:n`` and
``alternating:n`` for n <= 7, ``quaternion:8``, ``paper16`` and
``psl2:q`` for q in {4, 5, 7, 8, 9, 11, 13, 23}.

A second registry holds recognized-but-deliberately-excluded targets
(psl2:59, psp6:2 and the exceptional families); asking for those raises
an error that carries an explicit "out of desk scale" report entry.
"""

from __future__ import annotations

from math import factorial, gcd, prod

import numpy as np

from .errors import InputFormatError, OutOfScaleError, ResourceCapError
from .fields import field as _gf
from .groups import MAX_DENSE_ORDER, FiniteGroup

_PSL2_FIELDS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
                11: (11, 1), 13: (13, 1), 23: (23, 1)}
#: the parameters the permutation-built families accept
_FAMILY_PARAMS = {"psl2": _PSL2_FIELDS, "symmetric": range(1, 8),
                  "alternating": range(3, 8)}


def _cyclic(n):
    if n < 1:
        raise InputFormatError("empty table")
    # uint16 throughout: a sum of two entries stays below 2 * MAX_DENSE_ORDER < 2^16
    ar = np.arange(n, dtype=np.uint16)
    table = np.add.outer(ar, ar)
    np.remainder(table, n, out=table)
    return FiniteGroup.from_table(table, name=f"cyclic:{n}", gens=(1 % n,) if n > 1 else ())


def _abelian(dims):
    dims = list(dims)
    n = 1
    for d in dims:
        n *= d
    radix = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        radix[i] = radix[i + 1] * dims[i + 1]
    vecs = np.array([[(v // radix[i]) % dims[i] for i in range(len(dims))]
                     for v in range(n)])
    table = np.zeros((n, n), dtype=np.uint16)
    for a in range(n):
        s = (vecs[a] + vecs) % np.array(dims)
        table[a] = s @ radix
    gens = tuple(int(radix[i]) for i in range(len(dims)) if dims[i] > 1)
    name = "abelian:" + "x".join(str(d) for d in dims)
    return FiniteGroup.from_table(table, name=name, gens=gens)


def _dihedral(n):
    if n % 2 or n < 4:
        raise InputFormatError("dihedral order must be even and >= 4")
    m = n // 2
    idx = np.arange(n)
    i1, s1 = idx % m, idx // m
    table = np.zeros((n, n), dtype=np.uint16)
    for g in range(n):
        i, s = g % m, g // m
        sign = -1 if s else 1
        table[g] = ((i + sign * i1) % m) + ((s ^ s1) * m)
    return FiniteGroup.from_table(table, name=f"dihedral:{n}", gens=(1, m))


def _quaternion():
    table = np.zeros((8, 8), dtype=np.int64)
    for g in range(8):
        i, j = g % 4, g // 4
        for h in range(8):
            i2, j2 = h % 4, h // 4
            sign = -1 if j else 1
            ii = (i + sign * i2 + 2 * (j & j2)) % 4
            table[g, h] = ii + 4 * (j ^ j2)
    return FiniteGroup.from_table(table, name="quaternion:8", gens=(1, 4))


def _paper16():
    # normal form a^i b^j c^k -> index i + 4j + 8k, with
    # (i1,j1,k1)(i2,j2,k2) = (i1+i2 mod 4, j1+j2+k1*i2 mod 2, k1+k2 mod 2)
    table = np.zeros((16, 16), dtype=np.int64)
    for g in range(16):
        i1, j1, k1 = g % 4, (g // 4) % 2, g // 8
        for h in range(16):
            i2, j2, k2 = h % 4, (h // 4) % 2, h // 8
            i = (i1 + i2) % 4
            j = (j1 + j2 + k1 * i2) % 2
            k = (k1 + k2) % 2
            table[g, h] = i + 4 * j + 8 * k
    return FiniteGroup.from_table(table, name="paper16", gens=(1, 8))


def _symmetric(n):
    if n == 1:
        return FiniteGroup.from_table([[0]], name="symmetric:1")
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cyc = list(range(1, n)) + [0]
    return FiniteGroup.from_permutations(n, [swap, cyc], name=f"symmetric:{n}")


def _alternating(n):
    three = list(range(n))
    three[0], three[1], three[2] = 1, 2, 0
    if n % 2:
        rot = list(range(1, n)) + [0]
    else:
        rot = [0] + list(range(2, n)) + [1]
    return FiniteGroup.from_permutations(n, [three, rot], name=f"alternating:{n}")


def _psl2(q):
    p, m = _PSL2_FIELDS[q]
    F = _gf(p, m)
    inf = q
    t = [int(F.add[x, 1]) for x in range(q)] + [inf]
    # scaling must have square determinant, so odd q scales by primitive^2
    k = F.primitive if q % 2 == 0 else int(F.mul[F.primitive, F.primitive])
    sc = [int(F.mul[x, k]) for x in range(q)] + [inf]
    iv = [0] * (q + 1)
    iv[0], iv[inf] = inf, 0
    for x in range(1, q):
        iv[x] = int(F.neg[F.inv[x]])
    G = FiniteGroup.from_permutations(q + 1, [t, sc, iv], name=f"psl2:{q}")
    expected = q * (q * q - 1) // gcd(2, q - 1)
    if G.order != expected:
        raise AssertionError(
            f"psl2:{q} construction closed to order {G.order}, expected {expected}")
    return G


def _out_of_scale(ident):
    parts = ident.split(":")
    fam = parts[0]
    if ident == "psl2:59":
        return OutOfScaleError(ident, "full verification budget excludes q = 59",
                               order=59 * (59 * 59 - 1) // 2)
    if ident == "psp6:2":
        return OutOfScaleError(ident, "documentation-scale example only", order=1451520)
    try:
        q = int(parts[1])
    except (IndexError, ValueError):
        return None
    if fam == "g2":
        return OutOfScaleError(ident, "exceptional family, desk scale excluded",
                               order=q**6 * (q**6 - 1) * (q**2 - 1))
    if fam == "f4":
        return OutOfScaleError(ident, "exceptional family, desk scale excluded",
                               order=q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1))
    if fam == "3d4":
        return OutOfScaleError(ident, "exceptional family, desk scale excluded",
                               order=q**8 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1))
    if fam == "2g2":
        return OutOfScaleError(ident, "exceptional family, desk scale excluded",
                               order=q**3 * (q**3 + 1) * (q - 1))
    return None


def out_of_scale_entry(ident):
    """The declaration entry for an out-of-scale id, or None if the id
    is not one of the declared families."""
    exc = _out_of_scale(ident.strip().lower())
    return exc.report_entry() if exc is not None else None


def _id_order(parts):
    """The order a catalog id names, or None for ids without a family
    parameter; an out-of-range parameter raises InputFormatError."""
    if parts[0] in ("cyclic", "dihedral") and len(parts) == 2:
        return int(parts[1])
    if parts[0] == "elemabelian" and len(parts) == 3:
        p, m = int(parts[1]), int(parts[2])
        if p < 2 or m < 1:
            raise InputFormatError("elemabelian:p:m needs p >= 2 and m >= 1")
        # 2^64 is past every cap already; keeps p^m cheap for a huge m
        return p ** min(m, 64)
    if parts[0] == "abelian" and len(parts) == 2:
        dims = [int(d) for d in parts[1].split("x")]
        if min(dims) < 1:
            raise InputFormatError("abelian:d1xd2... needs every factor >= 1")
        return prod(dims)
    if parts[0] in _FAMILY_PARAMS and len(parts) == 2:
        n = int(parts[1])
        if n not in _FAMILY_PARAMS[parts[0]]:
            raise InputFormatError(f"{parts[0]}:{n} is not in the catalog")
        if parts[0] == "psl2":
            return n * (n * n - 1) // gcd(2, n - 1)
        return factorial(n) // (2 if parts[0] == "alternating" else 1)
    return None


def _within_cap(order, ident, order_cap):
    """Refuse an order above ``order_cap`` (OutOfScaleError) or above
    ``MAX_DENSE_ORDER`` (ResourceCapError)."""
    if order_cap is not None and order > order_cap:
        raise OutOfScaleError(ident, f"order {order} exceeds cap {order_cap}")
    if order > MAX_DENSE_ORDER:
        raise ResourceCapError(
            f"{ident}: order {order} exceeds the dense table bound {MAX_DENSE_ORDER}")


def named_group(ident: str, *, order_cap=None) -> FiniteGroup:
    """Resolve a catalog id to a group; see the module docstring for the grammar.

    Every id is refused from the order it names, before any table is
    built: OutOfScaleError above ``order_cap``, ResourceCapError above
    ``MAX_DENSE_ORDER``.
    """
    raw, ident = ident, ident.strip().lower()
    oos = _out_of_scale(ident)
    if oos is not None:
        raise oos
    parts = ident.split(":")
    try:
        order = _id_order(parts)
        if order is not None:
            _within_cap(order, raw, order_cap)
        if parts[0] == "cyclic" and len(parts) == 2:
            return _cyclic(int(parts[1]))
        if parts[0] == "dihedral" and len(parts) == 2:
            return _dihedral(int(parts[1]))
        if parts[0] == "elemabelian" and len(parts) == 3:
            p, m = int(parts[1]), int(parts[2])
            return _abelian([p] * m)._rename(f"elemabelian:{p}:{m}")
        if parts[0] == "abelian" and len(parts) == 2:
            dims = [int(d) for d in parts[1].split("x")]
            return _abelian(dims)
        if parts[0] == "symmetric" and len(parts) == 2:
            return _symmetric(int(parts[1]))
        if parts[0] == "alternating" and len(parts) == 2:
            return _alternating(int(parts[1]))
        if ident == "quaternion:8":
            return _quaternion()
        if ident == "paper16":
            return _paper16()
        if parts[0] == "psl2" and len(parts) == 2:
            return _psl2(int(parts[1]))
    except ValueError as e:
        raise InputFormatError(f"bad catalog id {ident!r}: {e}") from None
    raise InputFormatError(f"unknown catalog id {ident!r}")


def group_from_json(obj, *, order_cap=10000) -> FiniteGroup:
    """Build a group from its JSON reference.

    Accepts {"named": id}, {"cayley": [[...]]},
    {"permutations": {"degree": d, "generators": [[...]]}} or a bare id
    string.
    """
    ident = obj.get("named") if isinstance(obj, dict) else obj
    if isinstance(ident, str):
        g = named_group(ident, order_cap=order_cap)
        _within_cap(g.order, ident, order_cap)
        return g
    if not isinstance(obj, dict):
        raise InputFormatError("group reference must be a string or an object")
    if "cayley" in obj:
        rows = obj["cayley"]
        if not isinstance(rows, list):
            raise InputFormatError("cayley table must be a list of rows")
        # the row count is the order: refuse it before anything is built
        _within_cap(len(rows), "cayley-input", order_cap)
        return FiniteGroup.from_table(rows, name="cayley-input")
    if "permutations" in obj:
        spec = obj["permutations"]
        if not isinstance(spec, dict) or "degree" not in spec or "generators" not in spec:
            raise InputFormatError("permutations reference needs degree and generators")
        return FiniteGroup.from_permutations(spec["degree"], spec["generators"],
                                             name="perm-input", order_cap=order_cap)
    raise InputFormatError("group reference needs one of: named, cayley, permutations")
