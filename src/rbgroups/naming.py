"""Short structure names for groups and subgroups.

The namer covers exactly the shapes that show up in classification
reports: cyclic, elementary abelian, general abelian (by invariant
factors), alternating and symmetric groups through degree 7, dihedral
groups, and split metacyclic-style groups p^m : k with an elementary
abelian normal part and a cyclic complement of coprime order.  Anything
else is reported as unidentified(order=n) rather than guessed.

Precedence on ties: symmetric/alternating names win (S3 rather than D6,
A4 rather than 2^2:3), then dihedral, then p^m:k.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import named_group
from .groups import FiniteGroup, _closure_members
from .subgroups import Subgroup, _factorint, derived_subgroup, is_normal

_SA_FP_CACHE = {}


def abelian_invariants(G: FiniteGroup):
    """Invariant factors d_1 >= d_2 >= ... with d_{i+1} | d_i, computed
    from the element-order histogram (valid for abelian G only)."""
    if not G.is_abelian():
        raise ValueError("abelian_invariants needs an abelian group")
    n = G.order
    orders = G.element_orders()
    partitions = {}
    for p, mult in _factorint(n).items():
        # c_k = #elements killed by p^k determines the type partition
        exps = []
        prev = 0
        for k in range(1, mult + 1):
            pk = p ** k
            c = int(np.count_nonzero(pk % orders == 0))
            e = round(np.log(c) / np.log(p))
            exps.append(e - prev)
            prev = e
        # exps[k-1] = #parts of size >= k; conjugate to get the parts
        parts = []
        for k, m in enumerate(exps, start=1):
            parts.extend([k] * (m - (exps[k] if k < len(exps) else 0)))
        parts.sort(reverse=True)
        partitions[p] = parts
    width = max(len(v) for v in partitions.values())
    factors = []
    for i in range(width):
        d = 1
        for p, parts in partitions.items():
            if i < len(parts):
                d *= p ** parts[i]
        factors.append(d)
    return factors


def _full_fp(G):
    return G.fingerprint() + (derived_subgroup(G).order,)


def _sa_reference_fps(order):
    """Fingerprints of the S_k / A_k with the given order (degree <= 7)."""
    if order not in _SA_FP_CACHE:
        entries = []
        for k in range(3, 8):
            if math.factorial(k) == order:
                entries.append((f"S{k}", _full_fp(named_group(f"symmetric:{k}"))))
            if k >= 4 and math.factorial(k) // 2 == order:
                entries.append((f"A{k}", _full_fp(named_group(f"alternating:{k}"))))
        _SA_FP_CACHE[order] = entries
    return _SA_FP_CACHE[order]


def _is_dihedral(G):
    n = G.order
    if n < 6 or n % 2:
        return False
    m = n // 2
    orders = G.element_orders()
    r = next((int(x) for x in range(n) if orders[x] == m), None)
    if r is None:
        return False
    outside = np.setdiff1d(np.arange(n), _closure_members(G, [r]))
    return bool((orders[outside] == 2).all())


def _is_generalized_quaternion(G):
    """2-group with a unique involution (and not cyclic, checked by caller)."""
    n = G.order
    if n < 8 or list(_factorint(n)) != [2]:
        return False
    return int((G.element_orders() == 2).sum()) == 1


def _split_metacyclic_name(G):
    """p^m : k with elementary abelian p^m normal and cyclic complement
    of coprime order k, or None."""
    n = G.order
    orders = G.element_orders()
    for p in _factorint(n):
        cand = np.nonzero((orders == 1) | (orders == p))[0]
        size = cand.size
        # must be a full p-power worth of elements forming a subgroup
        if size < p or n % size:
            continue
        m = _factorint(size)
        if list(m) != [p]:
            continue
        m = m[p]
        k = n // size
        if k == 1 or k % p == 0:
            continue
        mem = _closure_members(G, [int(x) for x in cand if x])
        if mem.size != size or not is_normal(G, Subgroup(G, mem)):
            continue
        comp = np.nonzero(orders == k)[0]
        if comp.size == 0:
            continue
        head = str(p) if m == 1 else f"{p}^{m}"
        return f"{head}:{k}"
    return None


def structure_name(obj) -> str:
    """A short name for a group or subgroup; see the module docstring."""
    if isinstance(obj, Subgroup):
        if obj.order == 1:
            return "1"
        if obj.order == obj.parent.order:
            G = obj.parent
        else:
            G, _ = obj.as_group(validate=False)
    else:
        G = obj
    n = G.order
    if n == 1:
        return "1"
    if G.is_abelian():
        if G.exponent() == n:
            return str(n)
        inv = abelian_invariants(G)
        ps = _factorint(n)
        if len(ps) == 1:
            p = next(iter(ps))
            if all(d == p for d in inv):
                return f"{p}^{len(inv)}"
        return "x".join(str(d) for d in inv)
    for name, fp in _sa_reference_fps(n):
        if _full_fp(G) == fp:
            return name
    if _is_dihedral(G):
        return f"D{n}"
    if _is_generalized_quaternion(G):
        return f"Q{n}"
    mc = _split_metacyclic_name(G)
    if mc is not None:
        return mc
    return f"unidentified(order={n})"
