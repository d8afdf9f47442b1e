"""Rota-Baxter operators of weight 1 on finite groups.

An operator is a map B: G -> G satisfying, for all g, h,

    B(g) B(h) = B( g B(g) h B(g)^-1 ).

Its companion is B~(g) = g^-1 B(g^-1); the companion of a Rota-Baxter
operator is again one, and B~~ = B.  The derived product
g o h = g B(g) h B(g)^-1 makes (G, o) a group, and B is a homomorphism
(G, o) -> (G, .).  B is called splitting when B(B~(g)) is the identity
for every g, equivalently when Im(B) and Im(B~) intersect trivially.

``verify_rb`` checks the identity exactly through the graph
H_B = {P(g)} with P(g) = (B(g), g B(g)) in G x G: P(g) P(h) = P(g o h)
exactly when B(g) B(h) = B(g o h), so B is an operator iff H_B is a
subgroup.  P is injective, as g = (g B(g)) B(g)^-1.  If the identity
holds for every g against one column t, right multiplication by P(t)
maps H_B into itself, so s_t: g -> g o t is a permutation of G and
H_B P(t) = H_B; H_B is then closed under right multiplication by the
group generated by P(T) for every set T of such columns.  Let B(e) = e,
so that P(e) = (e, e) and s_t(e) = t.  If the orbit of e under the s_t
(t in T) is all of G, every P(g) is P(e) times a product of the P(t)
and their inverses, so H_B lies in the group K generated by P(T); as
K = P(e) K lies in H_B, H_B = K is a subgroup and B is an operator.
The walk (``_walk``) finds such a T: starting from R = {e}, it checks
the column of the least element outside R, grows R to its orbit under
the s_t checked so far, and repeats until R = G.  R is P^-1 of K, a
subgroup of H_B, so each column that passes at least doubles it: the
walk checks at most log2(n) + 1 columns, 2 or 3 on the trivial
operators of the catalog's PSL(2, q), A6 and S6.  One kernel
(``_first_failures``) checks a whole matrix of image rows: every row
against all of G when one n x n block fits ``_BLOCK_ENTRIES``, else
every row by the walk, and a row that fails a walked column is scanned
against all of G for its least failing pair (``_least_failures``).
``verify_rb`` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

from .errors import InputFormatError, PropertyFailure
from .groups import FiniteGroup, _closure_members
from .maps import GroupMap
from .subgroups import Subgroup, is_normal, product_set

#: table entries per block of rows in the identity check and the derived table
_BLOCK_ENTRIES = 8192


@dataclass
class RBOperator:
    """A candidate Rota-Baxter operator: images[g] = B(g).

    ``provenance`` records how (or whether) the defining identity was
    checked: {"mode": "unchecked" | "full", ...}.
    """

    group: FiniteGroup
    images: np.ndarray
    provenance: dict = _dc_field(default_factory=lambda: {"mode": "unchecked"})

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.int64)
        if self.images.shape != (self.group.order,):
            raise ValueError("image array length must equal the group order")

    def __call__(self, g):
        return int(self.images[g])

    def key(self):
        return self.images.tobytes()

    def mark(self, provenance):
        self.provenance = provenance
        return self

    def __repr__(self):
        mode = self.provenance.get("mode", "unchecked")
        return f"RBOperator(on {self.group.name}, {mode})"


@dataclass
class VerifyResult:
    ok: bool
    mode: str
    checked: int
    witness: tuple | None = None

    def provenance(self):
        return {"mode": self.mode, "checked": self.checked}


def _images_of(G, op_or_images):
    """The image array as int64; InputFormatError unless every entry is
    an integer element index in [0, n), ValueError unless there are n."""
    if isinstance(op_or_images, RBOperator):
        arr = op_or_images.images
    else:
        arr = np.asarray(op_or_images)
        if arr.dtype.kind not in "iu":
            raise InputFormatError("operator images must be integers")
        arr = arr.astype(np.int64)
    if arr.shape != (G.order,):
        raise ValueError("image array length must equal the group order")
    # as unsigned, a negative entry lies past n too
    if arr.size and arr.view(np.uint64).max() >= G.order:
        raise InputFormatError(f"operator images must lie in 0..{G.order - 1}")
    return arr


def _inverse_derived(G, gs, b, cols):
    """(t, bn): t[..., l] = (g o h)^-1 = B(g) (g B(g) h)^-1 as table
    entries, for g = gs[...], B(g) = b[...] (int64, broadcast with
    ``gs``) and h = cols[l], where g o h = g B(g) h B(g)^-1 is the
    derived product: one block product, then one gather along rows.
    bn = B(g)·n[..., None] starts the rows B(g) of the flat table."""
    n = G.order
    bn = (b * n)[..., None]
    y = G.products((G.mul_vec(gs, b) * n)[..., None] + cols)    # g B(g) h
    return G.products(bn + G.inverse.take(y)), bn


def _least_failures(G, B):
    """{i: (g, h)} for each row i of the m x n image matrix B (entries in
    [0, n)) that fails the identity: its least (g, h) in G x G with
    B(g) B(h) != B(g o h), which is (e, e) when B(e) != e, as then
    B(e) B(e) != B(e) = B(e o e).

    Blocks hold at most k = max(1, 8192 // n) entries (i, g), each
    vectorized over its k·n pairs: k // n whole rows, or, when k < n,
    k entries g of one row, and a row's later blocks are skipped once
    it fails."""
    m, n = B.shape
    k = max(1, _BLOCK_ENTRIES // n)
    rows, width = max(1, k // n), min(k, n)     # a block: rows x width entries (i, g)
    b_of_inv = B.take(G.inverse, axis=1)        # B_i(g o h) = b_of_inv[i, (g o h)^-1]
    everything = np.arange(n)
    failures = {}
    for r in range(0, m, rows):
        for g in range(0, n, width):
            if width < n and r in failures:
                break
            b = B[r:r + rows, g:g + width].astype(np.int64, copy=False)
            t, bn = _inverse_derived(G, np.arange(g, g + b.shape[1]), b, everything)
            if len(b) == 1:
                rhs = b_of_inv[r].take(t)
            else:                           # row i's entries start at i n
                rhs = b_of_inv.ravel().take(t + (np.arange(r, r + len(b)) * n)[:, None, None])
            lhs = G.products(bn + B[r:r + rows, None])      # B(g) B(h)
            bad = lhs != rhs
            if not np.count_nonzero(bad):
                continue
            bad = bad.reshape(len(b), -1)
            hit = np.flatnonzero(bad.any(axis=1))
            for i, at in zip(hit.tolist(), bad[hit].argmax(axis=1).tolist()):
                failures.setdefault(r + i, (g + at // n, at % n))
    return failures


def _walk(G, B):
    """(failed, T) for the m x n image matrix B: failed[i] when row i
    fails a column it checks (or has B(e) != e), and T[s, i] the column
    row i checked at step s, -1 when it checked none.

    Every row walks its own reached set R, which starts as {e}.  A step
    checks, for every row not yet done, the column t of the least
    element outside R against all g, and a column that passes gives the
    permutation s_t: g -> g o t; R then grows to its orbit under the
    permutations of all the passed columns.  For each permutation p the
    orbit is closed by doubling, R |= p^-1(R) by one gather and then
    p = p∘p (the powers are kept; <p^-1> = <p>), until a step adds
    nothing, so that a long cycle costs log2 of its length; rounds over the permutations
    repeat until one adds nothing.  t joins R (s_t(e) = t) and R at
    least doubles (module docstring), so a row is done, with R = G or
    failed, after at most log2(n) + 1 steps.  The rows share every step
    as one m x n block."""
    m, n = B.shape
    b = B.astype(np.int64)
    off = (np.arange(m) * n)[:, None]
    start = G.mul_vec(np.arange(n), b) * n          # rows g B(g) of the flat table
    b_inv = G.inverse.take(b)
    failed = b[:, 0] != 0
    reached = np.zeros((m, n), dtype=bool)
    reached[:, 0] = True
    reached[failed] = True
    moved = np.empty_like(reached)
    flat, out = reached.ravel(), moved.ravel()
    count, powers, T = np.count_nonzero(reached), [], []
    while count < m * n:
        todo = np.flatnonzero(~reached.all(axis=1))
        t = reached[todo].argmin(axis=1)
        gbt = G.products(start[todo] + t[:, None]).astype(np.int64)         # g B(g) t
        s = G.products(gbt * n + b_inv[todo]) + off[todo]                   # g o t, flat
        lhs = G.products(b[todo] * n + b[todo, t][:, None])                 # B(g) B(t)
        bad = (lhs != b.ravel().take(s)).any(axis=1)
        failed[todo[bad]] = True
        reached[todo[bad]] = True
        perm = (off + np.arange(n)).ravel()         # the identity on rows not walked
        perm.reshape(m, n)[todo[~bad]] = s[~bad]
        powers.append([perm])
        T.append(np.full(m, -1))
        T[-1][todo] = t
        count = np.count_nonzero(reached)
        while count < m * n:
            before = count
            for ps in powers:
                k = 0
                while count < m * n:
                    if k == len(ps):
                        ps.append(ps[-1].take(ps[-1]))
                    flat.take(ps[k], out=out)       # p^-(2^k)(R)
                    reached |= moved
                    grown = np.count_nonzero(reached)
                    if grown == count:
                        break
                    count, k = grown, k + 1
            if count == before:
                break
    return failed, np.array(T, dtype=np.int64).reshape(-1, m)


def _first_failures(G, B):
    """{i: (g, h)} for each row i of the m x n image matrix B (entries in
    [0, n)) that fails the identity, with its least failing pair over
    G x G (``_least_failures``); a row is an operator exactly when it is
    not listed.  When one n x n block fits ``_BLOCK_ENTRIES`` every row
    is scanned against all of G; past that, blocks of
    max(1, 8192 // n) rows are walked together (``_walk``, exact by the
    module docstring) and only the rows that fail are scanned."""
    m, n = B.shape
    if n * n <= _BLOCK_ENTRIES:
        return _least_failures(G, B)
    rows = max(1, _BLOCK_ENTRIES // n)
    failed = np.zeros(m, dtype=bool)
    for r in range(0, m, rows):
        failed[r:r + rows] = _walk(G, B[r:r + rows])[0]
    failed = np.flatnonzero(failed)
    return {int(failed[i]): pair for i, pair in _least_failures(G, B[failed]).items()}


def verify_rb(G, op) -> VerifyResult:
    """Check the defining identity exactly.

    The one-row call of ``_first_failures``: up to order 90 every pair
    of G x G is checked in one block, and past it the walk checks a few
    columns h against all g (module docstring) and a row that fails one
    is scanned against all of G.  A passing check reports ``checked`` =
    n^2.  A failure reports the lexicographically least failing pair
    (g, h) over all of G x G and ``checked`` = (g + 1)·n, the whole rows
    up to and including its row.  Images must be n element indices in
    [0, n).
    """
    B = _images_of(G, op)
    n = G.order
    if B[0] != 0:
        return VerifyResult(False, "full", 0, witness=(0, 0))
    bad = _first_failures(G, B[None])
    if not bad:
        return VerifyResult(True, "full", n * n)
    return VerifyResult(False, "full", (bad[0][0] + 1) * n, witness=bad[0])


def check_rows(G, B):
    """Raise what ``make_rb`` raises on the first row of the m x n
    matrix B that is not an operator on G, checking every row in one
    ``_first_failures`` call: InputFormatError for images outside
    [0, n), else PropertyFailure("rb-identity") with ``verify_rb``'s
    least witness."""
    n = G.order
    if not len(B):
        return
    out_of_range = ((B < 0) | (B >= n)).any(axis=1)
    stop = int(out_of_range.argmax()) if out_of_range.any() else len(B)
    failed = _first_failures(G, B[:stop])
    if failed:
        raise PropertyFailure("rb-identity", witness=failed[min(failed)])
    if stop < len(B):
        _images_of(G, B[stop])


def make_rb(G, images) -> RBOperator:
    """Wrap an image array, verified by ``verify_rb``."""
    op = RBOperator(G, _images_of(G, images))
    res = verify_rb(G, op)
    if not res.ok:
        raise PropertyFailure("rb-identity", witness=res.witness)
    return op.mark(res.provenance())


def trivial_e(G) -> RBOperator:
    """B(g) = e."""
    return make_rb(G, np.zeros(G.order, dtype=np.int64))


def trivial_inv(G) -> RBOperator:
    """B(g) = g^-1."""
    return make_rb(G, G.inverse.astype(np.int64))


def btilde(op: RBOperator) -> RBOperator:
    """The companion operator B~(g) = g^-1 B(g^-1)."""
    G = op.group
    inv = G.inverse
    images = G.mul_vec(inv, op.images[inv])
    return RBOperator(G, images, {"mode": "companion-of-" +
                                  op.provenance.get("mode", "unchecked")})


def conjugate_rb(op: RBOperator, phi) -> RBOperator:
    """The operator phi o B o phi^-1 for an automorphism phi."""
    G = op.group
    inv_phi = np.argsort(phi.images)
    images = phi.images[op.images[inv_phi]]
    return RBOperator(G, images, {"mode": "conjugate-of-" +
                                  op.provenance.get("mode", "unchecked")})


def _subgroup_from_set(G, members, clause):
    members = np.unique(members)
    closed = _closure_members(G, [int(x) for x in members if x])
    if closed.size != members.size:
        raise PropertyFailure(clause)
    return Subgroup(G, members, ())


def image(op: RBOperator) -> Subgroup:
    """Im(B); raises PropertyFailure("image-not-subgroup") if not closed."""
    return _subgroup_from_set(op.group, op.images, "image-not-subgroup")


def kernel(op: RBOperator) -> Subgroup:
    """ker(B) = B^-1(e); raises if not a subgroup."""
    members = np.nonzero(op.images == 0)[0]
    return _subgroup_from_set(op.group, members, "kernel-not-subgroup")


def im_bbt(op: RBOperator) -> np.ndarray:
    """Sorted member array of the set B(B~(G))."""
    bt = btilde(op)
    return np.unique(op.images[bt.images])


def is_splitting(op: RBOperator) -> bool:
    """B(B~(g)) = e for all g."""
    bt = btilde(op)
    return bool((op.images[bt.images] == 0).all())


def derived_group(op: RBOperator, *, validate=True) -> FiniteGroup:
    """(G, o) with g o h = g B(g) h B(g)^-1, built as a full table."""
    G = op.group
    n = G.order
    B = _images_of(G, op)
    table = np.empty((n, n), dtype=np.uint16)
    everything = np.arange(n)
    k = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, k):
        gs = everything[start:start + k]
        table[gs] = G.inverse[_inverse_derived(G, gs, B[gs], everything)[0]]
    return FiniteGroup.from_table(table, name=f"derived({G.name})", validate=validate)


@dataclass
class RBStructureReport:
    """Kernels, images, their interrelations, and the splitting flag."""

    kernel: Subgroup
    image: Subgroup
    kernel_tilde: Subgroup
    image_tilde: Subgroup
    r: Subgroup                  # Im(B) ∩ Im(B~)
    im_bbt_size: int
    splitting: bool
    quotient_order: int          # |Im(B~) : ker(B)| = |Im(B) : ker(B~)|
    checks: dict                 # clause -> bool

    def ok(self):
        return all(self.checks.values())


def structure_report(op: RBOperator) -> RBStructureReport:
    """Verify and collect the structural facts about B and B~:

    - ker(B) is normal in Im(B~), ker(B~) is normal in Im(B);
    - |Im(B~) : ker(B)| = |Im(B) : ker(B~)|;
    - G = Im(B~) Im(B) as a set product;
    - R = Im(B) ∩ Im(B~), with |R| = 1 exactly for splitting operators.
    """
    G = op.group
    bt = btilde(op)
    ker = kernel(op)
    img = image(op)
    ker_t = kernel(bt)
    img_t = image(bt)
    r_members = np.intersect1d(img.members, img_t.members)
    r = Subgroup(G, r_members, ())
    checks = {}
    checks["kerB-normal-in-imBt"] = (
        set(ker.members) <= set(img_t.members)
        and is_normal(G, ker, within=img_t))
    checks["kerBt-normal-in-imB"] = (
        set(ker_t.members) <= set(img.members)
        and is_normal(G, ker_t, within=img))
    q1, rem1 = divmod(img_t.order, ker.order)
    q2, rem2 = divmod(img.order, ker_t.order)
    checks["quotient-order-equality"] = (rem1 == 0 and rem2 == 0 and q1 == q2)
    checks["product-cover"] = bool(product_set(img_t, img).all())
    bbt = im_bbt(op)
    split = bool(bbt.size == 1 and bbt[0] == 0)
    checks["splitting-iff-trivial-intersection"] = (split == (r.order == 1))
    return RBStructureReport(kernel=ker, image=img, kernel_tilde=ker_t,
                             image_tilde=img_t, r=r, im_bbt_size=int(bbt.size),
                             splitting=split, quotient_order=q1, checks=checks)


@dataclass
class SuiteVerdict:
    clauses: dict

    def ok(self):
        return all(self.clauses.values())


def prop_initial_suite(op: RBOperator) -> SuiteVerdict:
    """First-properties suite for a verified operator B:

    (companion-rb)        B~ satisfies the defining identity;
    (companion-involution) B~~ = B;
    (derived-hom)         B is a homomorphism (G, o) -> (G, .);
    (kernel-shift)        B(gh) = B(h) whenever B(g) = e.
    """
    G = op.group
    bt = btilde(op)
    clauses = {}
    clauses["companion-rb"] = verify_rb(G, bt).ok
    clauses["companion-involution"] = bool(
        np.array_equal(btilde(bt).images, op.images))
    B = op.images
    # exact: the edge check is run only once (G, o) is checked a group
    try:
        hom = GroupMap(derived_group(op), G, B).is_homomorphism()
    except InputFormatError:
        hom = False
    clauses["derived-hom"] = hom
    clauses["kernel-shift"] = bool((B[G.row(np.flatnonzero(B == 0))] == B).all())
    return SuiteVerdict(clauses)
