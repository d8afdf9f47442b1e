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
subgroup.  If B(e) = e and the identity holds for every g and every h
in a column set S', right multiplication by each P(s), s in S', maps
H_B into itself; as P(e) = (e, e) lies in H_B, so does the group
generated by P(S').  That group holds P(e), P(S') and P(S' o S'), so
when {e} ∪ S' ∪ (S' o S') is all of G it is H_B, and B is an operator.
The argument needs only that cover, and any superset of S' keeps it,
all of G included.  One kernel (``_first_failures``) checks a whole
matrix of image rows: every row against all of G when one n x n block
fits ``_BLOCK_ENTRIES``, else each row against its own S'
(``_column_groups``).  ``verify_rb`` is its one-row call.
"""

from __future__ import annotations

import math
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


def _uncovered(G, B):
    """(S, U): S the distinct elements among 2⌈√n⌉ drawn with a fixed
    seed, and U[i] the mask of the elements outside {e} ∪ S ∪ (S o S)
    under row i of the m x n image matrix B, whose products s o s' are
    formed in blocks of 8192 // |S| (row, s) entries.  Row i's own
    column set S' = S ∪ U[i] makes {e} ∪ S' ∪ (S' o S') all of G;
    whatever S is, a check on S' is exact, and a good S only makes S'
    small."""
    m, n = B.shape
    S = np.unique(np.random.default_rng(0).integers(0, n, 2 * math.isqrt(n - 1) + 2))
    covered = np.zeros((m, n), dtype=bool)
    covered[:, 0] = True
    covered[:, S] = True
    flat = covered.ravel()
    b_all = B[:, S].ravel().astype(np.int64)
    k = max(1, _BLOCK_ENTRIES // S.size)
    for start in range(0, b_all.size, k):
        i, j = np.divmod(np.arange(start, min(start + k, b_all.size)), S.size)
        t = G.inverse[_inverse_derived(G, S[j], b_all[start:start + k], S)[0]]
        flat[t + (i * n)[:, None]] = True
    return S, ~covered


def _column_groups(G, B):
    """[(start, stop, cols)] for groups of the rows of the m x n image
    matrix B that share one column set: all rows against all of G when
    one n x n block fits ``_BLOCK_ENTRIES``, else each row on its own
    against its S' = S ∪ U[i] (``_uncovered``, one pass for all rows)."""
    m, n = B.shape
    if not m or n * n <= _BLOCK_ENTRIES:
        return [(0, m, np.arange(n))]
    S, U = _uncovered(G, B)
    return [(i, i + 1, np.union1d(S, np.flatnonzero(U[i]))) for i in range(m)]


def _first_failures(G, B, cols=None):
    """{i: (g, h)} for each row i of the m x n image matrix B (entries in
    [0, n)) that fails the identity: its least (g, h), g in G and h in
    ``cols``, with B(g) B(h) != B(g o h), or (e, e) when B(e) != e, as
    then B(e) B(e) != B(e) = B(e o e).  By default each group of rows of
    ``_column_groups`` is checked against its column set, and a row is
    an operator exactly when it is not listed (module docstring).

    Blocks hold at most k = max(1, 8192 // |cols|) entries (i, g), each
    vectorized over its k·|cols| pairs: k // n whole rows, or, when
    k < n, k entries g of one row, and a row's later blocks are skipped
    once it fails."""
    if cols is None:
        return {start + i: pair for start, stop, cols in _column_groups(G, B)
                for i, pair in _first_failures(G, B[start:stop], cols).items()}
    m, n = B.shape
    c = cols.size
    k = max(1, _BLOCK_ENTRIES // c)
    rows, width = max(1, k // n), min(k, n)     # a block: rows x width entries (i, g)
    b_of_inv = B.take(G.inverse, axis=1)        # B_i(g o h) = b_of_inv[i, (g o h)^-1]
    # with e among the columns a row with B(e) != e fails at (e, e) anyway
    failures = dict.fromkeys(np.flatnonzero(B[:, 0]).tolist(), (0, 0)) if cols[0] else {}
    for r in range(0, m, rows):
        for g in range(0, n, width):
            if width < n and r in failures:
                break
            b = B[r:r + rows, g:g + width].astype(np.int64, copy=False)
            t, bn = _inverse_derived(G, np.arange(g, g + b.shape[1]), b, cols)
            if len(b) == 1:
                rhs = b_of_inv[r].take(t)
            else:                           # row i's entries start at i n
                rhs = b_of_inv.ravel().take(t + (np.arange(r, r + len(b)) * n)[:, None, None])
            lhs = G.products(bn + B[r:r + rows, None].take(cols, axis=2))       # B(g) B(h)
            bad = lhs != rhs
            if not np.count_nonzero(bad):
                continue
            bad = bad.reshape(len(b), -1)
            hit = np.flatnonzero(bad.any(axis=1))
            for i, at in zip(hit.tolist(), bad[hit].argmax(axis=1).tolist()):
                failures.setdefault(r + i, (g + at // c, int(cols[at % c])))
    return failures


def verify_rb(G, op) -> VerifyResult:
    """Check the defining identity exactly.

    The one-row call of ``_first_failures``: the identity is checked
    for all g against the columns h in S' (module docstring), in blocks
    of k = max(1, 8192 // |S'|) rows g, each block vectorized over its
    k·|S'| pairs.  A group of order <= 90 fits one block, and its S' is
    all of G.  A passing check reports ``checked`` = n^2.  A failure
    reports the lexicographically least failing pair (g, h) over all of
    G x G (found by a scan of every column when S' is smaller than G)
    and ``checked`` = (g + 1)·n, the whole rows up to and including its
    row.  Images must be n element indices in [0, n).
    """
    B = _images_of(G, op)
    n = G.order
    if B[0] != 0:
        return VerifyResult(False, "full", 0, witness=(0, 0))
    (_, _, cols), = _column_groups(G, B[None])
    bad = _first_failures(G, B[None], cols)
    if bad and cols.size < n:
        bad = _first_failures(G, B[None], np.arange(n))
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
        raise PropertyFailure("rb-identity", witness=verify_rb(G, B[min(failed)]).witness)
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
