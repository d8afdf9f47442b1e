"""Rota-Baxter operators of weight 1 on finite groups.

An operator is a map B: G -> G satisfying, for all g, h,

    B(g) B(h) = B( g B(g) h B(g)^-1 ).

Its companion is B~(g) = g^-1 B(g^-1); the companion of a Rota-Baxter
operator is again one, and B~~ = B.  The derived product
g o h = g B(g) h B(g)^-1 makes (G, o) a group, and B is a homomorphism
(G, o) -> (G, .).  B is called splitting when B(B~(g)) is the identity
for every g, equivalently when Im(B) and Im(B~) intersect trivially.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

from .errors import InputFormatError, PropertyFailure
from .groups import FiniteGroup, _closure_members
from .maps import GroupMap
from .subgroups import Subgroup, is_normal, product_set

_FULL_VERIFY_CAP = 10000
#: table entries per block of rows in the full check and the derived table
_BLOCK_ENTRIES = 8192


@dataclass
class RBOperator:
    """A candidate Rota-Baxter operator: images[g] = B(g).

    ``provenance`` records how (or whether) the defining identity was
    checked: {"mode": "unchecked" | "full" | "sampled", ...}.
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
    seed: int | None = None

    def provenance(self):
        d = {"mode": self.mode, "checked": self.checked}
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def _images_of(G, op_or_images):
    """The image array as int64; InputFormatError unless every entry is
    an integer element index in [0, n)."""
    if isinstance(op_or_images, RBOperator):
        arr = op_or_images.images
    else:
        arr = np.asarray(op_or_images)
        if arr.dtype.kind not in "iu":
            raise InputFormatError("operator images must be integers")
        arr = arr.astype(np.int64)
        if arr.shape != (G.order,):
            raise ValueError("image array length must equal the group order")
    if arr.size and (arr.min() < 0 or arr.max() >= G.order):
        raise InputFormatError(f"operator images must lie in 0..{G.order - 1}")
    return arr


def _inverse_derived_blocks(G, B):
    """(gs, t) for blocks gs of k = max(1, 8192 // n) consecutive rows,
    t[i, h] = (g o h)^-1 = B(g) (g B(g) h)^-1 for g = gs[i], where
    g o h = g B(g) h B(g)^-1 is the derived product.  Both products
    read along rows of the table: a row copy, then one flat gather."""
    n = G.order
    k = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, k):
        gs = np.arange(start, min(start + k, n))
        b = B[gs]
        y = G.row(G.mul_vec(gs, b)).astype(np.int64)
        yield gs, G.mul_rows(b, G.inverse[y])


def verify_rb(G, op, mode="auto", *, seed=0, samples=10 ** 6) -> VerifyResult:
    """Check the defining identity.

    Full mode checks all n^2 pairs in blocks of k = max(1, 8192 // n)
    rows g, each block vectorized over its k·n pairs, so a group of
    order <= 90 is one block.  The reported witness is the
    lexicographically least failing pair (g, h) and ``checked`` counts
    whole rows up to and including its row, (g + 1)·n; a passing check
    reports n^2.  Sampled mode draws ``samples >= 1`` pairs with a
    seeded generator.  Images must be element indices in [0, n).
    """
    B = _images_of(G, op)
    n = G.order
    if mode == "auto":
        mode = "full" if n <= _FULL_VERIFY_CAP else "sampled"
    if mode != "full" and (mode != "sampled" or samples < 1):
        raise InputFormatError(f"verify needs mode auto, full or sampled and "
                               f"samples >= 1 (got {mode!r}, {samples})")
    if B[0] != 0:
        return VerifyResult(False, "full", 0, witness=(0, 0))
    if mode == "full":
        b_of_inv = B[G.inverse]             # B(g o h) = b_of_inv[(g o h)^-1]
        for gs, t in _inverse_derived_blocks(G, B):
            bad = G.mul_rows(B[gs], B) != b_of_inv[t]
            if bad.any():
                i, h = divmod(int(bad.argmax()), n)
                g = int(gs[i])
                return VerifyResult(False, "full", (g + 1) * n, witness=(g, h))
        return VerifyResult(True, "full", n * n)
    rng = np.random.default_rng(seed)
    gs = rng.integers(0, n, size=samples)
    hs = rng.integers(0, n, size=samples)
    bg = B[gs]
    lhs = G.mul_vec(bg, B[hs])
    inner = G.mul_vec(G.mul_vec(G.mul_vec(gs, bg), hs), G.inverse[bg])
    rhs = B[inner]
    bad = np.nonzero(lhs != rhs)[0]
    if bad.size:
        i = int(bad[0])
        return VerifyResult(False, "sampled", samples, seed=seed,
                            witness=(int(gs[i]), int(hs[i])))
    return VerifyResult(True, "sampled", samples, seed=seed)


def make_rb(G, images) -> RBOperator:
    """Wrap an image array, verified by ``verify_rb`` in auto mode."""
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
    for gs, t in _inverse_derived_blocks(G, B):
        table[gs] = G.inverse[t]
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


@dataclass
class OldDiagnostic:
    """Comparison of the weight-1 identity with the older convention
    B(g) B(h) = B( B(g) h B(g)^-1 g ): both, either, or neither can hold."""

    new_holds: bool
    old_holds: bool
    witness_new: tuple | None
    witness_old: tuple | None


def lemma_old_diagnostic(G, op) -> OldDiagnostic:
    B = _images_of(G, op)
    res_new = verify_rb(G, B)
    old_ok = True
    wit_old = None
    for g in range(G.order):
        bg = int(B[g])
        ibg = G.inv(bg)
        pre = G.row(bg)                      # B(g) h
        mid = G.col(ibg)[pre]
        rhs = B[G.col(g)[mid]]
        lhs = G.row(bg)[B]
        if not np.array_equal(lhs, rhs):
            h = int(np.nonzero(lhs != rhs)[0][0])
            old_ok, wit_old = False, (g, h)
            break
    return OldDiagnostic(new_holds=res_new.ok, old_holds=old_ok,
                         witness_new=res_new.witness, witness_old=wit_old)
