"""Maps between groups as dense image arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, PropertyFailure


@dataclass
class GroupMap:
    """A map source -> target given by images[g] for every element g.

    ``inner`` is an optional flag for automorphisms (conjugation by some
    element); None means not determined.
    """

    source: object
    target: object
    images: np.ndarray
    inner: bool | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.int64)

    def __call__(self, g):
        return int(self.images[g])

    def apply(self, arr):
        return self.images[np.asarray(arr, dtype=np.int64)]

    def key(self):
        return self.images.tobytes()

    def is_bijective(self):
        return self.images.size == self.source.order and \
            np.unique(self.images).size == self.images.size

    def is_homomorphism(self, mode="auto", samples=200000, anti=False):
        """Check phi(x y) = phi(x) phi(y) (or the reversed product when
        ``anti``), fully for small sources and on ``samples`` pairs from
        a generator seeded with 0 beyond."""
        G, H, img = self.source, self.target, self.images
        n = G.order
        if mode == "auto":
            mode = "full" if n <= 1500 else "sampled"
        if mode != "full" and (mode != "sampled" or samples < 1):
            raise InputFormatError(f"is_homomorphism needs mode auto, full or "
                                   f"sampled and samples >= 1 (got {mode!r}, {samples})")
        if img[0] != 0:
            return False
        if mode == "full":
            for x in range(n):
                lhs = img[G.row(x)]
                rhs = H.row(img[x])[img] if not anti else H.col(img[x])[img]
                if not np.array_equal(lhs, rhs):
                    return False
            return True
        rng = np.random.default_rng(0)
        xs = rng.integers(0, n, size=samples)
        ys = rng.integers(0, n, size=samples)
        lhs = img[G.mul_vec(xs, ys)]
        rhs = H.mul_vec(img[xs], img[ys]) if not anti else H.mul_vec(img[ys], img[xs])
        return bool(np.array_equal(lhs, rhs))

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other (apply ``other`` first)."""
        inner = True if (self.inner and other.inner) else None
        return GroupMap(other.source, self.target, self.images[other.images],
                        inner=inner)

    def inverse(self) -> "GroupMap":
        if not self.is_bijective():
            raise PropertyFailure("map-not-bijective")
        inv = np.argsort(self.images)
        return GroupMap(self.target, self.source, inv, inner=self.inner)

    def __repr__(self):
        tag = {True: " inner", False: " outer", None: ""}[self.inner]
        return f"GroupMap({self.source.name}->{self.target.name}{tag})"


def identity_map(G) -> GroupMap:
    return GroupMap(G, G, np.arange(G.order, dtype=np.int64), inner=True)


def inner_automorphism(G, g) -> GroupMap:
    """x -> g^-1 x g."""
    images = G.conjugation_map(g)
    return GroupMap(G, G, images, inner=True)
