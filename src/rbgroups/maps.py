"""Maps between groups as dense image arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PropertyFailure


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

    def is_homomorphism(self, anti=False):
        """Check phi(x y) = phi(x) phi(y), or phi(y) phi(x) when ``anti``.

        Exact, and checked on the Cayley edges x -> x s only: phi(e) = e
        and phi(x s) = phi(x) phi(s) (phi(s) phi(x) when ``anti``) for
        every x and every s of ``source.find_generating_set()``.  The s
        that pass are closed under products, so the identity then holds
        for all of the source (stored generators must generate it).
        """
        G, H, img = self.source, self.target, self.images
        if img[0] != 0:
            return False
        side = H.row if anti else H.col
        return all(np.array_equal(img[G.col(s)], side(img[s])[img])
                   for s in G.find_generating_set())

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
