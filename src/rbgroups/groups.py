"""Finite groups as dense Cayley tables on canonical 0-based indices.

Elements of a group of order n are the integers 0..n-1 and index 0 is
always the identity.  Every group carries its full ``n x n``
multiplication table, so orders are bounded by ``MAX_DENSE_ORDER``.
Permutation generators are only a way to build a table:
``from_permutations`` enumerates the closure breadth-first from the
identity, which pins the element numbering, and refuses a closure past
the bound before allocating anything.  That closure,
``_permutation_closure``, also lists Aut(G) from its generators, and
``_first_powers`` is the one power walk (element orders, coset exponents).

Higher-level algorithms talk to the vector accessors (``row``, ``col``,
``mul_block``, ``mul_vec``, ``products``).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InputFormatError, ResourceCapError

Element = int

#: memory budget for dense multiplication tables (2 bytes per entry)
DENSE_CAP_BYTES = 200 * 1024 * 1024
#: the largest order whose uint16 table fits DENSE_CAP_BYTES (10240)
MAX_DENSE_ORDER = math.isqrt(DENSE_CAP_BYTES // 2)
#: table entries of one block of Light's test (``check_axioms``)
_AXIOM_BLOCK_ENTRIES = 1 << 15
#: entries of one batched pass: the masks of the seed scan
#: (``CHUNK_ENTRIES // |G|`` pairs of one x) and of ``exact_factorizations``
#: (``CHUNK_ENTRIES // (|right| d1)`` left subgroups of order d1), and
#: the image tables (rows x |G|) of the automorphism and extension searches
CHUNK_ENTRIES = 1 << 16


class FiniteGroup:
    """A finite group with elements 0..n-1, identity 0."""

    def __init__(self, *, name, table, gens=()):
        self.name = name
        self._table = table
        self.gens = tuple(int(g) for g in gens)
        # g^-1 is the column of the identity in row g
        self.inverse = np.argmin(table, axis=1)
        self.order = int(self.inverse.size)
        self._orders = None
        self._classes = None
        self._class_of = None
        self._center = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_table(cls, table, name="table-group", gens=(), validate=True):
        """Build a group from a full multiplication table.

        The table must be a square Latin array over 0..n-1 whose row and
        column 0 are the identity, and associative; ``check_axioms``
        checks all of this exactly unless ``validate`` is false.  An
        order past ``MAX_DENSE_ORDER`` is refused (ResourceCapError)
        before the table is converted or checked.  A uint16 table is
        kept as it is, not copied.
        """
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputFormatError("multiplication table must be square")
        n = arr.shape[0]
        if n == 0:
            raise InputFormatError("empty table")
        if n > MAX_DENSE_ORDER:
            raise ResourceCapError(
                f"table order {n} exceeds the dense table bound {MAX_DENSE_ORDER}")
        if arr.dtype.kind not in "iu":
            raise InputFormatError("table entries must be integers")
        if arr.min() < 0 or arr.max() >= n:
            raise InputFormatError("table entries must lie in 0..n-1")
        arr = arr.astype(np.uint16, copy=False)
        g = cls(name=name, table=arr, gens=gens)
        if validate:
            g.check_axioms()
        return g

    @classmethod
    def from_permutations(cls, degree, generators, name="perm-group",
                          order_cap=10000):
        """Build a group generated by permutations of range(degree).

        Elements are enumerated breadth-first from the identity in
        generator order, which pins the element indexing.  Raises a
        resource error as soon as the closure exceeds ``order_cap`` or
        ``MAX_DENSE_ORDER``, before the table is allocated.
        """
        if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)) \
                or degree < 1:
            raise InputFormatError("degree must be a positive integer")
        if not isinstance(generators, (list, tuple)):
            raise InputFormatError("generators must be a list of permutations")
        gens = [np.asarray(p) for p in generators]
        for p in gens:
            if p.dtype.kind not in "iu" or p.shape != (degree,) \
                    or sorted(p.tolist()) != list(range(degree)):
                raise InputFormatError("generator is not a permutation of range(degree)")
        if not gens:        # the trivial group, whatever the degree
            return cls(name=name, table=np.zeros((1, 1), dtype=np.uint16), gens=())
        dtype = np.min_scalar_type(degree - 1)
        gens = [p.astype(dtype) for p in gens]
        ident = np.arange(degree, dtype=dtype)
        perms, parent, via, index = _permutation_closure(
            ident, gens, cap=min(order_cap, MAX_DENSE_ORDER))
        n = len(perms)
        pm = np.array(perms, dtype=dtype)
        # gen_rows[gi][h] = index of p∘h for the generator p = gens[gi]
        gen_rows = [np.fromiter((index[c.tobytes()] for c in p[pm]), count=n,
                                dtype=np.int64) for p in gens]
        # g = parent∘p, so g∘h = parent∘(p∘h); BFS lists parents first
        table = np.empty((n, n), dtype=np.uint16)
        table[0] = np.arange(n)
        for g in range(1, n):
            table[g] = table[parent[g]][gen_rows[via[g]]]
        return cls(name=name, table=table,
                   gens=tuple(index[p.tobytes()] for p in gens))

    # ------------------------------------------------------------------
    # scalar operations

    @property
    def identity(self) -> Element:
        return 0

    def mul(self, g: Element, h: Element) -> Element:
        return int(self._table[g, h])

    def inv(self, g: Element) -> Element:
        return int(self.inverse[g])

    def power(self, g: Element, k: int) -> Element:
        if k < 0:
            g, k = self.inv(g), -k
        acc, base = 0, g
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def order_of(self, g: Element) -> int:
        return int(self.element_orders()[g])

    def commutator(self, g: Element, h: Element) -> Element:
        """g^-1 * h^-1 * g * h."""
        return self.mul(self.inv(self.mul(h, g)), self.mul(g, h))

    # ------------------------------------------------------------------
    # vector operations

    def row(self, g: Element) -> np.ndarray:
        """Array r with r[h] = g*h for all h; for an array of k elements
        g, the k x n block of their rows."""
        return self._table[g]

    def col(self, h: Element) -> np.ndarray:
        """Array c with c[g] = g*h for all g."""
        return self._table[:, h]

    def mul_vec(self, a, b):
        """Elementwise products a[i]*b[i]."""
        return self._table[np.asarray(a), np.asarray(b)].astype(np.int64)

    def mul_block(self, A, B):
        """Outer product matrix M[i, j] = A[i]*B[j]."""
        return self._table[np.asarray(A)[:, None], np.asarray(B)].astype(np.int64)

    def products(self, index):
        """The table entries (not converted to int64) at the flat indices
        ``index`` = a*n + b of the products a*b, by one gather from the
        flat table.  a and b must lie in 0..n-1, or the gather runs into
        the next row."""
        return self._table.ravel().take(index)

    def pow_vec(self, elems, k):
        """Elementwise k-th powers."""
        elems = np.asarray(elems)
        if k < 0:
            elems, k = self.inverse[elems], -k
        acc = np.zeros(elems.shape, dtype=np.int64)
        base = elems.astype(np.int64)
        while k:
            if k & 1:
                acc = self.mul_vec(acc, base)
            k >>= 1
            if k:
                base = self.mul_vec(base, base)
        return acc

    def conjugation_map(self, g: Element) -> np.ndarray:
        """The permutation x -> g^-1 * x * g as an int64 array."""
        g = int(g)
        return self.col(g)[self.row(self.inv(g))].astype(np.int64)

    def conjugate_all(self, s: Element) -> np.ndarray:
        """Array v with v[x] = x^-1 * s * x."""
        w = self.col(s)[self.inverse]           # w[x] = x^-1 * s
        return self.mul_vec(w, np.arange(self.order))

    # ------------------------------------------------------------------
    # cached structure

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            ar = np.arange(self.order)
            self._orders = _first_powers(self, ar == 0, ar)[0]
        return self._orders

    def conjugacy_classes(self):
        """Classes as arrays of element indices, sorted by (size, least member)."""
        if self._classes is None:
            n = self.order
            seen = np.zeros(n, dtype=bool)
            classes = []
            for g in range(n):
                if seen[g]:
                    continue
                cls = np.unique(self.conjugate_all(g))
                seen[cls] = True
                classes.append(cls)
            classes.sort(key=lambda c: (len(c), int(c[0])))
            self._classes = classes
            cid = np.empty(n, dtype=np.int64)
            for i, c in enumerate(classes):
                cid[c] = i
            self._class_of = cid
        return self._classes

    def class_of(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._class_of

    def center(self) -> np.ndarray:
        if self._center is None:
            n = self.order
            mask = np.ones(n, dtype=bool)
            # commuting with a generating set is enough to be central
            for s in (self.gens or range(n)):
                mask &= self.col(s) == self.row(s)
            self._center = np.nonzero(mask)[0]
        return self._center

    def is_abelian(self) -> bool:
        if self.order <= 512:
            return bool((self._table == self._table.T).all())
        return len(self.center()) == self.order

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def fingerprint(self):
        """Cheap isomorphism-invariant tuple; collisions possible, used as a filter."""
        hist = np.bincount(self.element_orders())
        class_sizes = tuple(sorted(len(c) for c in self.conjugacy_classes()))
        return (self.order,
                tuple(int(x) for x in hist),
                class_sizes,
                int(len(self.center())),
                self.exponent())

    def fingerprint_hex(self) -> str:
        return hashlib.sha256(repr(self.fingerprint()).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # validation

    def check_axioms(self):
        """Raise InputFormatError unless the table is a group table.

        Row and column 0 must be the identity.  Associativity is Light's
        test: (x s) y = x (s y) for all x, y and every s of a generating
        set found from the table itself (not from ``gens``).  The s that
        pass are closed under products, and the left-normed products of
        that set reach every element, so the test is exact.  It reads
        blocks of max(1, ``_AXIOM_BLOCK_ENTRIES`` // n) rows, sized by
        entries so that each temporary of a block is at most 64 KiB at
        every order: under glibc's default mmap threshold of 128 KiB,
        past which every allocation is a fresh mapping, faulted in page
        by page and unmapped on free.  Each s is tested once kept; the
        kept s that pass generate a group if every row is a permutation,
        so each at least doubles it, and more than log2(n) of them refuse
        the table.  An associative table with identity is a Latin square
        exactly when 0 lies in every row, since a monoid in which every
        element has a right inverse is a group.  Stored ``gens`` must
        generate.
        """
        n = self.order
        t = self._table
        ar = np.arange(n)
        if not ((t[0] == ar).all() and (t[:, 0] == ar).all()):
            raise InputFormatError("index 0 is not the identity")
        rows = max(1, _AXIOM_BLOCK_ENTRIES // n)
        for kept, s in enumerate(_greedy_generators(self, range(1, n)), 1):
            if 2 ** kept > n:
                raise InputFormatError("table is not a Latin square")
            right, left = t[:, s].astype(np.intp), t[s].astype(np.intp)
            for start in range(0, n, rows):
                # rows of (x s) y against x (s y), for x in the block
                if not np.array_equal(t[right[start:start + rows]],
                                      t[start:start + rows].take(left, axis=1)):
                    raise InputFormatError("multiplication is not associative")
        # self.inverse[x] is where row x takes its least value
        if (t[ar, self.inverse] != 0).any():
            raise InputFormatError("table is not a Latin square")
        if self.gens and _closure_members(self, self.gens).size != n:
            raise InputFormatError("gens do not generate the group")

    def find_generating_set(self):
        """Stored generators (``check_axioms`` makes sure they generate),
        else a deterministic greedy generating set."""
        if self.gens:
            return self.gens
        self.gens = tuple(_greedy_generators(self, range(1, self.order)))
        return self.gens

    def _rename(self, name):
        self.name = name
        return self

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _closure_members(G, gens, bound=None):
    """Members of <gens> as a sorted array, or None if the closure
    exceeds ``bound``."""
    n = G.order
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    gen_arr = np.unique(np.asarray([int(g) for g in gens], dtype=np.int64)) \
        if gens else np.empty(0, dtype=np.int64)
    gen_arr = gen_arr[gen_arr != 0]
    if gen_arr.size == 0:
        return np.array([0], dtype=np.int64)
    mask[gen_arr] = True
    frontier = gen_arr
    size = int(mask.sum())
    while frontier.size:
        prod = np.unique(G.mul_block(frontier, gen_arr).ravel())
        new = prod[~mask[prod]]
        mask[new] = True
        size += new.size
        if bound is not None and size > bound:
            return None
        frontier = new
    return np.nonzero(mask)[0].astype(np.int64)


def _first_powers(G, mask, xs):
    """(o, x^o) for every x in ``xs`` in one power walk: o >= 1 is the
    least exponent with x^o in the set whose mask is ``mask``, which
    every x must reach (the identity, or a subgroup)."""
    xs = np.asarray(xs, dtype=np.int64)
    expo = np.zeros(xs.size, dtype=np.int64)
    top = np.zeros(xs.size, dtype=np.int64)
    cur, k = xs, 1
    while True:
        hit = mask[cur] & (expo == 0)
        expo[hit] = k
        top[hit] = cur[hit]
        if expo.all():
            return expo, top
        cur, k = G.mul_vec(cur, xs), k + 1


def _permutation_closure(ident, gens, cap=None):
    """The closure of the permutations ``gens`` under p -> p∘g,
    breadth-first from ``ident`` in generator order.

    Returns (perms, parent, via, index): perms[i] = perms[parent[i]]∘
    gens[via[i]] for i > 0, and index maps ``tobytes()`` of each
    permutation to its position.  Raises ResourceCapError as soon as the
    closure exceeds ``cap``.
    """
    index = {ident.tobytes(): 0}
    perms, parent, via = [ident], [0], [-1]
    for i, cur in enumerate(perms):     # perms grows as it is walked
        for gi, p in enumerate(gens):
            # discover cur∘p (apply the generator first, then cur)
            new = cur[p]
            key = new.tobytes()
            if key not in index:
                index[key] = len(perms)
                perms.append(new)
                parent.append(i)
                via.append(gi)
                if cap is not None and len(perms) > cap:
                    raise ResourceCapError(
                        f"permutation closure exceeds order cap {cap}")
    return perms, parent, via, index


def _greedy_generators(G, members):
    """Generators of <members>: each member, in order, that is not yet
    in the closure of those kept, yielded before the closure grows."""
    got = np.zeros(G.order, dtype=bool)
    gens = []
    for g in map(int, members):
        if g and not got[g]:
            yield g
            gens.append(g)
            got[_closure_members(G, gens)] = True


def orbit_labels(size, maps):
    """The least point of each point's orbit under the permutations
    ``maps`` of 0..size-1.  label = min(label, label[m]) is repeated
    until nothing changes; then label[i] <= label[m[i]] around every
    cycle of every map, so labels are constant on orbits."""
    label = np.arange(size, dtype=np.int64)
    while True:
        prev = label.copy()
        for m in maps:
            np.minimum(label, label[m], out=label)
        if np.array_equal(label, prev):
            return label

