"""Seeded benchmark inputs: catalog groups under an identity-fixing relabelling.

The benchmark hands the program only groups it built here.  Each group
is a catalog group whose elements are renamed by a permutation that
keeps the identity at 0.  The renamed Cayley table and the renamed
catalog generators enter the program through the public
``FiniteGroup.from_table`` path, the one ``group_from_json({"cayley":
...})`` takes.  The generators come along because without them the
program picks a generating set greedily by element index, and the cost
of the A5 automorphism search then swings several-fold from one
labelling to the next.  Seed 0 keeps the catalog labelling.  Every
reference check in ``workloads`` is invariant under relabelling, so a
change that only works for the catalog's element order fails on other
seeds.
"""

import numpy as np


def relabelling(n, rng):
    """A permutation p of 0..n-1 with p[0] == 0 (old label -> new label)."""
    return np.concatenate([[0], 1 + rng.permutation(n - 1)]).astype(np.int64)


def relabelled_table(G, p):
    """The Cayley table of G after renaming each element x to p[x].

    Built row by row, so the only full-size array is the result.
    """
    back = np.argsort(p)
    first = np.asarray(G.row(0))
    labels = p.astype(first.dtype)
    table = np.empty((G.order, G.order), dtype=first.dtype)
    for new, old in enumerate(back):
        table[new] = labels[np.asarray(G.row(int(old)))[back]]
    return table


def build_inputs(rb, idents, seed):
    """Relabelled copies of the catalog groups ``idents``, in order.

    One generator seeded with ``seed`` draws the permutations in the
    order of ``idents``, so the same seed gives the same inputs.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for ident in idents:
        catalog = rb.named_group(ident)
        n = catalog.order
        p = relabelling(n, rng) if seed != 0 else np.arange(n)
        table = relabelled_table(catalog, p)
        gens = tuple(int(p[g]) for g in catalog.gens)
        del catalog     # only the input group stays alive
        out[ident] = rb.FiniteGroup.from_table(table, name=ident, gens=gens)
    return out
