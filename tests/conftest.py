import os

import numpy as np
import pytest

import rbgroups as rb


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RBGROUPS_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="long run; set RBGROUPS_SLOW=1 to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def _relabelled(ident):
    """The catalog group ``ident``, or for ``name~seed`` the group
    ``name`` with its non-identity elements renumbered at random."""
    name, _, seed = ident.partition("~")
    G = rb.named_group(name)
    if not seed:
        return G
    rng = np.random.default_rng(int(seed))
    sigma = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    table = np.empty((G.order, G.order), dtype=np.int64)
    table[np.ix_(sigma, sigma)] = sigma[G.mul_block(np.arange(G.order), np.arange(G.order))]
    return rb.FiniteGroup.from_table(table, name=ident)


@pytest.fixture
def relabelled():
    return _relabelled


def _extend_one(G, H, srcs, imgs):
    """The unique map G -> H with the given generator images, or None:
    one breadth-first search over the Cayley graph for one candidate,
    checking every edge.  Kept as the independent oracle of the batched
    image search ``automorphisms._extend_batch``."""
    n = G.order
    img = np.full(n, -1, dtype=np.int64)
    img[0] = 0
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        nxt = []
        for s, si in zip(srcs, imgs):
            gs = G.col(int(s))[frontier]
            hs = H.col(int(si))[img[frontier]]
            unseen = img[gs] == -1
            img[gs[unseen]] = hs[unseen]
            if (img[gs] != hs).any():
                return None
            nxt.append(gs[unseen])
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, np.int64)
    if (img == -1).any():
        return None
    return img


@pytest.fixture
def extend_one():
    return _extend_one


def direct_square(G):
    """G x G as a tabled group, the pair (a, b) coded a·|G| + b: the
    test-side product of the graph oracles, for small G only."""
    n = G.order
    t = G.mul_block(np.arange(n), np.arange(n))
    table = (t[:, None, :, None] * n + t[None, :, None, :]).reshape(n * n, n * n)
    return rb.FiniteGroup.from_table(table, name=f"{G.name} x {G.name}")


def graph_codes(op):
    """The graph {(B(g), g B(g))} of ``op`` as sorted pair codes."""
    G = op.group
    return np.sort(op.images * G.order + G.mul_vec(np.arange(G.order), op.images))


def code_permutation(t):
    """p[c] is the code of the image under the transform ``t`` of the
    pair with code c."""
    n = t.fa.size
    if t.kind == "plain":
        return np.add.outer(t.fa * n, t.fb).ravel()
    return np.add.outer(t.fa, t.fb * n).ravel()


def operator_images(G, codes):
    """The images of the operator whose graph has the pair codes
    ``codes``, or None unless there are |G| of them and their
    differences (a, b) -> b a^-1 are distinct."""
    a, b = np.divmod(np.asarray(codes, dtype=np.int64), G.order)
    images = np.full(G.order, -1, dtype=np.int64)
    images[G.mul_vec(b, G.inverse[a])] = a
    return None if a.size != G.order or (images < 0).any() else images
