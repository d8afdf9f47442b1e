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
