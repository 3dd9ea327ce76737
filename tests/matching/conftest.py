"""Shared fixtures/helpers for matching tests."""

import numpy as np
import pytest

from repro.sparse import COO, CSC

from ..helpers import coo_from_edges


def random_bipartite(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return CSC.from_coo(COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m)))


def scipy_optimum(a: CSC) -> int:
    """Ground-truth MCM cardinality via scipy's Hopcroft-Karp."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    coo = a.to_coo()
    sp = csr_matrix(
        (np.ones(coo.nnz), (coo.rows, coo.cols)), shape=(coo.nrows, coo.ncols)
    )
    return int((maximum_bipartite_matching(sp.tocsr(), perm_type="column") >= 0).sum())


@pytest.fixture
def fig2():
    """The paper's Fig. 2 example graph (5x5)."""
    edges = [
        (0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
        (3, 2), (1, 4), (3, 4), (4, 4), (4, 3),
    ]
    return CSC.from_coo(coo_from_edges(5, 5, edges))
