"""Validation machinery: König certificates must accept exactly the maxima."""

import numpy as np
import pytest

from repro.sparse import COO, CSC
from repro.sparse.spvec import NULL
from repro.matching import hopcroft_karp
from repro.matching.validate import (
    cardinality,
    is_maximal_matching,
    is_valid_matching,
    is_vertex_cover,
    koenig_vertex_cover,
    verify_maximum,
)

from .conftest import random_bipartite
from ..helpers import coo_from_edges


def test_cardinality():
    assert cardinality(np.array([NULL, 3, NULL, 0])) == 2
    assert cardinality(np.array([], dtype=np.int64)) == 0


def test_valid_matching_accepts_correct():
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 1)]))
    assert is_valid_matching(a, np.array([0, 1]), np.array([0, 1]))


def test_valid_matching_rejects_non_mutual():
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 1)]))
    assert not is_valid_matching(a, np.array([0, NULL]), np.array([1, NULL]))


def test_valid_matching_rejects_non_edges():
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 1)]))
    assert not is_valid_matching(a, np.array([1, 0]), np.array([1, 0]))


def test_valid_matching_rejects_wrong_lengths_and_range():
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0)]))
    assert not is_valid_matching(a, np.array([0]), np.array([0, NULL]))
    assert not is_valid_matching(a, np.array([5, NULL]), np.array([NULL, NULL]))


def test_maximal_detects_extendable():
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 1)]))
    empty_r = np.full(2, NULL, np.int64)
    empty_c = np.full(2, NULL, np.int64)
    assert not is_maximal_matching(a, empty_r, empty_c)
    assert is_maximal_matching(a, np.array([0, 1]), np.array([0, 1]))


def test_koenig_cover_on_star():
    """Star: one row, 3 columns.  Min cover = the row; matching = 1."""
    a = CSC.from_coo(coo_from_edges(1, 3, [(0, 0), (0, 1), (0, 2)]))
    mr, mc = hopcroft_karp(a)
    rows, cols = koenig_vertex_cover(a, mr, mc)
    assert is_vertex_cover(a, rows, cols)
    assert int(rows.sum() + cols.sum()) == 1
    assert verify_maximum(a, mr, mc)


def test_verify_maximum_rejects_non_maximum():
    """On the 2-path, the size-1 'lazy' matching must be rejected."""
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 0), (1, 1)]))
    lazy_r = np.array([NULL, 0], dtype=np.int64)
    lazy_c = np.array([1, NULL], dtype=np.int64)
    assert is_valid_matching(a, lazy_r, lazy_c)
    assert not verify_maximum(a, lazy_r, lazy_c)


def test_verify_maximum_rejects_invalid():
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 1)]))
    assert not verify_maximum(a, np.array([1, 0]), np.array([1, 0]))


@pytest.mark.parametrize("seed", range(8))
def test_certificate_equals_scipy_on_random(seed):
    from .conftest import scipy_optimum

    a = random_bipartite(40, 50, 250, seed)
    mr, mc = hopcroft_karp(a)
    assert verify_maximum(a, mr, mc)
    rows, cols = koenig_vertex_cover(a, mr, mc)
    assert int(rows.sum() + cols.sum()) == scipy_optimum(a)


def test_empty_graph_certificate():
    a = CSC.from_coo(COO.empty(3, 3))
    mr = np.full(3, NULL, np.int64)
    mc = np.full(3, NULL, np.int64)
    assert verify_maximum(a, mr, mc)
    rows, cols = koenig_vertex_cover(a, mr, mc)
    assert is_vertex_cover(a, rows, cols)
    assert int(rows.sum() + cols.sum()) == 0
