"""Structural generators and the Table II stand-in suite."""

import numpy as np
import pytest

from repro.graphs import generators as G
from repro.graphs.suite import LARGE, REPRESENTATIVE, SMALL, SUITE, load
from repro.matching import maximal_matching
from repro.sparse import CSC

from ..helpers import long_path


def test_mesh2d_degrees_and_symmetry():
    g = G.mesh_rect(10, 10)
    assert g.shape == (100, 100)
    deg = g.row_degrees()
    assert deg.max() <= 4
    assert g == g.transpose()  # symmetric pattern


def test_mesh2d_diagonals_raise_degree():
    g = G.mesh_rect(10, 10, diagonals=True)
    assert g.row_degrees().max() <= 8
    assert g.row_degrees().max() > 4


def test_mesh2d_drop_reduces_edges():
    full = G.mesh_rect(20, 20)
    dropped = G.mesh_rect(20, 20, drop=0.3, seed=1)
    assert dropped.nnz < full.nnz


def test_triangulation_average_degree_near_six():
    g = G.triangulation_like(2000, seed=0)
    avg = g.nnz / g.nrows
    assert 4.0 <= avg <= 7.0
    assert g == g.transpose()


def test_banded_stays_near_diagonal():
    g = G.banded(500, bandwidth=10, per_row=5, seed=0)
    assert (np.abs(g.rows - g.cols) <= 10).all()
    # near-full structural rank: partial diagonal + dense band
    mr, _ = maximal_matching(g, "greedy")
    from repro.matching.validate import cardinality
    assert cardinality(mr) > 450


def test_banded_full_diagonal_gives_full_rank():
    g = G.banded(300, bandwidth=5, per_row=3, seed=1, diag_frac=1.0)
    mr, _ = maximal_matching(g, "greedy")
    from repro.matching.validate import cardinality
    assert cardinality(mr) == 300


def test_kkt_block_has_zero_block_structure():
    g = G.kkt_block(300, seed=0)
    n = 300 + 150
    assert g.shape == (n, n)
    # (2,2) block (constraint x constraint) must be empty
    in_22 = (g.rows >= 300) & (g.cols >= 300)
    assert not in_22.any()
    assert g == g.transpose()


def test_clique_overlap_is_dense_locally():
    g = G.clique_overlap(200, clique_size=10, seed=0)
    assert g.row_degrees().mean() > 8
    assert g == g.transpose()


def test_boundary_map_rectangular_fixed_coldegree():
    g = G.boundary_map(300, 200, per_col=7, seed=0)
    assert g.shape == (300, 200)
    # dedup can only lower column degree below per_col
    assert (g.col_degrees() <= 7).all()
    assert g.col_degrees().mean() > 6


def test_long_path_diameter():
    g = long_path(50)
    deg = g.row_degrees()
    assert (deg[1:-1] == 2).all() and deg[0] == deg[-1] == 1


# -- suite ------------------------------------------------------------------------

def test_suite_has_thirteen_entries_with_paper_stats():
    assert len(SUITE) == 13
    for e in SUITE.values():
        assert e.paper_rows > 0 and e.paper_nnz > 0
        assert e.description


def test_suite_splits_cover_all():
    assert set(SMALL) | set(LARGE) == set(SUITE)
    assert not set(SMALL) & set(LARGE)
    assert set(REPRESENTATIVE) <= set(SUITE)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_entries_build_and_match(name):
    g = load(name, reduction=65536, seed=0)
    assert g.nnz > 0
    # every stand-in must be usable by the matching stack end to end
    csc = CSC.from_coo(g)
    mr, mc = maximal_matching(csc, "greedy")
    from repro.matching.validate import is_maximal_matching, is_valid_matching
    assert is_valid_matching(csc, mr, mc)
    assert is_maximal_matching(csc, mr, mc)


def test_suite_gl7d19_is_rectangular():
    g = load("GL7d19", reduction=8192)
    assert g.nrows != g.ncols


def test_suite_reduction_scales_size():
    small = load("road_usa", reduction=131072)
    big = load("road_usa", reduction=16384)
    assert big.nnz > small.nnz


def test_suite_unknown_name():
    with pytest.raises(KeyError, match="unknown suite matrix"):
        load("does-not-exist")


def test_suite_entry_target_n_and_validation():
    e = SUITE["road_usa"]
    with pytest.raises(ValueError):
        e.make(reduction=0)
