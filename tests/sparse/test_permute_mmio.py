"""Permutation utilities and MatrixMarket I/O."""

import numpy as np
import pytest

from repro.sparse import COO, mmio
from repro.sparse.permute import (
    inverse_permutation,
    matching_to_permutation,
    random_permutation,
    randomly_permuted,
    unpermute_matching,
)
from repro.sparse.spvec import NULL

from ..helpers import coo_from_edges, write_mm


def test_random_permutation_is_permutation():
    p = random_permutation(100, np.random.default_rng(0))
    assert sorted(p.tolist()) == list(range(100))


def test_inverse_permutation():
    p = random_permutation(50, np.random.default_rng(1))
    inv = inverse_permutation(p)
    assert np.array_equal(p[inv], np.arange(50))
    assert np.array_equal(inv[p], np.arange(50))


def test_randomly_permuted_preserves_graph_structure():
    rng = np.random.default_rng(2)
    a = coo_from_edges(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)])
    b, rp, cp = randomly_permuted(a, rng)
    assert b.nnz == a.nnz
    # un-permuting recovers the original
    inv_r, inv_c = inverse_permutation(rp), inverse_permutation(cp)
    assert b.permuted(inv_r, inv_c) == a


def test_unpermute_matching_round_trip():
    rng = np.random.default_rng(3)
    n1, n2 = 6, 5
    rp = random_permutation(n1, rng)
    cp = random_permutation(n2, rng)
    # matching on the permuted matrix: new row i matched to new col i (i<4)
    mate_r_new = np.full(n1, NULL, np.int64)
    mate_c_new = np.full(n2, NULL, np.int64)
    for i in range(4):
        mate_r_new[i] = i
        mate_c_new[i] = i
    mate_r, mate_c = unpermute_matching(mate_r_new, mate_c_new, rp, cp)
    # consistency: mate_c[mate_r[i]] == i for matched i, and the pairing maps
    # through the permutations correctly
    for old_r in range(n1):
        if mate_r[old_r] != NULL:
            assert mate_c[mate_r[old_r]] == old_r
            assert mate_r_new[rp[old_r]] == cp[mate_r[old_r]]
    assert (mate_r != NULL).sum() == 4


def test_matching_to_permutation_perfect():
    # square, perfect matching: col j matched to row mate_c[j]
    mate_c = np.array([2, 0, 1], dtype=np.int64)
    perm = matching_to_permutation(mate_c, nrows=3)
    # row mate_c[j] must be sent to position j
    for j, r in enumerate(mate_c):
        assert perm[r] == j
    assert sorted(perm.tolist()) == [0, 1, 2]


def test_matching_to_permutation_deficient():
    # 4 rows, 3 cols, only cols 0 and 2 matched
    mate_c = np.array([3, NULL, 0], dtype=np.int64)
    perm = matching_to_permutation(mate_c, nrows=4)
    assert perm[3] == 0 and perm[0] == 2
    assert sorted(perm.tolist()) == [0, 1, 2, 3]


def test_matching_to_permutation_rejects_bad_rows():
    with pytest.raises(ValueError):
        matching_to_permutation(np.array([7]), nrows=3)


# -- MatrixMarket ---------------------------------------------------------------

def test_mm_write_read_round_trip(tmp_path):
    a = coo_from_edges(4, 6, [(0, 0), (1, 3), (3, 5), (2, 2)])
    path = tmp_path / "a.mtx"
    write_mm(a, path)
    b = mmio.read_mm(path)
    assert b == a


def test_mm_read_real_field_ignores_values(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment line\n"
        "2 2 2\n"
        "1 1 3.5\n"
        "2 2 -1.0\n"
    )
    a = mmio.read_mm(path)
    assert a.shape == (2, 2) and a.nnz == 2


def test_mm_read_symmetric_expands(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "3 3 2\n"
        "2 1\n"
        "3 3\n"
    )
    a = mmio.read_mm(path)
    pairs = set(zip(a.rows.tolist(), a.cols.tolist()))
    assert pairs == {(1, 0), (0, 1), (2, 2)}


def test_mm_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("hello world\n")
    with pytest.raises(ValueError):
        mmio.read_mm(path)


def test_mm_read_rejects_wrong_count(tmp_path):
    path = tmp_path / "bad2.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 3\n"
        "1 1\n"
    )
    with pytest.raises(ValueError):
        mmio.read_mm(path)


def test_mm_empty_matrix_round_trip(tmp_path):
    a = COO.empty(3, 2)
    path = tmp_path / "e.mtx"
    write_mm(a, path)
    b = mmio.read_mm(path)
    assert b.shape == (3, 2) and b.nnz == 0
