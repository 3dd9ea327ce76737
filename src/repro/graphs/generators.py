"""Structural graph generators for the Table II stand-in suite.

Each generator produces a square (or deliberately rectangular) pattern
matrix mimicking one structural class of the paper's real inputs.  The
features that matter for matching behaviour — degree distribution, diameter
(which sets the number of BFS iterations per phase), rectangularity, and
structural deficiency (how many vertices a maximal matching leaves
unmatched) — are matched per class; see ``suite.py`` for the mapping.
"""

from __future__ import annotations

import numpy as np

from ..sparse.coo import COO


def _sym(n: int, rows: np.ndarray, cols: np.ndarray) -> COO:
    """Symmetrize an edge list (road networks etc. are symmetric patterns)."""
    return COO(n, n, np.concatenate([rows, cols]), np.concatenate([cols, rows]))


def mesh_rect(w: int, h: int, diagonals: bool = False, drop: float = 0.0, seed: int = 0) -> COO:
    """w×h grid mesh (road-network-like) with independently chosen width
    and depth.

    Scaled-down road stand-ins use a bounded ``h`` (BFS depth ∝ h) and put
    the remaining vertices into ``w`` (frontier width ∝ w): a reduced
    square mesh would otherwise shrink the frontier *width* — the source of
    parallelism — by the full reduction factor, misrepresenting how the
    24M-vertex originals behave on hundreds of ranks.
    """
    n = w * h
    idx = np.arange(n, dtype=np.int64)
    x, y = idx % w, idx // w
    rows_list = []
    cols_list = []
    right = idx[x < w - 1]
    rows_list.append(right); cols_list.append(right + 1)
    down = idx[y < h - 1]
    rows_list.append(down); cols_list.append(down + w)
    if diagonals:
        diag = idx[(x < w - 1) & (y < h - 1)]
        rows_list.append(diag); cols_list.append(diag + w + 1)
        anti = idx[(x > 0) & (y < h - 1)]
        rows_list.append(anti); cols_list.append(anti + w - 1)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    if drop > 0:
        rng = np.random.default_rng(seed)
        keep = rng.random(rows.size) >= drop
        rows, cols = rows[keep], cols[keep]
    return _sym(n, rows, cols)


def triangulation_like(n: int, seed: int = 0) -> COO:
    """Delaunay-like graph: ~6 neighbors per vertex, planar-ish locality.

    Random points on a unit square, each connected to its ~3 nearest
    neighbors within a bucket grid (symmetrized → average degree ≈ 6, the
    Delaunay average), preserving the short-local-edge structure that gives
    delaunay_n24 its moderate diameter.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    k = max(1, int(np.sqrt(n)))
    bucket = (np.minimum((pts[:, 0] * k).astype(np.int64), k - 1) * k
              + np.minimum((pts[:, 1] * k).astype(np.int64), k - 1))
    order = np.argsort(bucket, kind="stable")
    # connect each point to the next few points in bucket order (locality)
    src = order[:-1]
    rows = [src, order[:-2], order[:-3] if n > 3 else np.empty(0, np.int64)]
    cols = [order[1:], order[2:], order[3:] if n > 3 else np.empty(0, np.int64)]
    return _sym(n, np.concatenate(rows), np.concatenate(cols))


def banded(n: int, bandwidth: int, per_row: int, seed: int = 0, diag_frac: float = 0.7) -> COO:
    """Banded random pattern (cage-like: DNA-walk matrices concentrate
    nonzeros near the diagonal with a few per row).

    Only ``diag_frac`` of the diagonal is explicitly present, leaving a
    sliver of structural slack for the maximal-matching stage to miss (as
    the large cage matrices do at full scale).
    """
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    offs = rng.integers(-bandwidth, bandwidth + 1, rows.size)
    cols = np.clip(rows + offs, 0, n - 1)
    diag = np.flatnonzero(rng.random(n) < diag_frac).astype(np.int64)
    return COO(n, n, np.concatenate([rows, diag]), np.concatenate([cols, diag]))


def kkt_block(base: int, seed: int = 0) -> COO:
    """KKT-structured pattern like nlpkkt:  [[H  Aᵀ],[A  0]] with H a banded
    SPD-like block (3D mesh stencil) and A a wide constraint block.

    The zero (2,2) block makes the matrix structurally harder: its rows can
    only match through A, producing the deficiency pattern of optimization
    KKT systems.
    """
    rng = np.random.default_rng(seed)
    nh = base              # H block: nh x nh
    na = base // 2         # A block: na x nh
    n = nh + na
    # H: tridiagonal + mesh-like offsets
    i = np.arange(nh, dtype=np.int64)
    h_rows = [i, i[:-1], i[:-1]]
    h_cols = [i, i[:-1] + 1, i[:-1]]
    off = max(1, int(np.sqrt(nh)))
    h_rows.append(i[:-off]); h_cols.append(i[:-off] + off)
    hr = np.concatenate(h_rows); hc = np.concatenate(h_cols)
    # A: each constraint row touches ~3 random H columns
    a_rows = np.repeat(np.arange(na, dtype=np.int64), 3) + nh
    a_cols = rng.integers(0, nh, a_rows.size)
    # assemble symmetrically: H and Hᵀ, A and Aᵀ
    rows = np.concatenate([hr, hc, a_rows, a_cols])
    cols = np.concatenate([hc, hr, a_cols, a_rows])
    return COO(n, n, rows, cols)


def clique_overlap(n: int, clique_size: int, seed: int = 0) -> COO:
    """Union of overlapping cliques (coPapersDBLP-like co-authorship):
    consecutive windows of ``clique_size`` vertices form cliques, with the
    windows overlapping by half."""
    step = max(1, clique_size // 2)
    starts = np.arange(0, max(1, n - clique_size + 1), step, dtype=np.int64)
    local_i, local_j = np.triu_indices(clique_size, k=1)
    rows = (starts[:, None] + local_i[None, :]).ravel()
    cols = (starts[:, None] + local_j[None, :]).ravel()
    keep = (rows < n) & (cols < n)
    return _sym(n, rows[keep], cols[keep])


def boundary_map(n1: int, n2: int, per_col: int, seed: int = 0, cluster_frac: float = 0.25) -> COO:
    """Very rectangular fixed-column-degree pattern (GL7d19-like simplicial
    boundary map: every column has ``per_col`` nonzeros at quasi-random
    rows).

    A ``cluster_frac`` share of the columns draws its rows from a small
    window (n1/16 rows): boundary maps repeat low-dimensional faces, which
    is what gives GL7d19 its large structural deficiency.
    """
    rng = np.random.default_rng(seed)
    cols = np.repeat(np.arange(n2, dtype=np.int64), per_col)
    rows = rng.integers(0, n1, cols.size)
    # cluster whole columns (a clustered column's entire support sits in the
    # window, so an excess of such columns is structurally unmatchable)
    clustered_cols = rng.random(n2) < cluster_frac
    window = max(2, n1 // 16)
    mask = clustered_cols[cols]
    rows[mask] = rng.integers(0, window, int(mask.sum()))
    return COO(n1, n2, rows, cols)


# ---------------------------------------------------------------------------
# edge weights (the maximum-WEIGHT matching workload)
# ---------------------------------------------------------------------------

#: Weight distributions ``edge_weights`` understands.  "uniform" draws
#: dyadic rationals in (0, 1]; "skewed" a power-law-ish ladder of 16
#: magnitude levels 2^0 .. 2^-15 (rare heavy edges, many exact ties per
#: level); "intbounded" integers in [1, bound] (dense ties — the auction's
#: worst case for bidding wars).
WEIGHT_DISTS = ("uniform", "skewed", "intbounded")


def _mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out)."""
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def edge_weights(
    coo: COO, dist: str = "uniform", seed: int = 0, *, bound: int = 16
) -> np.ndarray:
    """Deterministic per-EDGE weights for a pattern matrix.

    The weight of edge (i, j) is a pure hash of ``(i, j, seed)``, so it is
    independent of the storage order of the COO arrays and of any later
    partitioning — every rank of a distributed run derives the same weight
    for the same edge without communication.  All weights are positive and
    exact dyadic floats (binary fractions), so cross-platform float
    comparisons in the auction are reproducible bit for bit.
    """
    if dist not in WEIGHT_DISTS:
        raise ValueError(f"unknown weight distribution {dist!r}; choose from {WEIGHT_DISTS}")
    with np.errstate(over="ignore"):
        h = _mix64(
            coo.rows.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + coo.cols.astype(np.uint64)
            + np.uint64(seed) * np.uint64(0xD1B54A32D192ED03)
        )
    # 20 high bits -> dyadic uniform u in [0, 1) with exactly 2^20 levels
    u = (h >> np.uint64(44)).astype(np.float64) / float(1 << 20)
    if dist == "uniform":
        return u + 1.0 / (1 << 20)  # shift into (0, 1]
    if dist == "skewed":
        return np.ldexp(1.0, -(np.floor(u * 16.0)).astype(np.int64))
    return np.floor(u * bound) + 1.0  # "intbounded": integers 1..bound as floats
