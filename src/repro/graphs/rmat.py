"""RMAT: the Recursive MATrix generator (Chakrabarti, Zhan & Faloutsos).

Section V-B of the paper: "we used RMAT ... to generate three different
classes of synthetic matrices: (a) G500 matrices representing graphs with
skewed degree distributions from the Graph 500 benchmark, (b) SSCA matrices
from the HPCS SSCA#2 benchmark, and (c) ER matrices representing Erdős-Rényi
random graphs" with seed parameters

=======  =====  ==========  =====
class      a      b = c       d
=======  =====  ==========  =====
G500      .57      .19       .05
SSCA      .60     .4/3       .4/3
ER        .25      .25       .25
=======  =====  ==========  =====

A scale-n matrix is 2ⁿ × 2ⁿ; average nonzeros per row are 32 for G500/ER
and 16 for SSCA (so scale-30 G500 has ~1 G rows and ~32 G nonzeros, the
paper's largest instance).

Implementation: fully vectorized — all ``m`` edges descend the recursion's
``scale`` levels simultaneously, each level adding one bit to the row and
column indices according to a quadrant draw.  Duplicate edges are removed
(matching Graph 500 practice), so realized nnz is slightly below
``edgefactor · 2ⁿ`` for skewed parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.coo import COO


@dataclass(frozen=True)
class RmatParams:
    """Quadrant probabilities of one RMAT recursion level."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        total = self.a + self.b + self.c + self.d
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"RMAT parameters must sum to 1, got {total}")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("RMAT parameters must be non-negative")


#: Graph 500 parameters (skewed power-law-like degree distribution).
G500_PARAMS = RmatParams(a=0.57, b=0.19, c=0.19, d=0.05)
#: HPCS SSCA#2 parameters (mildly skewed).
SSCA_PARAMS = RmatParams(a=0.6, b=0.4 / 3, c=0.4 / 3, d=0.4 / 3)
#: Erdős-Rényi (uniform) parameters.
ER_PARAMS = RmatParams(a=0.25, b=0.25, c=0.25, d=0.25)


def rmat_graph(
    scale: int,
    edgefactor: int,
    params: RmatParams,
    seed: int = 0,
    *,
    permute: bool = True,
) -> COO:
    """Generate a scale-``scale`` RMAT pattern matrix (2^scale × 2^scale).

    ``edgefactor`` is the average nonzeros per row *before* deduplication.
    ``permute=True`` applies the random vertex relabeling the paper uses for
    load balance (it also removes RMAT's locality artifacts).
    """
    if scale < 0 or scale > 30:
        raise ValueError(f"scale must be in [0, 30], got {scale}")
    n = 1 << scale
    m = int(edgefactor) * n
    rng = np.random.default_rng(seed)
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    # Quadrant thresholds: [a, a+b, a+b+c, 1] — one uniform draw per
    # (edge, level) decides (row bit, col bit).  In place: one draw buffer
    # and two bit buffers serve every level.
    t1, t2, t3 = params.a, params.a + params.b, params.a + params.b + params.c
    u, row_bit, col_bit = np.empty(m), np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    for _level in range(scale):
        rng.random(out=u)
        np.greater_equal(u, t2, out=row_bit)              # quadrants c, d
        rows <<= 1
        rows |= row_bit
        # quadrant b is t1 <= u < t2, i.e. (u >= t1) xor (u >= t2); d is u >= t3
        np.greater_equal(u, t1, out=col_bit)
        col_bit ^= row_bit
        cols <<= 1
        cols |= col_bit
        np.greater_equal(u, t3, out=col_bit)
        cols |= col_bit
    del u, row_bit, col_bit
    coo = COO(n, n, rows, cols)  # dedup happens here
    if permute:
        from ..sparse.permute import randomly_permuted

        coo, _, _ = randomly_permuted(coo, rng)
    return coo


def g500(scale: int, seed: int = 0, edgefactor: int = 32, **kw) -> COO:
    """Graph 500 RMAT matrix at the paper's default edgefactor 32."""
    return rmat_graph(scale, edgefactor, G500_PARAMS, seed, **kw)


def ssca(scale: int, seed: int = 0, edgefactor: int = 16, **kw) -> COO:
    """SSCA#2 RMAT matrix at the paper's default edgefactor 16."""
    return rmat_graph(scale, edgefactor, SSCA_PARAMS, seed, **kw)


def er(scale: int, seed: int = 0, edgefactor: int = 32, **kw) -> COO:
    """Erdős-Rényi RMAT matrix at the paper's default edgefactor 32."""
    return rmat_graph(scale, edgefactor, ER_PARAMS, seed, **kw)
