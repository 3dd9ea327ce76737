"""The Table II input suite: structurally matched stand-ins.

The paper evaluates on 13 large matrices from the University of Florida
(SuiteSparse) collection.  Without network access those files are
unavailable, so each entry here pairs the paper's matrix with a synthetic
generator of the same *structural class* (see DESIGN.md §2 for the
substitution argument).  ``load(name, reduction)`` produces the stand-in at
1/reduction of the paper's scale — benches default to reductions that keep
pure-Python runtimes in seconds while preserving each matrix's qualitative
behaviour (diameter, skew, deficiency).

Every entry records the paper's dimensions/nonzeros so EXPERIMENTS.md can
print paper-vs-reproduction rows for Table II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..sparse.coo import COO
from . import generators as G
from . import rmat


@dataclass(frozen=True)
class SuiteEntry:
    """One Table II matrix: paper identity + stand-in generator.

    ``paper_rows``/``paper_cols``/``paper_nnz`` are the original matrix's
    statistics (from the SuiteSparse collection); ``make(reduction, seed)``
    builds the synthetic stand-in with roughly ``paper_nnz / reduction``
    nonzeros.
    """

    name: str
    kind: str
    paper_rows: int
    paper_cols: int
    paper_nnz: int
    description: str
    _builder: Callable[[int, int], COO]

    def make(self, reduction: int = 4096, seed: int = 0) -> COO:
        """Instantiate the stand-in at the given reduction factor."""
        if reduction < 1:
            raise ValueError("reduction must be >= 1")
        return self._builder(reduction, seed)


def _grid_side(n: int) -> int:
    return max(8, int(math.isqrt(n)))


def _entry_builders() -> list[SuiteEntry]:
    def road(paper_rows):
        def build(reduction, seed, _pr=paper_rows):
            n = max(64, _pr // reduction)
            # bound BFS depth: a reduced square mesh would shrink frontier
            # width (= parallelism) by the full reduction factor
            h = min(_grid_side(n), 96)
            w = max(8, n // h)
            return G.mesh_rect(w, h, diagonals=False, drop=0.12, seed=seed)
        return build

    def powerlaw(paper_rows, edgefactor):
        def build(reduction, seed, _pr=paper_rows, _ef=edgefactor):
            scale = max(6, int(math.log2(max(64, _pr // reduction))))
            return rmat.rmat_graph(scale, _ef, rmat.G500_PARAMS, seed)
        return build

    entries = [
        SuiteEntry(
            "amazon-2008", "power-law (co-purchase)", 735_323, 735_323, 5_158_388,
            "Skewed-degree product network; the paper's hardest-to-scale "
            "small matrix (Fig. 4 left, Fig. 5).",
            powerlaw(735_323, 7),
        ),
        SuiteEntry(
            "cit-Patents", "power-law (citations)", 3_774_768, 3_774_768, 16_518_948,
            "Patent citation network; skewed, shallow BFS.",
            powerlaw(3_774_768, 4),
        ),
        SuiteEntry(
            "GL7d19", "rectangular boundary map", 1_911_130, 1_955_309, 37_322_725,
            "Simplicial boundary map: very rectangular, uniform small "
            "column degree, large structural deficiency.",
            lambda reduction, seed: G.boundary_map(
                max(64, 1_911_130 // reduction),
                max(64, 1_955_309 // reduction),
                per_col=19, seed=seed,
            ),
        ),
        SuiteEntry(
            "wikipedia-20070206", "power-law (hyperlinks)", 3_566_907, 3_566_907, 45_030_389,
            "Web-like link graph; the one input where Karp-Sipser's "
            "better approximation ratio pays off (Fig. 3).",
            powerlaw(3_566_907, 12),
        ),
        SuiteEntry(
            "cage15", "banded (DNA walk)", 5_154_859, 5_154_859, 99_199_551,
            "Electrophoresis transition matrix: near-banded, ~19 nnz/row, "
            "well-conditioned for matching.",
            lambda reduction, seed: G.banded(
                max(64, 5_154_859 // reduction), bandwidth=40, per_row=18, seed=seed,
            ),
        ),
        SuiteEntry(
            "delaunay_n24", "planar triangulation", 16_777_216, 16_777_216, 100_663_202,
            "Delaunay triangulation: degree ~6, moderate diameter; the "
            "paper's best scaler (18x at 2048 cores).",
            lambda reduction, seed: G.triangulation_like(
                max(64, 16_777_216 // reduction), seed=seed,
            ),
        ),
        SuiteEntry(
            "europe_osm", "road network", 50_912_018, 50_912_018, 108_109_320,
            "OpenStreetMap Europe: degree ≤ 4 (mostly 2), enormous diameter "
            "-> many BFS iterations per phase.",
            road(50_912_018),
        ),
        SuiteEntry(
            "hugetrace-00020", "long-diameter mesh", 16_002_413, 16_002_413, 47_997_626,
            "Frame sequence of 2D adaptive triangulations; near-planar.",
            lambda reduction, seed: G.mesh_rect(
                max(8, (n := max(64, 16_002_413 // reduction)) // min(_grid_side(n), 128)),
                min(_grid_side(max(64, 16_002_413 // reduction)), 128),
                diagonals=True, drop=0.25, seed=seed,
            ),
        ),
        SuiteEntry(
            "hugebubbles-00020", "long-diameter mesh", 21_198_119, 21_198_119, 63_580_358,
            "2D bubble mesh; like hugetrace at larger scale.",
            lambda reduction, seed: G.mesh_rect(
                max(8, (n := max(64, 21_198_119 // reduction)) // min(_grid_side(n), 128)),
                min(_grid_side(max(64, 21_198_119 // reduction)), 128),
                diagonals=True, drop=0.2, seed=seed + 1,
            ),
        ),
        SuiteEntry(
            "road_usa", "road network", 23_947_347, 23_947_347, 57_708_624,
            "USA road network; the paper's breakdown exemplar (Fig. 5: "
            "SpMV 80%→60% of runtime from 48 to 2048 cores).",
            road(23_947_347),
        ),
        SuiteEntry(
            "nlpkkt200", "KKT optimization block", 16_240_000, 16_240_000, 448_225_632,
            "3D PDE-constrained optimization KKT system; the paper's "
            "largest real input (used in the Fig. 9 gather argument).",
            lambda reduction, seed: G.kkt_block(
                max(64, int(16_240_000 // reduction * 2 / 3)), seed=seed,
            ),
        ),
        SuiteEntry(
            "kron_g500-logn21", "Graph500 Kronecker", 2_097_152, 2_097_152, 182_081_864,
            "Kronecker (RMAT) Graph 500 matrix at scale 21.",
            powerlaw(2_097_152, 32),
        ),
        SuiteEntry(
            "coPapersDBLP", "overlapping cliques", 540_486, 540_486, 30_491_458,
            "Co-authorship: dense overlapping cliques, high average degree.",
            lambda reduction, seed: G.clique_overlap(
                max(64, 540_486 // max(1, reduction // 8)),
                clique_size=24, seed=seed,
            ),
        ),
    ]
    return entries


#: The 13 Table II matrices, keyed by the paper's names.
SUITE: dict[str, SuiteEntry] = {e.name: e for e in _entry_builders()}

#: The four "representative" matrices the paper uses in Figs. 3, 5 and 7.
REPRESENTATIVE = ["amazon-2008", "wikipedia-20070206", "road_usa", "delaunay_n24"]

#: Small/large split used by Fig. 4's two panels.
SMALL = ["amazon-2008", "cit-Patents", "GL7d19", "wikipedia-20070206", "coPapersDBLP", "cage15"]
LARGE = [n for n in SUITE if n not in SMALL]


def load(name: str, reduction: int = 4096, seed: int = 0) -> COO:
    """Build the stand-in for a Table II matrix by paper name."""
    try:
        entry = SUITE[name]
    except KeyError:
        raise KeyError(f"unknown suite matrix {name!r}; choose from {sorted(SUITE)}") from None
    return entry.make(reduction, seed)


def load_scaled(name: str, target_nnz: int = 50_000, seed: int = 0) -> tuple[COO, int]:
    """Build a stand-in sized to roughly ``target_nnz`` nonzeros.

    Returns ``(matrix, reduction_used)``; benches use the reduction to
    scale the machine model's latency consistently (see
    ``simulate.costsim.scaled_machine``).
    """
    entry = SUITE[name]
    reduction = max(1, entry.paper_nnz // max(1, target_nnz))
    return entry.make(reduction, seed), reduction
