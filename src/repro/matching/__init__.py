"""Matching algorithms: the paper's contribution and every baseline.

Layout
------

Serial references (oracles and the "shared-memory comparator" of §VI-E):

* :mod:`~repro.matching.hopcroft_karp` — O(m√n) Hopcroft-Karp;
* :mod:`~repro.matching.pothen_fan` — multi-source DFS with lookahead;
* :mod:`~repro.matching.single_source` — obviously-correct O(mn) BFS MCM;
* :mod:`~repro.matching.maximal` — serial greedy / Karp-Sipser / dynamic
  mindegree initializers.

The matrix-algebraic formulation (Section III):

* :mod:`~repro.matching.msbfs` — Algorithm 2 (MS-BFS MCM) written in the
  Table I primitives over global arrays, with instrumentation hooks the
  execution-driven performance simulator attaches to;
* :mod:`~repro.matching.augment` — Algorithm 3 (level-parallel) and
  Algorithm 4 (path-parallel RMA) augmentation plus the k < 2p² switch;
* :mod:`~repro.matching.maximal_rounds` — the round-synchronous distributed
  initializers of the authors' companion paper [21].

The true distributed implementations:

* :mod:`~repro.matching.mcm_dist` — MCM-DIST running SPMD over
  :mod:`repro.distmat` and :mod:`repro.runtime` (each rank owns only its
  DCSC block and vector slices);
* :mod:`~repro.matching.mwm_dist` — MWM-DIST, the maximum WEIGHT sibling:
  ε-scaled synchronized auctions on the doubled perfect-assignment graph,
  sharing the pure-NumPy round kernels of :mod:`~repro.matching.auction`
  with the serial oracle twin
  (:mod:`~repro.matching.reference.auction_twin`); the exact O(n³)
  Hungarian reference lives in :mod:`~repro.matching.reference.hungarian`;
* :mod:`~repro.matching.scenarios` — the adversity scenario suite: seeded
  request streams through ``run_mcm_dist`` under named fault plans, queued
  in model time into an SLO report.

Validation:

* :mod:`~repro.matching.validate` — matching validity, maximality, and a
  König-theorem vertex-cover certificate that proves *maximum*ality without
  an external oracle.

Public API: :func:`repro.matching.api.maximum_matching` and
:func:`repro.matching.api.maximal_matching`.
"""

from .validate import (
    cardinality,
    is_maximal_matching,
    is_valid_matching,
    koenig_vertex_cover,
    verify_maximum,
)
from .hopcroft_karp import hopcroft_karp
from .pothen_fan import pothen_fan
from .single_source import single_source_mcm
from .maximal import greedy_maximal, karp_sipser, dynamic_mindegree
from .msbfs import MsBfsHooks, MatchingStats, ms_bfs_mcm, run_phase
from .augment import augment_level_parallel, augment_path_parallel, choose_augment_mode
from .maximal_rounds import greedy_rounds, karp_sipser_rounds, mindegree_rounds, MaximalHooks
from .graft import ms_bfs_graft
from .reference import auction_mwm_serial, hungarian_mwm
from .mwm_dist import run_mwm_dist
from .api import maximum_matching, maximal_matching, maximum_weight_matching

__all__ = [
    "MatchingStats",
    "MaximalHooks",
    "MsBfsHooks",
    "auction_mwm_serial",
    "augment_level_parallel",
    "augment_path_parallel",
    "cardinality",
    "hungarian_mwm",
    "choose_augment_mode",
    "dynamic_mindegree",
    "greedy_maximal",
    "greedy_rounds",
    "hopcroft_karp",
    "is_maximal_matching",
    "is_valid_matching",
    "karp_sipser",
    "karp_sipser_rounds",
    "koenig_vertex_cover",
    "maximal_matching",
    "maximum_matching",
    "maximum_weight_matching",
    "mindegree_rounds",
    "run_mwm_dist",
    "ms_bfs_graft",
    "ms_bfs_mcm",
    "pothen_fan",
    "run_phase",
    "single_source_mcm",
    "verify_maximum",
]
