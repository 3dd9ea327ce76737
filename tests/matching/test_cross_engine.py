"""Cross-engine consistency: every MCM implementation in the package must
agree on every input — the strongest single guarantee the library offers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import COO, CSC
from repro.graphs import generators as G, rmat
from repro.matching import (
    hopcroft_karp,
    ms_bfs_graft,
    ms_bfs_mcm,
    pothen_fan,
    single_source_mcm,
)
from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.validate import cardinality, verify_maximum

from .conftest import scipy_optimum
from ..helpers import long_path

ENGINES = {
    "hopcroft-karp": lambda a: hopcroft_karp(a)[0],
    "pothen-fan": lambda a: pothen_fan(a)[0],
    "single-source": lambda a: single_source_mcm(a)[0],
    "ms-bfs": lambda a: ms_bfs_mcm(a)[0],
    # MCM-DIST on one rank, default direction="auto": the engine that
    # ships the direction-optimized pull
    "mcm-dist": lambda a: run_mcm_dist(a.to_coo(), 1, 1)[0],
    "ms-bfs-graft": lambda a: ms_bfs_graft(a)[0],
}


def _assert_all_agree(a: CSC):
    opt = scipy_optimum(a)
    for name, fn in ENGINES.items():
        got = cardinality(fn(a))
        assert got == opt, f"{name}: {got} != {opt}"


@pytest.mark.parametrize("builder", [
    lambda: G.mesh_rect(9, 9, drop=0.2, seed=1),
    lambda: G.triangulation_like(120, seed=2),
    lambda: G.banded(100, bandwidth=6, per_row=3, seed=3),
    lambda: G.kkt_block(80, seed=4),
    lambda: G.clique_overlap(60, clique_size=8, seed=5),
    lambda: G.boundary_map(70, 90, per_col=4, seed=6),
    lambda: long_path(31),
    lambda: rmat.g500(scale=7, seed=7),
    lambda: rmat.ssca(scale=7, seed=8),
])
def test_every_engine_on_every_generator_class(builder):
    a = CSC.from_coo(builder())
    _assert_all_agree(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 25), st.integers(1, 25), st.integers(0, 100), st.integers(0, 10_000))
def test_every_engine_on_random_graphs(n1, n2, nnz, seed):
    rng = np.random.default_rng(seed)
    a = CSC.from_coo(COO(n1, n2, rng.integers(0, n1, nnz), rng.integers(0, n2, nnz)))
    _assert_all_agree(a)


def test_every_engine_certified_by_koenig():
    """Each engine's matching passes the self-contained certificate."""
    a = CSC.from_coo(rmat.g500(scale=8, seed=9))
    for name, fn in ENGINES.items():
        if name in ("ms-bfs", "mcm-dist", "ms-bfs-graft"):
            continue  # tuple shapes differ; covered in their own tests
        mr, mc = {
            "hopcroft-karp": hopcroft_karp,
            "pothen-fan": pothen_fan,
            "single-source": single_source_mcm,
        }[name](a)
        assert verify_maximum(a, mr, mc), name
