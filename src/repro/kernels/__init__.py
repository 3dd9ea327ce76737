"""The hot local kernels, as vectorized NumPy.

The PR-5 trace critical-path reports put three spans at the top of every
rank's self-time: the ragged gather behind each SpMV explode, the
early-exit bottom-up pull over the DCSC row-major mirror, and the keyed
min-scatter inside ``reduce_candidates``.  The fourth, the greedy
initializer's lookahead cursor, walks the same mirror.  They live here,
one implementation each, so every engine and the e2e layer benchmark time
the same code.
"""

from __future__ import annotations

from .hot import advance_cursor, keyed_min_scatter, pull_candidates, ragged_gather_flat

#: Constant; benchmarks/e2e/layers.py reads it (``kernels.is_numba``).
HAVE_NUMBA = False


def kernel_backend() -> str:
    """Which implementation the hot kernels run (``benchmarks/e2e/run.py``
    records it): always ``"numpy"``."""
    return "numpy"


__all__ = [
    "HAVE_NUMBA",
    "advance_cursor",
    "kernel_backend",
    "keyed_min_scatter",
    "pull_candidates",
    "ragged_gather_flat",
]
