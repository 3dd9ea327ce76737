"""BFS semirings: ``(select2nd, ⊕)`` with pluggable "addition".

Section III-B: the SpMV that advances a BFS frontier runs over a semiring
whose *multiply* is ``select2nd`` — ``select2nd(a_ij, x_j)`` ignores the
binary matrix element and passes the frontier value ``x_j = (parent, root)``
through — and whose *add* picks ONE candidate among the several frontier
columns adjacent to the same row:

* ``minParent`` — keep the candidate with the smallest parent index
  (deterministic; the paper's running example);
* ``maxParent`` — largest parent (deterministic alternative);
* ``randParent`` — uniformly random candidate;
* ``minRoot`` / ``randRoot`` — decide by root instead of parent;
  randRoot "is useful to randomly distribute vertices among alternating
  trees, ensuring better balance of tree sizes".

:func:`reduce_candidates` is the shared reduction kernel: given the exploded
candidate triples ``(row, parent, root)`` it returns one winner per distinct
row, rows sorted ascending.  Deterministic min/max modes take an O(c) keyed
scatter fast path (``np.minimum.at`` over a dense per-row best array) when
the candidate rows span a compact index range — which they always do on the
hot paths (local pre-reduction inside one DCSC block, destination reduction
inside one vector sub-chunk) — and fall back to the O(c log c) lexsort
otherwise.  ``rand`` modes always use the shuffled stable sort.  Both paths
produce bit-identical winners (the scatter encodes (key, arrival position)
so ties resolve to the first candidate, exactly like the stable lexsort).

The payload arrays keep their own dtypes: BFS semirings carry int64
(parent, root) pairs, while the auction engine's bid resolution carries
(float64 bid, int64 bidder) pairs through the SAME kernel.  The packed
keyed-scatter fast path requires an integer comparison key (the (key,
position) encode needs exact integer arithmetic), so float-keyed
reductions — e.g. ``by="parent"`` over profits — always take the lexsort
path; integer-keyed ones keep the O(c) scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import keyed_min_scatter


@dataclass(frozen=True)
class Semiring:
    """A named BFS semiring: select2nd multiply + a candidate tie-break.

    ``by`` chooses the field compared ("parent" or "root"); ``mode`` is
    "min", "max" or "rand".
    """

    name: str
    by: str
    mode: str

    def __post_init__(self) -> None:
        if self.by not in ("parent", "root"):
            raise ValueError(f"semiring 'by' must be parent or root, got {self.by}")
        if self.mode not in ("min", "max", "rand"):
            raise ValueError(f"semiring 'mode' must be min/max/rand, got {self.mode}")


SR_MIN_PARENT = Semiring("select2nd.minParent", by="parent", mode="min")
SR_MAX_PARENT = Semiring("select2nd.maxParent", by="parent", mode="max")
SR_RAND_PARENT = Semiring("select2nd.randParent", by="parent", mode="rand")
SR_MIN_ROOT = Semiring("select2nd.minRoot", by="root", mode="min")
SR_RAND_ROOT = Semiring("select2nd.randRoot", by="root", mode="rand")

_I64_MAX = np.iinfo(np.int64).max

#: Dense-scatter scratch may be this many times larger than the candidate
#: count before the fast path stops paying for its allocation.
_SCATTER_SLACK = 4


def _reduce_scatter(
    rows: np.ndarray,
    parents: np.ndarray,
    roots: np.ndarray,
    k: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """O(c) keyed min-scatter; ``None`` when the inputs don't fit the path.

    Each candidate's key and arrival position are packed into one int64
    (``k * c + position``) so a single ``np.minimum.at`` finds, per row, the
    minimal key with first-arrival tie-breaking — the exact winner the
    stable lexsort picks.  Requires the row ids to span a range not much
    wider than the candidate count and the packed keys to fit in int64.
    """
    c = rows.size
    lo = int(rows.min())
    width = int(rows.max()) - lo + 1
    if width > _SCATTER_SLACK * c + 1024:
        return None  # rows too spread out: dense scratch would dominate
    kmax = int(np.abs(k).max()) if c else 0
    if kmax >= (_I64_MAX - c) // c:
        return None  # packed (key, position) would overflow int64
    best = keyed_min_scatter(rows, k, lo, width)
    hit = best != _I64_MAX
    pos = best[hit] % np.int64(c)  # floor-mod recovers the position exactly
    ridx = np.flatnonzero(hit).astype(np.int64, copy=False) + lo
    return ridx, parents[pos], roots[pos]


def reduce_candidates(
    rows: np.ndarray,
    parents: np.ndarray,
    roots: np.ndarray,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce candidate (row, parent, root) triples to one winner per row.

    Returns ``(row_idx, parent, root)`` with ``row_idx`` strictly increasing.
    For ``mode="rand"`` an ``rng`` must be supplied; the reduction is then a
    uniform choice among each row's candidates.
    """
    rows = np.asarray(rows, dtype=np.int64)
    parents = np.asarray(parents)
    roots = np.asarray(roots)
    if rows.size == 0:
        e = np.empty(0, np.int64)
        return e, np.empty(0, parents.dtype), np.empty(0, roots.dtype)

    key = parents if semiring.by == "parent" else roots
    if semiring.mode == "rand":
        if rng is None:
            raise ValueError(f"semiring {semiring.name} needs an rng")
        # Shuffle candidates, then stable-sort by row: the first candidate of
        # each row group is a uniform choice among that row's candidates.
        perm = rng.permutation(rows.size)
        rows, parents, roots = rows[perm], parents[perm], roots[perm]
        order = np.argsort(rows, kind="stable")
    else:
        k = -key if semiring.mode == "max" else key
        if np.issubdtype(k.dtype, np.integer):
            # the packed (key, position) encode is exact only for integers
            fast = _reduce_scatter(
                rows, parents, roots, np.asarray(k, dtype=np.int64)
            )
            if fast is not None:
                return fast
        order = np.lexsort((k, rows))
    rows, parents, roots = rows[order], parents[order], roots[order]
    first = np.empty(rows.size, dtype=bool)
    first[0] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    return rows[first], parents[first], roots[first]
