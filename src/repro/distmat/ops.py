"""Distributed primitives: routing, 2D SpMV, the MS-BFS iteration's exchanges.

These are the communication kernels of Section IV-B, written against the
rank-local objects of this package:

* :func:`route` — deliver parallel arrays to explicit destination ranks
  (one ``alltoallv`` of packed buffers); the engine's own exchanges send
  ``(count, *arrays)`` frames instead (``_hop``), a count riding in the
  word a packed buffer's header takes;
* :func:`expand` — assemble a column block's frontier from its sub-chunk
  owners (allgather down the grid column);
* :func:`spmv_expanded` — the 2D semiring SpMV on an already expanded
  block frontier: local DCSC explode + pre-reduction → *fold* (all-to-all
  of partial winners along the grid row, each frame carrying the sender's
  block-frontier size, so the call also returns the global frontier size)
  → destination reduction; :func:`spmv` is :func:`expand` followed by it;
* :func:`spmv_bottomup_expanded` — the direction-optimized (pull) SpMV of
  the paper's stated future work: the block frontier is packed into a
  dense ``root_of`` array, the unvisited row ids are allgathered along the
  grid row, and each block scans its unvisited rows' adjacency through the
  cached DCSC row-major mirror; fold and destination reduction are shared
  with the top-down form, so deterministic semirings produce bit-identical
  frontiers;
* :func:`local_edge_counts` — this rank's share of the per-iteration
  switch rule's (top-down, bottom-up) edge counts;
* :func:`path_ends` — the (root, min row) pair per tree that Steps 5 and 6
  of MCM-DIST read;
* :func:`hop_along_row` / :func:`hop_down_column` — Step 7 without a
  grid-wide exchange: next-frontier pairs travel along the grid row to the
  mate's column block, then down the grid column, which also rebuilds the
  expanded block frontier; the (root, row) path ends of Steps 5 and 6 ride
  both hops, so after the second every rank holds the whole grid's;
* :func:`hop_to_owner` — INVERT as the engine runs it: entries reach the
  vector owner of their index in two hops, one per grid dimension, and a
  count riding the frames comes back summed over the grid (Algorithm 3's
  level step);
* :func:`invert_route` — INVERT's data movement as the paper prices it:
  entries travel to the owner of their *value* interpreted as an index on
  the other side — an all-to-all over ALL p ranks, the paper's scaling
  bottleneck (no engine calls it any more; the layer benchmark does).
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import Communicator
from ..runtime.pack import pack_arrays, pack_indices, unpack_arrays, unpack_indices
from ..runtime.trace import tspan
from ..sparse.semiring import SR_MIN_PARENT, Semiring, reduce_candidates
from ..sparse.spvec import NULL
from .distvec import DistDenseVec, DistVertexFrontier
from .spmat import DistSparseMatrix


def _buckets(
    size: int, dest: np.ndarray, arrays: "tuple[np.ndarray, ...]"
) -> "list[tuple[np.ndarray, ...]]":
    """Split parallel ``arrays`` by destination rank: entry ``r`` holds the
    slices bound for rank ``r``, in input order."""
    dest = np.asarray(dest, dtype=np.int64)
    order = np.argsort(dest, kind="stable")
    cuts = np.searchsorted(dest[order], np.arange(size + 1))
    sorted_arrays = [a[order] for a in arrays]
    return [tuple(sa[cuts[r]:cuts[r + 1]] for sa in sorted_arrays) for r in range(size)]


def route(comm: Communicator, dest: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Deliver ``arrays`` entries to communicator ranks ``dest``.

    All arrays must be parallel (equal length).  Returns the received
    arrays — dtypes preserved, empty results included — concatenated in
    source-rank order.  One personalized all-to-all; each destination's
    arrays travel as ONE packed struct-of-arrays buffer
    (:mod:`repro.runtime.pack`).
    """
    arrays = tuple(np.asarray(a) for a in arrays)
    payloads = _buckets(comm.size, dest, arrays)
    parts = [
        unpack_arrays(buf)
        for buf in comm.alltoallv([pack_arrays(*b) for b in payloads])
    ]
    return tuple(
        np.concatenate([p[k] for p in parts]) if parts else np.empty(0, arrays[k].dtype)
        for k in range(len(arrays))
    )


def _gathered(frames: "list[tuple]") -> tuple:
    """Fold the ``(count, *arrays)`` frames received from every source rank:
    the counts summed, then each array concatenated in rank order."""
    counts, *arrays = zip(*frames)
    return (sum(counts), *(np.concatenate(a) for a in arrays))


def _hop(
    comm: Communicator, dest: np.ndarray, count: int, *arrays: np.ndarray, ends: tuple = ()
) -> tuple:
    """One personalized all-to-all on a row or column communicator: deliver
    the parallel ``arrays`` to ranks ``dest`` in ``(count, *ends, *arrays)``
    frames — a count and (root, row) path ``ends`` riding along cost a word
    each, not another collective.  Returns (the senders' counts summed,
    *received ends, *received arrays)."""
    buckets = _buckets(comm.size, dest, arrays)
    return _gathered(comm.alltoallv([(count, *ends, *b) for b in buckets]))


def path_ends(roots: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps 5 + 6 of MCM-DIST reduce the unmatched rows a BFS iteration
    reached to its path ends: one (root, minimum row) pair per tree, roots
    ascending."""
    return reduce_candidates(roots, rows, rows)[:2]


def allgather_arrays(comm: Communicator, *arrays: np.ndarray) -> "list[tuple[np.ndarray, ...]]":
    """Allgather parallel arrays, one packed buffer per rank.

    Returns one tuple of arrays per source rank, in rank order — the
    multi-array analogue of ``comm.allgatherv((a, b))``, used by the expand
    phases for their (idx, root) pairs.
    """
    pieces = comm.allgatherv(pack_arrays(*arrays))
    return [unpack_arrays(buf) for buf in pieces]


def concat_pieces(pieces: "list[tuple[np.ndarray, ...]]") -> tuple[np.ndarray, ...]:
    """Concatenate an :func:`allgather_arrays` result array by array, in
    source-rank order."""
    return tuple(np.concatenate(col) for col in zip(*pieces))


def expand(
    A: DistSparseMatrix, idx: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble column block j's frontier from its sub-chunk owners: one
    allgather of the (idx, root) pairs down the grid column.  colcomm ranks
    own consecutive sub-ranges of block j, so rank-ordered concatenation of
    sorted sub-chunks is already sorted by global column id.  The result is
    identical on the pr ranks of the grid column."""
    grid = A.grid
    with tspan(grid.comm, "expand"):
        return concat_pieces(allgather_arrays(grid.colcomm, idx, roots))


def _fold_and_reduce(
    A: DistSparseMatrix,
    count: int,
    grows: np.ndarray,
    parents: np.ndarray,
    roots: np.ndarray,
    semiring: Semiring,
    rng: np.random.Generator | None,
) -> tuple[int, DistVertexFrontier]:
    """Shared SpMV tail: local pre-reduction of the candidate triples, fold
    (route each partial winner to its row-vector owner along the grid row),
    destination reduction.  Both traversal directions funnel through here,
    which is what makes them bit-identical under deterministic semirings.
    ``count`` rides every fold frame in the word a packed buffer's header
    would take; returns (Σ ``count`` over the grid row, the row frontier)."""
    grid = A.grid
    with tspan(grid.comm, "fold"):
        # local pre-reduction shrinks the fold volume (CombBLAS does the same)
        grows, parents, roots = reduce_candidates(grows, parents, roots, semiring, rng)

        # -- fold: send each partial winner to the row-vector owner of its row.
        # All my rows live in row block i, whose sub-chunks are owned by the pc
        # ranks of my grid row; the sub index IS the rowcomm rank.
        sub, _block = A.row_vecmap.owner(grows)
        total, rrows, rparents, rroots = _hop(grid.rowcomm, sub, count, grows, parents, roots)

        # -- destination reduction: one winner per row across all blocks
        ridx, rpar, rroot = reduce_candidates(rrows, rparents, rroots, semiring, rng)
    return total, DistVertexFrontier(grid, A.nrows, "row", ridx, rpar, rroot)


def spmv_expanded(
    A: DistSparseMatrix,
    gcols: np.ndarray,
    groots: np.ndarray,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
) -> tuple[int, DistVertexFrontier]:
    """``f_r = A · f_c`` for an already expanded frontier: ``gcols``/``groots``
    are the (column, root) pairs of this rank's whole column block (what
    :func:`expand` returns).  Local DCSC explode (select2nd: parent = column
    id), then fold and destination reduction along the grid row — the one
    exchange of the call.  Every fold frame carries ``gcols.size``; the pc
    column blocks of a grid row cover the frontier once, so the call
    returns (the global frontier size, ``f_r``)."""
    with tspan(A.grid.comm, "spmv"):
        lrows, parents, roots = A.block.explode_cols(gcols - A.col_lo, gcols, groots)
        return _fold_and_reduce(A, gcols.size, lrows + A.row_lo, parents, roots, semiring, rng)


def spmv(
    A: DistSparseMatrix,
    fc: DistVertexFrontier,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
) -> DistVertexFrontier:
    """One step of distributed alternating BFS from a column frontier held
    by its vector owners: :func:`expand`, then :func:`spmv_expanded`.

    Matches :meth:`repro.sparse.csc.CSC.spmv_frontier` exactly for
    deterministic semirings (the integration tests assert this).
    """
    if fc.orient != "col":
        raise ValueError("spmv expects a column frontier")
    return spmv_expanded(A, *expand(A, fc.idx, fc.root), semiring, rng)[1]


def spmv_bottomup_expanded(
    A: DistSparseMatrix,
    gcols: np.ndarray,
    groots: np.ndarray,
    pi_r: DistDenseVec,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
) -> tuple[int, DistVertexFrontier]:
    """Direction-optimized Step 1: unvisited rows PULL from the frontier.

    The paper's stated future work ("the bottom-up BFS in distributed
    memory"), as a drop-in replacement for :func:`spmv_expanded` when the
    frontier is wide:

    1. pack the expanded (column, root) pairs into a dense ``root_of`` array
       covering this rank's column block (the replicated frontier bitmap of
       the serial ``_bottom_up_step``);
    2. *unvisited exchange*: allgather the unvisited row ids (``π_r`` still
       NULL) along the grid row, assembling row block i's unvisited set from
       the pc sub-chunk owners;
    3. *pull*: every block scans its unvisited rows' adjacency through the
       cached DCSC row-major mirror and keeps edges whose column is on the
       frontier;
    4. fold + destination reduction, shared with :func:`spmv_expanded` —
       so it returns (the global frontier size, ``f_r``) too.

    For a row left unvisited, the candidate set {(r, c) : c ∈ f_c} is
    identical in both directions, so deterministic semirings yield the SAME
    winners as the top-down form followed by the Step 2 unvisited filter —
    the integration tests assert bit-identical mate vectors.
    """
    grid = A.grid
    if pi_r.orient != "row":
        raise ValueError("spmv_bottomup_expanded expects a row-oriented visited vector")

    with tspan(grid.comm, "spmv_bottomup"):
        root_of = np.full(A.block.ncols, NULL, dtype=np.int64)
        root_of[gcols - A.col_lo] = groots

        # -- unvisited exchange: assemble row block i's unvisited rows.  rowcomm
        # ranks own consecutive sub-chunks of block i, so rank-ordered
        # concatenation is already sorted by global row id.  Bottom-up steps run
        # exactly when the unvisited set is wide, so the bitmap encoding (one
        # bit per row of the sub-chunk instead of one word per unvisited row)
        # usually wins — pack_indices picks per sender by density.
        with tspan(grid.comm, "unvisited_exchange"):
            mine = np.flatnonzero(pi_r.local == NULL) + pi_r.lo
            upieces = grid.rowcomm.allgatherv(pack_indices(mine, pi_r.lo, pi_r.hi))
            unvisited = np.concatenate([unpack_indices(b) for b in upieces]) - A.row_lo

        # -- pull through the cached CSR mirror, filter by frontier membership
        # (one fused kernel, repro.kernels.pull_candidates)
        with tspan(grid.comm, "pull"):
            lrows, lcols, croots = A.block.pull_rows(unvisited, root_of, NULL)
            grows = lrows + A.row_lo
            parents = lcols + A.col_lo
        return _fold_and_reduce(A, gcols.size, grows, parents, croots, semiring, rng)


def local_edge_counts(A: DistSparseMatrix, cols: np.ndarray, pi_r: DistDenseVec) -> np.ndarray:
    """This rank's share of the switch rule's (top-down, bottom-up) edge
    counts, as the 2-word array the grid SUM-reduces.

    Top-down would examine every edge of the frontier's columns; bottom-up
    every edge of the still-unvisited rows.  ``cols`` are frontier columns
    of this rank's column block; the grid-wide sums are the global counts
    provided every frontier column is passed by exactly one rank (its vector
    owner, or whichever rank of the grid column received it on the row hop).
    Degrees come from the cached :meth:`DistSparseMatrix.degree_blocks`.
    """
    degr_blk, degc_blk = A.degree_blocks()
    td = degc_blk[cols - A.col_lo].sum()
    bu = degr_blk[pi_r.lo - A.row_lo:pi_r.hi - A.row_lo][pi_r.local == NULL].sum()
    return np.array([td, bu], dtype=np.int64)


def hop_along_row(
    A: DistSparseMatrix, cols: np.ndarray, roots: np.ndarray, ends: tuple
) -> tuple:
    """Step 7, first hop: send each next-frontier (column, root) pair along
    the grid row to the rank sitting in the column's block (one ``rowcomm``
    all-to-all).  Every frame also carries the sender's local entry count
    and its own path ``ends`` (:func:`path_ends`), so the returned tuple is
    (entries leaving this whole grid row, received columns, received roots,
    the grid row's path ends) — the received columns all lie in this rank's
    column block."""
    total, end_roots, end_rows, cols, roots = _hop(
        A.grid.rowcomm, A.colmap.owner(cols), cols.size, cols, roots, ends=ends
    )
    return total, cols, roots, path_ends(end_roots, end_rows)


def hop_down_column(
    A: DistSparseMatrix, row_total: int, cols: np.ndarray, roots: np.ndarray, ends: tuple
) -> tuple:
    """Step 7, second hop: allgather what :func:`hop_along_row` delivered
    down the grid column, the grid row's entry count and path ``ends``
    riding along.  Returns (entries that left any rank on the row hop,
    block columns sorted ascending, their roots, the whole grid's path
    ends): the next *expanded* block frontier, identical on the pr ranks of
    the grid column.  A row gather then a column gather reaches every rank,
    so the path ends are the grid's; the grid rows' totals sum to the
    entries that travelled, which is zero only if the next frontier is
    empty — no rank needs a reduction to test termination."""
    total, end_roots, end_rows, cols, roots = _gathered(
        A.grid.colcomm.allgatherv((row_total, *ends, cols, roots))
    )
    order = np.argsort(cols)  # frontier columns are distinct (mates of distinct rows)
    return total, cols[order], roots[order], path_ends(end_roots, end_rows)


def hop_to_owner(
    vec: DistDenseVec, count: int, idx: np.ndarray, *values: np.ndarray
) -> tuple:
    """Deliver ``(idx, *values)`` entries to the rank owning ``idx`` in
    ``vec``'s distribution in two hops and no grid-wide exchange: first
    along the grid dimension that reaches the owner's *block* (a column hop
    for a row vector, a row hop for a column vector), then along the other
    to its *sub-chunk*.  ``count`` rides every frame: the first hop sums it
    over one communicator, the second sums those sums over the other, so the
    returned tuple is (Σ ``count`` over the whole grid, received idx,
    *received values) — every rank learns the total without a reduction.
    (pr−1) + (pc−1) latency steps."""
    grid = vec.grid
    to_block, to_sub = (
        (grid.rowcomm, grid.colcomm) if vec.orient == "col" else (grid.colcomm, grid.rowcomm)
    )
    _sub, block = vec.vmap.owner(idx)
    count, idx, *values = _hop(to_block, block, count, idx, *values)
    sub, _block = vec.vmap.owner(idx)
    return _hop(to_sub, sub, count, idx, *values)


def invert_route(
    grid,
    targets: np.ndarray,
    values: np.ndarray,
    target_vec: DistDenseVec,
) -> tuple[np.ndarray, np.ndarray]:
    """INVERT's communication: deliver (target index, value) pairs to the
    rank owning ``target`` in ``target_vec``'s distribution.

    Returns the pairs received by THIS rank.  Collective over the full
    grid communicator (all-to-all over p ranks — the αp latency the paper
    identifies as the strong-scaling bottleneck).
    """
    dest = target_vec.owner_of(np.asarray(targets, np.int64))
    return route(grid.comm, dest, np.asarray(targets, np.int64), np.asarray(values, np.int64))
