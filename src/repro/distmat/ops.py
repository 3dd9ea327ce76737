"""Distributed primitives: routing, 2D SpMV, the MS-BFS iteration's exchanges.

These are the communication kernels of Section IV-B, written against the
rank-local objects of this package:

* :func:`route` — deliver parallel arrays to explicit destination ranks
  (one ``alltoallv`` of packed buffers); the engine's own exchanges send
  ``(count, *arrays)`` frames instead (:func:`hop`), a count riding in the
  word a packed buffer's header takes;
* :func:`expand` — assemble a column block's frontier from its sub-chunk
  owners (allgather down the grid column);
* :func:`spmv_expanded` — the 2D minParent SpMV on an already expanded
  block frontier: local DCSC explode + pre-reduction → *fold* (all-to-all
  of partial winners along the grid row, each frame carrying the sender's
  block-frontier size, so the call also returns the global frontier size)
  → destination reduction.  The fold delivers a row to its vector owner,
  or — given the row block's mates — to its *home*, the rank of the grid
  row sitting in its mate's column block (a free row to every rank of the
  grid row); :func:`spmv` is :func:`expand` followed by the owner fold;
* :func:`spmv_bottomup_expanded` — the direction-optimized (pull) SpMV of
  the paper's stated future work: the block frontier is packed into a
  dense ``root_of`` array, the unvisited row ids are allgathered along the
  grid row, and each block scans its unvisited rows' adjacency through the
  cached DCSC row-major mirror; fold and destination reduction are shared
  with the top-down form, so the two produce bit-identical frontiers;
* :func:`local_edge_counts` — this rank's share of the per-iteration
  switch rule's (top-down, bottom-up) edge counts, and
  :func:`vote_bottomup` — the grid's verdict on them;
* :func:`path_ends` — the (root, min row) pair per tree that Steps 5 and 6
  of MCM-DIST read;
* :func:`hop_down_column` — Step 7 without a grid-wide exchange: the
  next-frontier pairs a home fold produced inside this rank's column block
  go down the grid column, which rebuilds the expanded block frontier; the
  grid row's (root, row) path ends of Steps 5 and 6 ride along, so after
  it every rank holds the whole grid's (and so can any other arrays);
* :func:`invert_route` — INVERT's data movement as the paper prices it:
  entries travel to the owner of their *value* interpreted as an index on
  the other side — an all-to-all over ALL p ranks, the paper's scaling
  bottleneck (no engine calls it any more; the layer benchmark does).
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import SUM, Communicator
from ..runtime.pack import pack_arrays, pack_indices, unpack_arrays, unpack_indices
from ..runtime.trace import tspan
from ..sparse.semiring import reduce_candidates
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


def hop(comm: Communicator, count: int, *legs: tuple, shared: tuple = ()) -> tuple:
    """One personalized all-to-all on a row or column communicator.  Each
    leg is ``(dest, *arrays)``: its parallel arrays go to ranks ``dest``;
    the ``shared`` arrays go whole to every rank.  A frame is ``(count,
    *shared, *leg arrays)`` — a count riding along costs a word, not
    another collective.  Returns (the senders' counts summed, *received
    shared arrays, *received leg arrays), each concatenated in source-rank
    order."""
    per_leg = [_buckets(comm.size, dest, arrays) for dest, *arrays in legs]
    frames = [(count, *shared, *(a for b in bs for a in b)) for bs in zip(*per_leg)]
    return _gathered(comm.alltoallv(frames))


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
    home: "np.ndarray | None",
) -> tuple:
    """Shared SpMV tail: local minParent pre-reduction of the candidate
    triples, fold along the grid row, destination reduction.  Both traversal
    directions funnel through here, which is what makes them bit-identical.
    Without ``home`` a partial winner goes to its row's vector owner; with
    it — row block i's mates, replicated along the grid row — a matched
    row's goes to its home, the rank sitting in its mate's column block,
    and a free row's to every rank of the grid row, so every rank reduces a
    free row's full candidate set identically.
    ``count`` rides every fold frame in the word a packed buffer's header
    would take; returns (Σ ``count`` over the grid row, rows ascending,
    their parents, their roots)."""
    grid = A.grid
    with tspan(grid.comm, "fold"):
        # local pre-reduction shrinks the fold volume (CombBLAS does the same)
        grows, parents, roots = reduce_candidates(grows, parents, roots)

        # -- fold.  All my rows live in row block i, whose sub-chunks are owned
        # by the pc ranks of my grid row (the sub index IS the rowcomm rank),
        # as are its column blocks (the column block IS the rowcomm rank).
        if home is None:
            sub, _block = A.row_vecmap.owner(grows)
            total, *got = hop(grid.rowcomm, count, (sub, grows, parents, roots))
        else:
            mates = home[grows - A.row_lo]
            free, m = mates == NULL, mates != NULL
            total, *got = hop(
                grid.rowcomm, count,
                (A.colmap.owner(mates[m]), grows[m], parents[m], roots[m]),
                shared=(grows[free], parents[free], roots[free]),
            )
            # a row is free on every sender or on none, so each row's
            # candidates still arrive in source-rank order
            got = [np.concatenate(pair) for pair in zip(got[:3], got[3:])]

        # -- destination reduction: one winner per row across all blocks
        return (total, *reduce_candidates(*got))


def spmv_expanded(
    A: DistSparseMatrix,
    gcols: np.ndarray,
    groots: np.ndarray,
    home: "np.ndarray | None" = None,
) -> tuple:
    """``f_r = A · f_c`` for an already expanded frontier: ``gcols``/``groots``
    are the (column, root) pairs of this rank's whole column block (what
    :func:`expand` returns).  Local DCSC explode (select2nd: parent = column
    id), then fold and destination reduction along the grid row — the one
    exchange of the call, to the vector owners or, given the row block's
    mates, to the rows' homes.  Every fold frame carries ``gcols.size``;
    the pc column blocks of a grid row cover the frontier once, so the call
    returns (the global frontier size, the edges this block scanned,
    ``f_r``'s rows, parents, roots)."""
    with tspan(A.grid.comm, "spmv"):
        lrows, parents, roots = A.block.explode_cols(gcols - A.col_lo, gcols, groots)
        total, *fr = _fold_and_reduce(
            A, gcols.size, lrows + A.row_lo, parents, roots, home
        )
        return (total, lrows.size, *fr)


def spmv(A: DistSparseMatrix, fc: DistVertexFrontier) -> DistVertexFrontier:
    """One step of distributed alternating BFS from a column frontier held
    by its vector owners: :func:`expand`, then :func:`spmv_expanded`.

    Matches :meth:`repro.sparse.csc.CSC.spmv_frontier` under minParent
    exactly (the integration tests assert this).
    """
    if fc.orient != "col":
        raise ValueError("spmv expects a column frontier")
    _, _, *fr = spmv_expanded(A, *expand(A, fc.idx, fc.root))
    return DistVertexFrontier(A.grid, A.nrows, "row", *fr)


def spmv_bottomup_expanded(
    A: DistSparseMatrix,
    gcols: np.ndarray,
    groots: np.ndarray,
    unvisited: np.ndarray,
    home: "np.ndarray | None" = None,
) -> tuple:
    """Direction-optimized Step 1: unvisited rows PULL from the frontier.

    The paper's stated future work ("the bottom-up BFS in distributed
    memory"), as a drop-in replacement for :func:`spmv_expanded` when the
    frontier is wide:

    1. pack the expanded (column, root) pairs into a dense ``root_of`` array
       covering this rank's column block (the replicated frontier bitmap of
       the serial ``_bottom_up_step``);
    2. *unvisited exchange*: allgather along the grid row the ``unvisited``
       row ids each rank answers for (sorted, inside row block i — every
       unvisited row of the block on exactly one rank of the row),
       assembling row block i's unvisited set;
    3. *pull*: every block scans its unvisited rows' adjacency through the
       cached DCSC row-major mirror and keeps edges whose column is on the
       frontier;
    4. fold + destination reduction, shared with :func:`spmv_expanded` —
       so it returns (the global frontier size, the edges this block
       scanned — its edges of row block i's unvisited rows — ``f_r``) too.

    For a row left unvisited, the candidate set {(r, c) : c ∈ f_c} is
    identical in both directions, so the minParent reduction yields the SAME
    winners as the top-down form followed by the Step 2 unvisited filter —
    the integration tests assert bit-identical mate vectors.
    """
    grid = A.grid
    with tspan(grid.comm, "spmv_bottomup"):
        root_of = np.full(A.block.ncols, NULL, dtype=np.int64)
        root_of[gcols - A.col_lo] = groots

        # -- unvisited exchange: assemble row block i's unvisited rows.
        # Bottom-up steps run exactly when the unvisited set is wide, so the
        # bitmap encoding (one bit per row of the sender's span instead of one
        # word per unvisited row) usually wins — pack_indices picks per sender
        # by density.  A row's candidates do not depend on the order of rows.
        with tspan(grid.comm, "unvisited_exchange"):
            span = (unvisited[0], unvisited[-1] + 1) if unvisited.size else (0, 0)
            upieces = grid.rowcomm.allgatherv(pack_indices(unvisited, *span))
            unvisited = np.concatenate([unpack_indices(b) for b in upieces]) - A.row_lo

        # -- pull through the cached CSR mirror, filter by frontier membership
        # (one fused kernel, repro.kernels.pull_candidates)
        with tspan(grid.comm, "pull"):
            lrows, lcols, croots = A.block.pull_rows(unvisited, root_of, NULL)
            grows = lrows + A.row_lo
            parents = lcols + A.col_lo
        total, *fr = _fold_and_reduce(
            A, gcols.size, grows, parents, croots, home
        )
        return (total, int(A.block.row_degrees()[unvisited].sum()), *fr)


def local_edge_counts(A: DistSparseMatrix, cols: np.ndarray, unvisited: np.ndarray) -> np.ndarray:
    """This rank's share of the switch rule's (top-down, bottom-up) edge
    counts, as the 2-word array the grid SUM-reduces.

    Top-down would examine every edge of the frontier's columns; bottom-up
    every edge of the still-unvisited rows.  ``cols`` are frontier columns
    of this rank's column block, ``unvisited`` unvisited rows of its row
    block; the grid-wide sums are the global counts provided every frontier
    column and every unvisited row is passed by exactly one rank.  Degrees
    come from the cached :meth:`DistSparseMatrix.degree_blocks`.
    """
    degr_blk, degc_blk = A.degree_blocks()
    td = degc_blk[cols - A.col_lo].sum()
    bu = degr_blk[unvisited - A.row_lo].sum()
    return np.array([td, bu], dtype=np.int64)


def vote_bottomup(A: DistSparseMatrix, cols: np.ndarray, unvisited: np.ndarray) -> bool:
    """``direction="auto"``'s vote for the coming superstep: one 2-word grid
    allreduce of :func:`local_edge_counts`, so every rank takes the same
    direction — bottom-up iff it examines fewer edges.  It blocks where the
    counts come into being: the engine runs no exchange between there and
    the next fold, so a nonblocking form would have nothing to overlap."""
    td, bu = A.grid.comm.allreduce(local_edge_counts(A, cols, unvisited), op=SUM)
    return bool(bu < td)


def hop_down_column(
    A: DistSparseMatrix, cols: np.ndarray, roots: np.ndarray, ends: tuple,
    *riders: np.ndarray,
) -> tuple:
    """Step 7: allgather the next-frontier (column, root) pairs a home fold
    produced — all inside this rank's column block — down the grid column,
    the grid row's path ``ends`` (:func:`path_ends`, identical along the
    grid row) and the caller's ``riders`` riding along.  Returns (block
    columns sorted ascending, their roots, the whole grid's path ends,
    *the riders concatenated in grid-row order): the next *expanded* block
    frontier, identical on the pr ranks of the grid column, and — the pr
    grid rows' ends together — every path end of the grid."""
    end_roots, end_rows, cols, roots, *riders = concat_pieces(
        A.grid.colcomm.allgatherv((*ends, cols, roots, *riders))
    )
    order = np.argsort(cols)  # frontier columns are distinct (mates of distinct rows)
    return (cols[order], roots[order], path_ends(end_roots, end_rows), *riders)


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
