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
  block frontier, in either direction: a local DCSC explode + pre-reduction
  (top-down) or an early-exit pull through the cached DCSC row-major
  mirror over the block rows not yet visited (bottom-up, the paper's
  stated future work), then the *fold* (all-to-all of partial winners
  along the grid row, each frame carrying the sender's block-frontier
  size, so the call also returns the global frontier size) → destination
  reduction.  Both directions send the same candidates, so they post the
  same fold and each block may choose alone.  The fold delivers a row to
  its vector owner, or — given the row block's mates — to its *home*, the
  rank of the grid row sitting in its mate's column block (a free row to
  every rank of the grid row, a matched row's id to every other), so each
  rank learns every row its grid row visited; :func:`spmv` is
  :func:`expand` followed by the owner fold;
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

from ..runtime.comm import Communicator
from ..runtime.pack import pack_arrays, unpack_arrays
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
    """Allgather parallel arrays, one tuple per rank, so each crosses the
    wire at its own width (:mod:`repro.runtime.comm`).

    Returns one tuple of arrays per source rank, in rank order, used by the
    expand phases for their (idx, root) pairs.
    """
    return comm.allgatherv(arrays)


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


def spmv_expanded(
    A: DistSparseMatrix,
    gcols: np.ndarray,
    groots: np.ndarray,
    home: "np.ndarray | None" = None,
    unseen: "np.ndarray | None" = None,
    pull: bool = False,
) -> tuple:
    """``f_r = A · f_c`` for an already expanded frontier: ``gcols``/``groots``
    are the (column, root) pairs of this rank's whole column block (what
    :func:`expand` returns).  ``unseen``, a boolean mask over the block's
    rows, holds the rows with an edge not yet visited (None: every row).

    Local step, one of two (a block's choice, communication-free):

    * *top-down* — DCSC explode of the frontier columns (select2nd: parent
      = column id), then the minParent pre-reduction (CombBLAS does the
      same), reading every frontier edge of the block; candidates for rows
      outside ``unseen`` are dropped;
    * *bottom-up* (``pull``) — each ``unseen`` row walks its ascending
      row-major adjacency and stops at its first frontier column, which is
      exactly the block's minParent winner for it.

    Both send one candidate per unseen row with a frontier edge, the same
    one, so the fold below is the same in either direction and each block
    may choose alone.  The fold and destination reduction run along the
    grid row — the one exchange of the call — to the vector owners or,
    given ``home``, row block i's mates replicated along the grid row, to a
    matched row's home (the rank sitting in its mate's column block) and a
    free row to every rank of the grid row, so every rank reduces a free
    row's full candidate set identically; a matched row's id also reaches
    every other rank of the grid row, so each learns every row the grid row
    visits.  Every fold frame carries ``gcols.size``; the pc column blocks
    of a grid row cover the frontier once, so the call returns (the global
    frontier size, the edges this block read, the LOCAL rows known
    visited after the fold — given ``home`` every row a block of the grid
    row sent a candidate for, else this block's own — ``f_r``'s rows
    ascending, parents, roots)."""
    grid = A.grid
    with tspan(grid.comm, "spmv_bottomup" if pull else "spmv"):
        if pull:
            root_of = np.full(A.block.ncols, NULL, dtype=np.int64)
            root_of[gcols - A.col_lo] = groots
            lrows, parents, roots, scanned = A.block.pull_rows(
                np.flatnonzero(unseen), root_of, NULL
            )
            parents = parents + A.col_lo
        else:
            lrows, parents, roots = A.block.explode_cols(gcols - A.col_lo, gcols, groots)
            scanned = lrows.size
            lrows, parents, roots = reduce_candidates(lrows, parents, roots)
            if unseen is not None:
                keep = unseen[lrows]
                lrows, parents, roots = lrows[keep], parents[keep], roots[keep]
        grows = lrows + A.row_lo

        # -- fold.  All my rows live in row block i, whose sub-chunks are owned
        # by the pc ranks of my grid row (the sub index IS the rowcomm rank),
        # as are its column blocks (the column block IS the rowcomm rank).
        with tspan(grid.comm, "fold"):
            if home is None:
                sub, _block = A.row_vecmap.owner(grows)
                total, *got = hop(grid.rowcomm, gcols.size, (sub, grows, parents, roots))
                seen = lrows
            else:
                mates = home[lrows]
                free, m = mates == NULL, mates != NULL
                at = A.colmap.owner(mates[m])
                # (rank, row) for every rank of the grid row but the row's home
                told, which = np.nonzero(np.arange(grid.pc)[:, None] != at)
                total, *got, heard = hop(
                    grid.rowcomm, gcols.size,
                    (at, grows[m], parents[m], roots[m]), (told, grows[m][which]),
                    shared=(grows[free], parents[free], roots[free]),
                )
                # a row is free on every sender or on none, so each row's
                # candidates still arrive in source-rank order
                got = [np.concatenate(pair) for pair in zip(got[:3], got[3:])]
                seen = np.concatenate((got[0], heard)) - A.row_lo

            # -- destination reduction: one winner per row across all blocks
            return (total, scanned, seen, *reduce_candidates(*got))


def spmv(A: DistSparseMatrix, fc: DistVertexFrontier) -> DistVertexFrontier:
    """One step of distributed alternating BFS from a column frontier held
    by its vector owners: :func:`expand`, then :func:`spmv_expanded`.

    Matches :meth:`repro.sparse.csc.CSC.spmv_frontier` under minParent
    exactly (the integration tests assert this).
    """
    if fc.orient != "col":
        raise ValueError("spmv expects a column frontier")
    _, _, _, *fr = spmv_expanded(A, *expand(A, fc.idx, fc.root))
    return DistVertexFrontier(A.grid, A.nrows, "row", *fr)


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
