"""Self-contained MatrixMarket coordinate reader.

Supports the subset needed to read bipartite graphs from the SuiteSparse
ecosystem the paper draws its inputs from: ``matrix coordinate
(pattern|integer|real) general`` headers, 1-based indices, ``%`` comments.
Values of non-pattern files are ignored on read (the matching problem only
sees the pattern, as in the paper); symmetric files are expanded.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .coo import COO


def read_mm(path: "str | Path") -> COO:
    """Read a MatrixMarket coordinate file into a pattern :class:`COO`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: not a MatrixMarket file")
        parts = header.strip().lower().split()
        if len(parts) < 5 or parts[1] != "matrix" or parts[2] != "coordinate":
            raise ValueError(f"{path}: unsupported MatrixMarket header {header!r}")
        field, symmetry = parts[3], parts[4]
        if field not in ("pattern", "integer", "real"):
            raise ValueError(f"{path}: unsupported field type {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
        line = fh.readline()
        while line.startswith("%") or not line.strip():
            line = fh.readline()
        nrows, ncols, nnz = (int(tok) for tok in line.split()[:3])
        data = np.loadtxt(io.StringIO(fh.read()), dtype=np.float64, ndmin=2) if nnz else np.empty((0, 2))
        if data.shape[0] != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {data.shape[0]}")
        rows = data[:, 0].astype(np.int64) - 1
        cols = data[:, 1].astype(np.int64) - 1
    if symmetry == "symmetric":
        # Mirror the strictly-triangular entries across the diagonal.
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
    return COO(nrows, ncols, rows, cols)
