"""Symmetric connectivity matrices and their edge-vector view.

A connectivity matrix is a symmetric V x V matrix whose diagonal carries no
information.  All math in this package runs on the length p = V(V-1)/2
vector of upper-triangle entries, enumerated row-major:
(1,2), (1,3), ..., (1,V), (2,3), ..., (V-1,V) in 1-based node labels.
Node indices are 0-based everywhere in code; file headers and error
messages use 1-based labels.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

SYMMETRY_RTOL = 1e-10


def edge_count(node_count: int) -> int:
    return node_count * (node_count - 1) // 2


@functools.lru_cache(maxsize=32)
def triu_indices(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle (diagonal excluded) in
    edge enumeration order.  Cached and shared, so returned read-only."""
    rows, cols = np.triu_indices(node_count, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def nodes_from_edge_count(p: int) -> int:
    """Invert p = V(V-1)/2, rejecting p that fits no integer V."""
    v = int(round((1 + np.sqrt(1 + 8 * p)) / 2))
    if v < 2 or edge_count(v) != p:
        raise DimensionError("dimension_mismatch",
                             f"edge count {p} does not equal V(V-1)/2 for any integer V")
    return v


def vectorize(m: np.ndarray) -> np.ndarray:
    """Map a symmetric V x V matrix to its p = V(V-1)/2 upper-triangle vector.

    The diagonal is discarded.  Matrices asymmetric beyond ``SYMMETRY_RTOL``
    (relative to the largest entry) are rejected; smaller asymmetries are
    symmetrized as (M+M')/2 first.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("not_square", f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise DimensionError("dimension_mismatch", "need at least 2 nodes")
    gap = np.abs(m - m.T)
    scale = max(float(np.max(np.abs(m))), np.finfo(float).tiny)
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    if gap[worst] > SYMMETRY_RTOL * scale:
        u, v = int(worst[0]), int(worst[1])
        raise ValidationError(
            "asymmetric",
            f"matrix asymmetric at entry ({u + 1}, {v + 1}): "
            f"{m[u, v]!r} vs {m[v, u]!r} (relative gap {gap[worst] / scale:.3e})")
    r, c = triu_indices(m.shape[0])
    return ((m + m.T) / 2.0)[r, c]


def unvectorize(s: np.ndarray, node_count: int) -> np.ndarray:
    """Inverse of :func:`vectorize`: symmetric matrix with zero diagonal."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.shape[0] != edge_count(node_count):
        raise DimensionError(
            "dimension_mismatch",
            f"edge vector of length {s.shape} does not match V={node_count} "
            f"(expected {edge_count(node_count)})")
    m = np.zeros((node_count, node_count))
    r, c = triu_indices(node_count)
    m[r, c] = s
    m[c, r] = s
    return m


def fisher_z(values: np.ndarray) -> np.ndarray:
    """atanh transform for correlation-valued inputs; requires |r| < 1."""
    values = np.asarray(values, dtype=float)
    if np.any(np.abs(values) >= 1.0):
        bad = float(values.flat[int(np.argmax(np.abs(values)))])
        raise ValidationError("fisher_z_domain",
                              f"Fisher-Z needs |r| < 1, found {bad!r}")
    return np.arctanh(values)


@dataclass(frozen=True)
class ConnectivityDataset:
    """Multi-subject connectivity data in edge-vector form.

    data : (N, p) array, row i the edge vector of subject i; read-only
    node_count : V, with p = V(V-1)/2

    A read-only, C-contiguous float64 array that owns its memory
    (``base is None``) is adopted as it is: a caller hands over a fresh
    array by marking it read-only and keeping no writable reference.  Any
    other input is copied.
    """

    data: np.ndarray
    node_count: int

    def __post_init__(self):
        if self.node_count < 2:
            raise DimensionError("dimension_mismatch",
                                 f"need at least 2 nodes, got {self.node_count}")
        data = self.data
        if not (isinstance(data, np.ndarray) and data.dtype == np.float64
                and data.base is None and data.flags.c_contiguous
                and not data.flags.writeable):
            data = np.array(data, dtype=float)
        if data.ndim != 2:
            raise DimensionError("dimension_mismatch",
                                 f"data must be 2-D (N, p), got shape {data.shape}")
        p = edge_count(self.node_count)
        if data.shape[1] != p:
            raise DimensionError(
                "dimension_mismatch",
                f"data has {data.shape[1]} columns but V={self.node_count} "
                f"implies p={p}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("non_finite", "dataset contains NaN or Inf entries")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_subjects(self) -> int:
        return self.data.shape[0]

    @property
    def n_edges(self) -> int:
        return self.data.shape[1]


def edge_labels(node_count: int) -> list[str]:
    """1-based "u_v" labels in enumeration order, e.g. ["1_2", "1_3", "2_3"]."""
    r, c = triu_indices(node_count)
    return [f"{u + 1}_{v + 1}" for u, v in zip(r, c)]


def _count_lines(path: str) -> int:
    """Lines in a file as text mode reads them: each of \\n, \\r and \\r\\n
    ends one, and an unterminated last line counts too.  One buffered
    binary pass; a file that does not exist raises FileNotFoundError."""
    lines, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:  # a fast scan; most files have no \r
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk.startswith(b"\n"):
                lines -= 1  # a \r\n split across two chunks
            last = chunk[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def read_csv(path: str, skiprows: int = 0) -> np.ndarray:
    """Read a comma-separated table of floats as a 2-D array.

    The lines are counted first, so numpy allocates the array once at its
    final size instead of growing it.  A file with no lines after
    ``skiprows``, or none holding data, raises ``empty``; a file that does
    not parse raises ``bad_csv`` naming it, where numpy's row numbers count
    from 0 after the skipped rows."""
    rows = _count_lines(path) - skiprows
    if rows > 0:
        try:
            with warnings.catch_warnings():
                # blank lines are skipped as always, max_rows is never
                # short, and a file with no data at all raises below
                warnings.filterwarnings(
                    "ignore", category=UserWarning,
                    message=r"(Input line \d+|loadtxt: input) contained no data")
                data = np.loadtxt(path, delimiter=",", skiprows=skiprows,
                                  max_rows=rows, ndmin=2)
        except ValueError as err:
            raise ValidationError("bad_csv", f"{path}: {err}") from err
        if data.size:
            return data
    raise ValidationError("empty", f"{path}: no data rows")


def write_csv(path: str, values: np.ndarray, header: str = "") -> None:
    """Write comma-separated ``%.17g`` floats, lossless for float64."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g", header=header,
               comments="")


def _load_square_dir(path: str) -> tuple[np.ndarray, int]:
    files = sorted(f for f in os.listdir(path) if f.lower().endswith(".csv"))
    if not files:
        raise ValidationError("empty", f"no CSV files in {path!r}")
    data = None
    for row, fname in enumerate(files):
        m = read_csv(os.path.join(path, fname))
        if data is None:
            node_count = m.shape[0]
            data = np.empty((len(files), edge_count(node_count)))
        elif m.shape[0] != node_count:
            raise DimensionError(
                "dimension_mismatch",
                f"{fname} has {m.shape[0]} nodes, earlier subjects had {node_count}")
        try:
            data[row] = vectorize(m)
        except ValidationError as err:
            raise type(err)(err.code, f"{fname}: {err.message}") from err
    return data, int(node_count)


def _load_edge_csv(path: str) -> tuple[np.ndarray, int]:
    with open(path) as fh:
        header = fh.readline().strip()
    labels = [h.strip() for h in header.split(",") if h.strip()]
    node_count = nodes_from_edge_count(len(labels))
    if labels != edge_labels(node_count):
        raise ValidationError(
            "bad_header",
            f"edge CSV header does not follow the 1-based u_v enumeration "
            f"order for V={node_count}")
    data = read_csv(path, skiprows=1)
    if data.shape[1] != len(labels):
        raise DimensionError("dimension_mismatch",
                             f"data rows have {data.shape[1]} fields, header has {len(labels)}")
    return data, node_count


def load_dataset(path: str, fisher: bool = False) -> ConnectivityDataset:
    """Load a dataset from disk; the path says its layout.

    A directory holds one V x V CSV per subject (no header), read in sorted
    file-name order.  A file is an edge CSV whose header row holds the p
    edge labels "u_v" and whose N data rows are subjects.

    With ``fisher=True`` the Fisher-Z transform is applied to every edge
    value (inputs must be correlations in (-1, 1)).  Never automatic.
    """
    load = _load_square_dir if os.path.isdir(path) else _load_edge_csv
    data, node_count = load(path)
    data.setflags(write=False)  # handed over to the dataset without a copy
    try:
        dataset = ConnectivityDataset(data=data, node_count=node_count)
    except ValidationError as err:
        if err.code != "non_finite":
            raise
        raise ValidationError("non_finite",
                              f"{path!r} contains NaN or Inf values") from err
    if fisher:
        z = fisher_z(dataset.data)
        z.setflags(write=False)
        dataset = ConnectivityDataset(data=z, node_count=node_count)
    return dataset


def save_dataset(dataset: ConnectivityDataset, path: str) -> None:
    """Write a dataset in edge CSV format (lossless for float64)."""
    write_csv(path, dataset.data, header=",".join(edge_labels(dataset.node_count)))
