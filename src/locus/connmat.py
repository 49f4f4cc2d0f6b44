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


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate near-symmetry and return the symmetrized matrix (M+M')/2."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("not_square", f"expected a square matrix, got shape {m.shape}")
    gap = np.abs(m - m.T)
    scale = max(float(np.max(np.abs(m))), np.finfo(float).tiny)
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    if gap[worst] > SYMMETRY_RTOL * scale:
        u, v = int(worst[0]), int(worst[1])
        raise ValidationError(
            "asymmetric",
            f"matrix asymmetric at entry ({u + 1}, {v + 1}): "
            f"{m[u, v]!r} vs {m[v, u]!r} (relative gap {gap[worst] / scale:.3e})")
    return (m + m.T) / 2.0


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
    m = _check_symmetric(m)
    r, c = triu_indices(m.shape[0])
    return m[r, c]


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

    data : (N, p) array, row i the edge vector of subject i
    node_count : V, with p = V(V-1)/2
    subject_ids : optional list of N identifiers
    """

    data: np.ndarray
    node_count: int
    subject_ids: list[str] | None = None

    def __post_init__(self):
        if self.node_count < 2:
            raise DimensionError("dimension_mismatch",
                                 f"need at least 2 nodes, got {self.node_count}")
        data = np.asarray(self.data, dtype=float)
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
        if self.subject_ids is not None and len(self.subject_ids) != data.shape[0]:
            raise DimensionError("dimension_mismatch",
                                 f"{len(self.subject_ids)} subject ids for "
                                 f"{data.shape[0]} data rows")
        data = data.copy()
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


def _load_square_dir(path: str) -> tuple[np.ndarray, int, list[str]]:
    files = sorted(f for f in os.listdir(path) if f.lower().endswith(".csv"))
    if not files:
        raise ValidationError("empty", f"no CSV files in {path!r}")
    rows, ids = [], []
    node_count = None
    for fname in files:
        m = np.loadtxt(os.path.join(path, fname), delimiter=",", ndmin=2)
        if node_count is None:
            node_count = m.shape[0]
        elif m.shape[0] != node_count:
            raise DimensionError(
                "dimension_mismatch",
                f"{fname} has {m.shape[0]} nodes, earlier subjects had {node_count}")
        try:
            rows.append(vectorize(m))
        except ValidationError as err:
            raise ValidationError(err.code, f"{fname}: {err.args[0]}") from err
        ids.append(os.path.splitext(fname)[0])
    return np.vstack(rows), int(node_count), ids


def _load_edge_csv(path: str) -> tuple[np.ndarray, int, None]:
    with open(path) as fh:
        header = fh.readline().strip()
    labels = [h.strip() for h in header.split(",") if h.strip()]
    node_count = nodes_from_edge_count(len(labels))
    if labels != edge_labels(node_count):
        raise ValidationError(
            "bad_header",
            f"edge CSV header does not follow the 1-based u_v enumeration "
            f"order for V={node_count}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(labels):
        raise DimensionError("dimension_mismatch",
                             f"data rows have {data.shape[1]} fields, header has {len(labels)}")
    return data, node_count, None


def load_dataset(path: str, format: str | None = None,
                 fisher: bool = False) -> ConnectivityDataset:
    """Load a dataset from disk.

    format "square": directory of per-subject V x V CSVs (no header,
    filename = subject id).  format "edge": single CSV whose header row
    holds the p edge labels "u_v" and whose N data rows are subjects.
    Omitted format is inferred from whether ``path`` is a directory.

    With ``fisher=True`` the Fisher-Z transform is applied to every edge
    value (inputs must be correlations in (-1, 1)).  Never automatic.
    """
    if format is None:
        format = "square" if os.path.isdir(path) else "edge"
    if format == "square":
        data, node_count, ids = _load_square_dir(path)
    elif format == "edge":
        data, node_count, ids = _load_edge_csv(path)
    else:
        raise ValidationError("bad_format", f"unknown format {format!r}")
    if not np.all(np.isfinite(data)):
        raise ValidationError("non_finite", f"{path!r} contains NaN or Inf values")
    if fisher:
        data = fisher_z(data)
    return ConnectivityDataset(data=data, node_count=node_count, subject_ids=ids)


def save_dataset(dataset: ConnectivityDataset, path: str) -> None:
    """Write a dataset in edge CSV format (lossless for float64)."""
    header = ",".join(edge_labels(dataset.node_count))
    np.savetxt(path, dataset.data, delimiter=",", header=header,
               comments="", fmt="%.17g")
