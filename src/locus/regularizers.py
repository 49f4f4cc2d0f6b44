"""Pluggable sparsity penalties for the low-rank decomposition.

Three variants share the solver's outer loop and differ only in the block
prox forms:

* ``uniform_l1`` (default): element-wise L1 on the reconstructed source's
  edges -- soft-threshold in edge space before the low-rank projection.
* ``vector_l1``: L1 on the entries of the coordinate matrices X --
  soft-threshold the node row after an unpenalized least-squares step.
* ``nuclear``: nuclear norm of the reconstructed source -- shrinkage of
  the diagonal weights (valid while X stays near-orthonormal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .solver import (LowRankSource, REGULARIZERS, _solve_gram, node_targets,
                     soft_threshold, sweep_nodes)

ORTHO_GRAM_TOL = 1e-3


@dataclass(frozen=True)
class RegularizerKind:
    variant: str
    weight: float

    def __post_init__(self):
        if self.variant not in REGULARIZERS:
            raise ValidationError("bad_config",
                                  f"unknown regularizer {self.variant!r}, "
                                  f"expected one of {REGULARIZERS}")
        if self.weight < 0:
            raise ValidationError("bad_config",
                                  f"weight must be >= 0, got {self.weight}")


def _nuclear_norm(source: LowRankSource) -> float:
    """Nuclear norm of the reconstructed V x V matrix.  With orthonormal
    columns this is sum |d_r|; otherwise fall back to singular values."""
    gram = source.x.T @ source.x
    if np.linalg.norm(gram - np.eye(source.rank)) <= ORTHO_GRAM_TOL:
        return float(np.sum(np.abs(source.d)))
    return float(np.sum(np.linalg.svd(source.matrix(), compute_uv=False)))


def penalty_value(kind: RegularizerKind, sources: list[LowRankSource]) -> float:
    """Penalty term of the objective for the given sources."""
    if kind.weight == 0:
        return 0.0
    if kind.variant == "uniform_l1":
        total = sum(float(np.sum(np.abs(s.edge_vector()))) for s in sources)
    elif kind.variant == "vector_l1":
        total = sum(float(np.sum(np.abs(s.x))) for s in sources)
    else:
        total = sum(_nuclear_norm(s) for s in sources)
    return kind.weight * total


def prox_step(kind: RegularizerKind, target: np.ndarray,
              context: dict | None = None) -> np.ndarray:
    """Variant-specific block update.

    With ``context`` holding "x", "d" and "node", solves the node-coordinates
    subproblem; with "z" (the per-component edge-vector design), the
    diagonal-weights subproblem.  Without context, applies the variant's
    elementwise shrinkage to ``target`` directly.
    """
    context = context or {}
    target = np.asarray(target, dtype=float)
    t = kind.weight / 2.0

    if "node" in context:
        x, d, v = context["x"], context["d"], context["node"]
        if kind.variant == "uniform_l1":
            target = soft_threshold(target, t)
        shrink = t if kind.variant == "vector_l1" else 0.0
        return sweep_nodes([(x, d)], node_targets(target, v), shrink,
                           nodes=(v,))[0][v]

    if "z" in context:
        z = context["z"]
        if kind.variant == "uniform_l1":
            return _solve_gram(z.T @ z, z.T @ soft_threshold(target, t))
        if kind.variant == "vector_l1":
            return _solve_gram(z.T @ z, z.T @ target)
        return soft_threshold(_solve_gram(z.T @ z, z.T @ target), t)

    return soft_threshold(target, t)
