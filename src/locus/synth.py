"""Synthetic multi-subject connectivity data with known ground truth.

Two built-in scenarios provide three binary source templates each, drawn as
fractions of the node axis so they render at any V >= 10:

Scenario "blocks_cross":
  1. diagonal block: nodes [0.10V, 0.40V) fully connected
  2. cross: every edge touching the node band [0.45V, 0.55V)
  3. off-diagonal block: all edges between node sets [0.60V, 0.80V) and
     [0.20V, 0.40V)

Scenario "triangle_circle_square":
  1. triangle: pairs u < v with v <= 0.35V and (v - u) <= (0.35V - u)
  2. circle: edge ring (a - 0.55V)^2 + (b - 0.25V)^2 in [(0.06V)^2, (0.12V)^2]
  3. hollow square: border of the edge rectangle [0.65V, 0.90V) x
     [0.10V, 0.35V)

Supports take value 1; loadings are drawn i.i.d. uniform on [-2, -0.5]
union [0.5, 2] unless a custom sampler is supplied; i.i.d. Gaussian edge
noise is added on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connmat import ConnectivityDataset, vectorize
from .errors import DimensionError, ValidationError

SCENARIOS = ("blocks_cross", "triangle_circle_square")


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for one synthetic dataset.

    loading_dist : optional callable (rng, size) -> (N, q) array
        overriding the default split-uniform loading sampler
    """

    node_count: int
    q: int
    n_subjects: int
    sigma: float
    scenario: str = "blocks_cross"
    seed: int = 0
    loading_dist: Callable[[np.random.Generator, tuple], np.ndarray] | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError("bad_scenario",
                                  f"unknown scenario {self.scenario!r}, "
                                  f"expected one of {SCENARIOS}")
        if not self.sigma >= 0:
            raise ValidationError("bad_config", f"sigma must be >= 0, got {self.sigma}")
        if self.seed < 0:
            raise ValidationError("bad_config", f"seed must be >= 0, got {self.seed}")
        if self.n_subjects < 1 or self.q < 1:
            raise ValidationError("bad_config", "need at least one subject and one source")
        if self.node_count < 10:
            raise ValidationError("template_too_small",
                                  f"shape templates need V >= 10, got {self.node_count}")
        if self.q != 3:
            raise ValidationError("bad_config",
                                  f"scenario {self.scenario!r} defines 3 sources, got q={self.q}")


@dataclass(frozen=True)
class GroundTruth:
    """True sources (q, p), loadings (N, q) and the noise level."""

    sources: np.ndarray
    loadings: np.ndarray
    noise_sd: float


def _span(node_count: int, lo_frac: float, hi_frac: float) -> np.ndarray:
    lo = int(round(lo_frac * node_count))
    hi = int(round(hi_frac * node_count))
    return np.arange(lo, hi)


def _symmetrize_support(mask: np.ndarray) -> np.ndarray:
    mask = np.logical_or(mask, mask.T)
    np.fill_diagonal(mask, False)
    return mask.astype(float)


def templates_blocks_cross(node_count: int) -> list[np.ndarray]:
    v = node_count

    block = _span(v, 0.10, 0.40)
    m1 = np.zeros((v, v), dtype=bool)
    m1[np.ix_(block, block)] = True

    band = _span(v, 0.45, 0.55)
    in_band = np.isin(np.arange(v), band)
    m2 = in_band[:, None] | in_band[None, :]

    left, right = _span(v, 0.60, 0.80), _span(v, 0.20, 0.40)
    m3 = np.zeros((v, v), dtype=bool)
    m3[np.ix_(left, right)] = True

    return [_symmetrize_support(m) for m in (m1, m2, m3)]


def templates_triangle_circle_square(node_count: int) -> list[np.ndarray]:
    v = node_count
    a, b = np.meshgrid(np.arange(v), np.arange(v), indexing="ij")

    t = 0.35 * v
    m1 = (a < b) & (b <= t) & ((b - a) <= (t - a))

    cu, cv = 0.55 * v, 0.25 * v
    r1, r2 = 0.06 * v, 0.12 * v
    dist2 = (a - cu) ** 2 + (b - cv) ** 2
    m2 = (dist2 >= r1 ** 2) & (dist2 <= r2 ** 2)

    rows = _span(v, 0.65, 0.90)
    cols = _span(v, 0.10, 0.35)
    inside = (np.isin(a, rows)) & (np.isin(b, cols))
    on_border = ((a == rows[0]) | (a == rows[-1]) | (b == cols[0]) | (b == cols[-1]))
    m3 = inside & on_border

    return [_symmetrize_support(m) for m in (m1, m2, m3)]


def _default_loadings(rng: np.random.Generator, size: tuple) -> np.ndarray:
    """Uniform on [-2, -0.5] union [0.5, 2]: magnitudes bounded away from
    zero so every source is present in every subject."""
    magnitude = rng.uniform(0.5, 2.0, size=size)
    sign = rng.choice([-1.0, 1.0], size=size)
    return magnitude * sign


def scenario_templates(spec: SyntheticSpec) -> list[np.ndarray]:
    if spec.scenario == "blocks_cross":
        return templates_blocks_cross(spec.node_count)
    return templates_triangle_circle_square(spec.node_count)


def generate(spec: SyntheticSpec) -> tuple[ConnectivityDataset, GroundTruth]:
    """Build the dataset Y = loadings @ sources + noise from a spec.

    Deterministic for a fixed spec (seeded).  Both scenarios render
    nonempty, pairwise distinct supports at every V >= 10.
    """
    rng = np.random.default_rng(spec.seed)
    sources = np.vstack([vectorize(m) for m in scenario_templates(spec)])

    size = (spec.n_subjects, spec.q)
    sampler = spec.loading_dist or _default_loadings
    loadings = np.asarray(sampler(rng, size), dtype=float)
    if loadings.shape != size:
        raise DimensionError("dimension_mismatch",
                             f"loading sampler returned shape {loadings.shape}, "
                             f"expected {size}")

    y = loadings @ sources
    if spec.sigma > 0:
        # row by row draws the same stream as one (N, p) draw
        for row in y:
            row += rng.normal(0.0, spec.sigma, size=row.shape)
    y.setflags(write=False)  # handed over to the dataset without a copy
    dataset = ConnectivityDataset(data=y, node_count=spec.node_count)
    return dataset, GroundTruth(sources=sources, loadings=loadings,
                                noise_sd=spec.sigma)
