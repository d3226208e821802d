"""State spaces, wrap-around metrics, and uniform sampling.

Two kinds of space are supported:

  * ``torus(d)``  -- the d-torus with coordinates in [0, 1), wrap metric.
  * ``box(d, L)`` -- the cube [-L, L]^d with the plain L-infinity metric.

All point sets are numpy arrays of shape (n, d) (or (d,) for a single
point); every function broadcasts over the leading axis.  The metric is
L-infinity in both cases because it is the cheapest per step inside the
orbit kernels; every statistic produced downstream depends on this choice
and records it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Space:
    """Tagged state space: ``kind`` is "torus" or "box" (half-width L)."""

    kind: str
    dim: int
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("torus", "box"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "box" and self.half_width <= 0:
            raise ValueError("box half-width must be positive")

    @property
    def diameter(self) -> float:
        """Largest possible distance between two points."""
        return 0.5 if self.kind == "torus" else 2.0 * self.half_width

    @property
    def extent(self) -> float:
        """Side length of the space along one axis."""
        return 1.0 if self.kind == "torus" else 2.0 * self.half_width

    @property
    def origin(self) -> float:
        """Lowest coordinate value along each axis."""
        return 0.0 if self.kind == "torus" else -self.half_width

    @property
    def volume(self) -> float:
        return self.extent ** self.dim

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        """Reduce coordinates into the canonical representation.

        Torus coordinates are reduced mod 1 into [0, 1); a tiny negative
        coordinate, whose remainder rounds up to 1.0, becomes 0.0.  Box
        coordinates are validated to lie within [-L, L]; out-of-range
        points are a caller error, never silently clipped.
        """
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(
                f"point dimension {pts.shape[-1]} != space dimension {self.dim}"
            )
        if self.kind == "torus":
            out = pts % 1.0
            out[out == 1.0] = 0.0
            return out
        if np.any(np.abs(pts) > self.half_width + 1e-12):
            raise ValueError("box point outside [-L, L]^d")
        return pts

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """L-infinity distance, with per-axis wrap on the torus."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        delta = np.abs(a - b)
        if self.kind == "torus":
            delta = np.minimum(delta, 1.0 - delta)
        return linf(delta)


def require_finite(pts, what: str) -> np.ndarray:
    """``pts`` as float64; a nan or inf coordinate is a ValueError naming
    ``what``.  For public entry points, once per call: ``wrap`` and
    ``cell_of`` stay unchecked, as they run once per orbit step."""
    pts = np.asarray(pts, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} must be finite, got a nan or inf coordinate")
    return pts


def linf(delta: np.ndarray) -> np.ndarray:
    """Max over the last axis, one ``np.maximum`` per column: the same
    value as ``delta.max(axis=-1)``, without numpy's slow reduce over a
    short axis.  A single point gives a scalar."""
    out = delta[..., 0]
    for j in range(1, delta.shape[-1]):
        out = np.maximum(out, delta[..., j])
    return out[()]


def torus(dim: int) -> Space:
    return Space("torus", dim)


def box(dim: int, half_width: float) -> Space:
    return Space("box", dim, half_width)


def torus_distance(space: Space, a: np.ndarray, b: np.ndarray):
    """Distance between points of a common space.

    On the torus this is max over axes of min(|dx|, 1 - |dx|); on a box the
    plain L-infinity distance.  Symmetric, satisfies the triangle
    inequality, and is zero exactly on equal points.

    Raises:
        ValueError: if the point dimensions do not match the space.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != space.dim or b.shape[-1] != space.dim:
        raise ValueError("mismatched point dimensions for distance")
    return space.distance(a, b)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so sample i is a pure function of (seed, i).

    Philox is used everywhere Monte Carlo draws are made: prefixes are
    stable, i.e. the first S samples of a size-S' >= S draw are identical,
    which the common-random-number monotonicity guarantees rely on.
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class MeasureModel:
    """Uniform (Lebesgue / normalized counting) measure with a sampler.

    With ``grid`` unset, sampling is uniform over the continuous space.
    With ``grid`` set, the measure is the normalized counting measure on
    the grid's cells and samples are cell centers of uniformly drawn
    cells; this makes Monte Carlo an unbiased estimator of exhaustive
    cell sums for grid-backed systems.
    """

    space: Space
    grid: object = None  # GridSpec, kept untyped to avoid a module cycle

    @property
    def total_mass(self) -> float:
        return 1.0 if self.space.kind == "torus" else self.space.volume

    def sample(self, count: int, seed: int) -> np.ndarray:
        if count < 1:
            raise ValueError("sample count must be >= 1")
        rng = make_rng(seed)
        if self.grid is not None:
            idx = rng.integers(0, self.grid.cell_count, size=count)
            return self.grid.centers(idx)
        u = rng.random((count, self.space.dim))
        return self.space.origin + self.space.extent * u


def uniform_measure(space: Space) -> MeasureModel:
    return MeasureModel(space)
