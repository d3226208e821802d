"""The d-torus [0, 1)^d: its wrap, its wrap-around metric, and seeded draws.

Every system lives on a torus, named by its dimension d alone, with
coordinates in [0, 1) and the wrap-around L-infinity metric.

All point sets are numpy arrays of shape (n, d) (or (d,) for a single
point); every function broadcasts over the leading axis.  The metric is
L-infinity because it is the cheapest per step inside the orbit kernels;
every statistic produced downstream depends on this choice and records
it.
"""

from __future__ import annotations

import numpy as np

# Largest possible distance between two points of a torus.
DIAMETER = 0.5


def wrap(pts: np.ndarray, dim: int) -> np.ndarray:
    """Points of the ``dim``-torus reduced mod 1 as x - floor(x) (``frac``),
    which has the bits of ``x % 1.0``: both round the exact x - floor(x)
    once.  A tiny negative coordinate, whose remainder rounds up to 1.0,
    becomes 0.0 here (a map step keeps that 1.0).

    Raises:
        ValueError: if the points' last axis is not ``dim`` long.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.shape[-1] != dim:
        raise ValueError(f"point dimension {pts.shape[-1]} != space dimension {dim}")
    out = frac(pts)
    out[out == 1.0] = 0.0
    return out


def distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L-infinity distance with per-axis wrap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.abs(a - b)
    delta = np.minimum(delta, 1.0 - delta)
    return linf(delta)


def frac(x):
    """x mod 1 as x - floor(x): the same bits as numpy's ``x % 1.0``, at a
    fraction of the cost (numpy's float ``%`` is libm ``fmod`` plus a sign
    fix).  Both ``fmod(x, 1)`` and ``floor(x)`` are exact, so both paths
    round the one real number x - floor(x) once: -0.0 gives +0.0 and a
    tiny negative gives 1.0 in either."""
    return x - np.floor(x)


def paired(batch: np.ndarray, axis: int = 0) -> np.ndarray:
    """``batch``, or its lone entry along ``axis`` beside a copy of itself.

    The one product rule: every float matrix product is a many-row product.
    numpy hands a product with a lone row (or column) to a matrix-vector
    routine, which rounds apart from the many-row one once an entry such as
    3 makes products inexact; the two kernels that multiply
    (``ToralAutomorphism`` and ``CoordinateTrig``) multiply ``paired(batch)``
    and keep the rows of ``batch``, so a point gets the same bits in any
    batch."""
    return np.repeat(batch, 2, axis=axis) if batch.shape[axis] == 1 else batch


def require_finite(pts, what: str) -> np.ndarray:
    """``pts`` as float64; a nan or inf coordinate is a ValueError naming
    ``what``.  For public entry points, once per call: ``wrap`` and
    ``cell_of`` stay unchecked, as they run once per orbit step."""
    pts = np.asarray(pts, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} must be finite, got a nan or inf coordinate")
    return pts


def check_point(x, dim: int) -> np.ndarray:
    """One finite point of the ``dim``-torus, wrapped."""
    x = require_finite(x, "point")
    if x.ndim != 1 or x.shape[0] != dim:
        raise ValueError(f"point of dimension {x.shape} does not live on a {dim}-dim space")
    return wrap(x, dim)


def require_dim(dim: int) -> None:
    """A torus has dimension >= 1."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")


def linf(delta: np.ndarray) -> np.ndarray:
    """Max over the last axis, one ``np.maximum`` per column: the same
    value as ``delta.max(axis=-1)``, without numpy's slow reduce over a
    short axis.  A single point gives a scalar."""
    out = delta[..., 0]
    for j in range(1, delta.shape[-1]):
        out = np.maximum(out, delta[..., j])
    return out[()]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so sample i is a pure function of (seed, i).

    Philox is used everywhere Monte Carlo draws are made: prefixes are
    stable, i.e. the first S samples of a size-S' >= S draw are identical,
    which the common-random-number monotonicity guarantees rely on.
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))
