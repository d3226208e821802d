"""Finite-horizon hitting and shrinking-target statistics.

"Hits infinitely often" is proxied by "hits at least once in an explicit
index window [m, N]"; m excludes the initial transient and both ends are
reported alongside every output.  With the identity observable and
y = x the hitting score coincides exactly with the recurrence score.
The wp union and the shrinking-target fraction are each one call of
``recurrence.first_hit_fraction`` with coefficient 1; the wp count walks
an analytic map (``recurrence.orbit_walk``) and counts a grid map by class.

Targets are assumed, not checked, to have zero-mass observable fibers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import GridBackedMap, SystemMap, check_horizon, sample_points
from .observables import IdentityObservable, Observable
from .rates import RateSequence, Shrinking
from .recurrence import MeasureEstimate, _residue_counts, first_hit_fraction, orbit_walk, score_scan
from .spaces import require_finite, wrap


@dataclass(frozen=True)
class WpWindow:
    """Ball-scale multiplier p with index window [m, l], l at most
    ``MAX_HORIZON``."""

    p: int
    m: int
    l: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if not (1 <= self.m <= self.l):
            raise ValueError("window needs 1 <= m <= l")
        check_horizon(self.l)


@dataclass(frozen=True)
class ShrinkingTargetSpec:
    """Target y with radii t_n = n^(-1/beta)."""

    y: tuple
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @property
    def radii(self) -> Shrinking:
        return Shrinking(self.beta)


def hitting_score(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    x: np.ndarray,
    y: np.ndarray,
    horizon: int,
    n_start: int = 1,
):
    """min over n in [n_start, horizon] of r_n d(f(T^n x), f(y)).

    Nonincreasing in ``horizon``; equals the recurrence score when y = x.
    A start point x (d,) gives a float, a batch (S, d) an array of S
    scores against the one target y, scanned together.
    """
    x = np.asarray(x, dtype=np.float64)  # score_scan checks and wraps it
    y = wrap(require_finite(y, "hitting target"), system_map.dim)
    batch = np.atleast_2d(x)
    ref = observable.values(y[None, :])
    refs = np.broadcast_to(ref, (batch.shape[0], ref.shape[1]))
    scores = score_scan(system_map, observable, rate, batch, refs, horizon, n_start)
    return scores if x.ndim == 2 else float(scores[0])


def wp_hit_count(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    x: np.ndarray,
    y: np.ndarray,
    window: WpWindow,
) -> int:
    """Exact count of n in [m, l] with d(f(T^n x), f(y)) < p / r_n, by
    residue class on a grid-backed map, else along one orbit walk."""
    x = wrap(require_finite(x, "start point"), system_map.dim)
    y = wrap(require_finite(y, "hitting target"), system_map.dim)
    ref, m = observable.values(y[None, :]), window.m
    if isinstance(system_map, GridBackedMap):
        return int(_residue_counts(system_map, observable, x[None, :], ref, m, window.l - m + 1,
                                   lambda a, b: np.ones(b - a),
                                   lambda a, b: window.p / rate.values(np.arange(m + a, m + b)))[0])
    count = 0

    def visit(i, d):
        nonlocal count
        radii = window.p / rate.values(np.arange(m + i, m + i + d.shape[0]))
        count += int(np.count_nonzero(d[:, 0] < radii))

    orbit_walk(system_map, observable, x[None, :], ref, m, window.l, visit)
    return count


def wp_union_measure(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    y: np.ndarray,
    window: WpWindow,
    samples: int,
    seed: int,
) -> MeasureEstimate:
    """Monte Carlo measure of points hitting B(f(y), p/r_n) within the window,
    by ``first_hit_fraction``: the fraction of samples with wp_hit_count >= 1
    on the same window and seed."""
    if samples < 100:
        raise ValueError("union-measure estimates need at least 100 samples")
    pts = sample_points(system_map, samples, seed)
    y = wrap(require_finite(y, "hitting target"), system_map.dim)
    radii = window.p / rate.values(np.arange(window.m, window.l + 1))
    frac = first_hit_fraction(system_map, observable, pts, observable.values(y[None, :]),
                              window.m, window.l, 1.0, radii)
    return MeasureEstimate(frac, samples, seed)


def borel_cantelli_fraction(
    system_map: SystemMap,
    spec: ShrinkingTargetSpec,
    m: int,
    horizon: int,
    samples: int,
    seed: int,
) -> float:
    """Fraction of sampled orbits entering B(y, t_n) for some n in [m, horizon].

    Finite proxy for the shrinking-target "infinitely many n" event;
    deterministic given the seed.
    """
    if not (1 <= m < horizon):
        raise ValueError("need 1 <= m < horizon")
    check_horizon(horizon)
    y = wrap(require_finite(spec.y, "shrinking target"), system_map.dim)
    pts = sample_points(system_map, samples, seed)
    radii = spec.radii.values(np.arange(m, horizon + 1))
    return first_hit_fraction(system_map, IdentityObservable(system_map.dim), pts, y[None, :],
                              m, horizon, 1.0, radii)
