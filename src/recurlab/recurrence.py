"""Finite-horizon recurrence statistics.

The asymptotic quantity liminf_n r_n d(f(T^n x), f(x)) is replaced by the
monotone finite proxy min over a reported index window [n_start, N]; the
library never claims an infinite-limit value.  Window sets use the strict
inequality r_n d < k, so exact boundary ties are excluded (measure zero
for analytic maps; possible but rare for grid maps, and documented).

Monte Carlo estimators draw their whole sample once from a counter-based
generator, then walk all orbits in lock-step with early exit, so results
are a pure function of (configuration, seed) regardless of how work would
be scheduled.

Scores are scanned in batches: ``score_scan`` advances S start points
together through ``SystemMap.orbit_blocks`` (blocks of max(1, 4096 // S)
steps, so about 4096 * d values are live) and keeps a running minimum per
point.  Each point is stepped and scored by the same float arithmetic as
a scan of that point alone, so a batch gives the scores of S single-point
calls bit for bit, in one Python loop instead of S.  One exception: a
single-point scan whose horizon is 1 more than a multiple of 4096 ends
with a one-step block, and numpy's one-row matrix product can round a
trig observable's phase (a frequency entry that is not 0 or a power of
two, d >= 2) differently from the many-row product a batch uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import MAX_HORIZON, GridBackedMap, SystemMap, iterate
from .observables import Observable
from .rates import RateSequence
from .spaces import MeasureModel, require_finite


@dataclass(frozen=True)
class RecurrenceWindow:
    """Index window [m, l] with closeness threshold k > 0."""

    m: int
    l: int
    k: float

    def __post_init__(self):
        if not (1 <= self.m <= self.l):
            raise ValueError("window needs 1 <= m <= l")
        if self.k <= 0:
            raise ValueError("threshold k must be positive")


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte Carlo estimate of a measure, with its binomial standard error."""

    value: float
    samples: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("measure estimates live in [0, 1]")
        if self.samples < 1:
            raise ValueError("sample count must be positive")

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.value * (1.0 - self.value) / self.samples))


def score_scan(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    x: np.ndarray,
    reference: np.ndarray,
    horizon: int,
    n_start: int = 1,
) -> np.ndarray:
    """Row by row, min over n in [n_start, horizon] of r_n * d(f(T^n x), reference).

    ``x`` is an (S, d) batch of points and ``reference`` an (S, k) batch of
    points of the observable's codomain (f(x) for recurrence, f(y) for
    hitting); returns the S scores.  One lock-step pass over all S orbits,
    O(horizon) map evaluations per point in blocks of
    ``SystemMap.orbit_blocks``; each score is the same float as a scan of
    its point alone.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the {MAX_HORIZON} cap")
    if not (1 <= n_start <= horizon):
        raise ValueError("need 1 <= n_start <= horizon")
    x = system_map.space.wrap(require_finite(x, "start points"))
    reference = require_finite(reference, "references")
    if x.ndim != 2 or reference.ndim != 2 or reference.shape[0] != x.shape[0]:
        raise ValueError(
            f"need (S, d) points and (S, k) references, got {x.shape} and {reference.shape}"
        )
    samples, dim = x.shape
    best = np.full(samples, np.inf)
    for n, block in system_map.orbit_blocks(x, horizon):
        count = block.shape[0]
        if n + count < n_start:
            continue
        vals = observable.values(block.reshape(count * samples, dim))
        dist = observable.distance(vals.reshape(count, samples, -1), reference[None])
        scored = rate.values(np.arange(n + 1, n + count + 1))[:, None] * dist
        np.minimum(best, scored[max(0, n_start - n - 1):].min(axis=0), out=best)
    return best


def recurrence_score(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    x: np.ndarray,
    horizon: int,
    n_start: int = 1,
):
    """Finite-horizon recurrence proxy min_n r_n d(f(T^n x), f(x)).

    Nonincreasing in ``horizon``; ``n_start`` > 1 restricts the scan to
    the tail window [n_start, horizon] (the liminf-style proxy).  A point
    (d,) gives a float, a batch (S, d) an array of S scores, scanned
    together.
    """
    x = system_map.space.wrap(require_finite(x, "start points"))
    batch = np.atleast_2d(x)
    # f of each point alone: a one-row trig phase rounds like a lone point's.
    refs = observable.values(batch[:, None, :])[:, 0]
    scores = score_scan(system_map, observable, rate, batch, refs, horizon, n_start)
    return scores if x.ndim == 2 else float(scores[0])


def in_window_set(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    x: np.ndarray,
    n: int,
    k: float,
) -> bool:
    """Strict membership test r_n d(f(T^n x), f(x)) < k."""
    if n < 1:
        raise ValueError("window index n must be >= 1")
    if k <= 0:
        raise ValueError("threshold k must be positive")
    x = system_map.space.wrap(np.asarray(x, dtype=np.float64))
    ref = observable.values(x[None, :])[0]
    img = iterate(system_map, x, n)
    dist = float(observable.distance(observable.values(img[None, :]), ref[None, :])[0])
    return rate.value(n) * dist < k


def first_hit_fraction(system_map, pts0, n_lo, n_hi, hit_fn) -> float:
    """Fraction of start points whose orbit hits before the window closes.

    ``hit_fn(n, pts, idx)`` returns a boolean array for the still-alive
    points ``pts`` (original indices ``idx``) at orbit time n.  Points are
    dropped at their first hit, so the loop cost follows the survivors.
    """
    if n_hi > MAX_HORIZON:
        raise ValueError(f"horizon {n_hi} exceeds the {MAX_HORIZON} cap")
    total = pts0.shape[0]
    pts = np.asarray(pts0, dtype=np.float64)
    idx = np.arange(total)
    hits = 0
    cur = pts
    for _ in range(n_lo - 1):
        cur = system_map.step(cur)
    for n in range(n_lo, n_hi + 1):
        cur = system_map.step(cur)
        hit = hit_fn(n, cur, idx)
        nh = int(np.count_nonzero(hit))
        if nh:
            hits += nh
            keep = ~hit
            cur = cur[keep]
            idx = idx[keep]
            if cur.shape[0] == 0:
                break
    return hits / total


def _natural_measure(system_map: SystemMap) -> MeasureModel:
    if isinstance(system_map, GridBackedMap):
        return MeasureModel(system_map.space, system_map.grid)
    return MeasureModel(system_map.space)


def window_union_measure(
    system_map: SystemMap,
    observable: Observable,
    rate: RateSequence,
    window: RecurrenceWindow,
    samples: int,
    seed: int,
    measure: MeasureModel | None = None,
) -> MeasureEstimate:
    """Monte Carlo measure of the union over n in [m, l] of the window sets.

    A sampled point counts as soon as one n in the window satisfies
    r_n d(f(T^n x), f(x)) < k (early exit).  Deterministic given the seed.
    """
    if samples < 100:
        raise ValueError("union-measure estimates need at least 100 samples")
    if measure is None:
        measure = _natural_measure(system_map)
    pts = measure.sample(samples, seed)
    refs = observable.values(pts)
    rate_vals = rate.values(np.arange(window.m, window.l + 1))

    def hit(n, cur, idx):
        d = observable.distance(observable.values(cur), refs[idx])
        return rate_vals[n - window.m] * d < window.k

    frac = first_hit_fraction(system_map, pts, window.m, window.l, hit)
    return MeasureEstimate(frac, samples, seed)


def window_union_exhaustive(
    system_map: GridBackedMap,
    observable: Observable,
    rate: RateSequence,
    window: RecurrenceWindow,
) -> float:
    """Exact window-union measure by enumerating every grid cell."""
    if not isinstance(system_map, GridBackedMap):
        raise ValueError("exhaustive evaluation needs a grid-backed map")
    pts = system_map.grid.all_centers()
    refs = observable.values(pts)
    rate_vals = rate.values(np.arange(window.m, window.l + 1))

    def hit(n, cur, idx):
        d = observable.distance(observable.values(cur), refs[idx])
        return rate_vals[n - window.m] * d < window.k

    return first_hit_fraction(system_map, pts, window.m, window.l, hit)
