"""Finite-horizon recurrence statistics.

The asymptotic quantity liminf_n r_n d(f(T^n x), f(x)) is replaced by the
monotone finite proxy min over a reported index window [n_start, N]; the
library never claims an infinite-limit value.  Window sets use the strict
inequality r_n d < k, so exact boundary ties are excluded (measure zero
for analytic maps; possible but rare for grid maps, and documented).

Monte Carlo estimators draw their whole sample once from a counter-based
generator, then walk all orbits in lock-step with early exit, so results
are a pure function of (configuration, seed) regardless of how work would
be scheduled.  Every union estimator, here and in ``hitting``, is one
call of ``first_hit_fraction``, which owns the single first-hit rule
coef_n * d(f(T^n x), ref) < bound_n; the estimators differ only in the
references, coefficients and bounds they pass.

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

from .maps import MAX_HORIZON, GridBackedMap, SystemMap, iterate, natural_measure
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


def first_hit_fraction(system_map: SystemMap, observable: Observable, pts: np.ndarray,
                       refs: np.ndarray, n_lo: int, n_hi: int, coef, bound) -> float:
    """Fraction of the points x in ``pts`` with, for some n in [n_lo, n_hi],
    coef[n - n_lo] * d(f(T^n x), ref_x) < bound[n - n_lo].

    The one first-hit rule of every union estimator: window union (coef =
    r_n, bound = k), wp union (coef = 1, bound = p / r_n) and shrinking
    targets (identity observable, coef = 1, bound = t_n); times 1.0 is
    exact.  ``refs`` is one reference per point (S, k) or one for all
    (1, k); ``coef`` and ``bound`` are scalars or sequences over the
    window.  One ``system_map.step`` per n moves all points together; each
    is dropped at its first hit, so the cost follows the survivors.
    """
    if n_hi > MAX_HORIZON:
        raise ValueError(f"horizon {n_hi} exceeds the {MAX_HORIZON} cap")
    total = pts.shape[0]
    length = n_hi - n_lo + 1
    coef = np.broadcast_to(np.asarray(coef, dtype=np.float64), (length,))
    bound = np.broadcast_to(np.asarray(bound, dtype=np.float64), (length,))
    cur = np.asarray(pts, dtype=np.float64)
    for _ in range(n_lo - 1):
        cur = system_map.step(cur)
    hits = 0
    for i in range(length):
        cur = system_map.step(cur)
        d = observable.distance(observable.values(cur), refs)
        # Python floats from .item(): cheaper in the ufuncs than numpy scalars.
        d *= coef.item(i)
        hit = d < bound.item(i)
        nh = int(np.count_nonzero(hit))
        if nh:
            hits += nh
            keep = ~hit
            cur = cur[keep]
            if refs.shape[0] > 1:
                refs = refs[keep]
            if cur.shape[0] == 0:
                break
    return hits / total


def _window_union(system_map, observable, rate, window, pts) -> float:
    rates = rate.values(np.arange(window.m, window.l + 1))
    return first_hit_fraction(system_map, observable, pts, observable.values(pts),
                              window.m, window.l, rates, window.k)


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
        measure = natural_measure(system_map)
    frac = _window_union(system_map, observable, rate, window, measure.sample(samples, seed))
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
    return _window_union(system_map, observable, rate, window, system_map.grid.all_centers())
