"""Finite-horizon recurrence statistics.

The asymptotic quantity liminf_n r_n d(f(T^n x), f(x)) is replaced by the
monotone finite proxy min over a reported index window [n_start, N]; the
library never claims an infinite-limit value.  Window sets use the strict
inequality r_n d < k, so exact boundary ties are excluded (measure zero
for analytic maps; possible but rare for grid maps, and documented).

Monte Carlo estimators draw their whole sample once from a counter-based
generator, so results are a pure function of (configuration, seed)
regardless of how work would be scheduled.  Every union estimator, here
and in ``hitting``, is one call of ``first_hit_fraction``, which owns the
single first-hit rule coef_n * d(f(T^n x), ref) < bound_n; the
estimators differ only in the references, coefficients and bounds they
pass.

A grid-backed map is never walked: its statistics go by residue class,
off the permutation's cycle tables.  A cell on a cycle of length L is at
one cell for every n of a class n mod L, so d(f(T^n x), ref) depends on
the class only, and a window of ``span`` steps costs min(L, span)
distances.  Rounding is monotone and d >= 0, so the minimum over a class
of fl(r_n d) is fl((class minimum of r_n) d), the float of the
step-by-step scan.  So with a constant bound some fl(coef_n d) is below
it if and only if fl((class minimum of coef_n) d) is, and with a
constant coef some bound_n exceeds fl(coef d) if and only if the class
maximum does.  Other first hits, and ``hitting.wp_hit_count``, test
each n against its class distance (``_residue_counts``).

On analytic maps every statistic is one walk, ``orbit_walk``, whose
blocks of about 4096 * d values each go to the statistic once:
``score_scan`` keeps a minimum per point, ``first_hit_fraction`` drops
the points that hit, and ``hitting.wp_hit_count`` counts.  The maps and
observables give a point the same floats in any batch, so S points give
the results of S single-point calls bit for bit, in one Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import BLOCK_POINTS, GridBackedMap, SystemMap, check_horizon, sample_points
from .observables import Observable
from .rates import RateSequence
from .spaces import check_point, require_finite, wrap


@dataclass(frozen=True)
class RecurrenceWindow:
    """Index window [m, l], l at most ``MAX_HORIZON``, with closeness
    threshold k > 0."""

    m: int
    l: int
    k: float

    def __post_init__(self):
        if not (1 <= self.m <= self.l):
            raise ValueError("window needs 1 <= m <= l")
        check_horizon(self.l)
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
    hitting); returns the S scores, each the float of a scan of its point
    alone.  A grid-backed map goes by residue class; on other maps one
    lock-step pass over all S orbits (``orbit_walk``) takes O(horizon) map
    evaluations per point.  A product that is nan (inf * 0) is skipped, as
    the first-hit rule skips it, so a point hits a constant bound if and
    only if its score is below it.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    check_horizon(horizon)
    if not (1 <= n_start <= horizon):
        raise ValueError("need 1 <= n_start <= horizon")
    x = wrap(require_finite(x, "start points"), system_map.dim)
    reference = require_finite(reference, "references")
    if x.ndim != 2 or reference.ndim != 2 or reference.shape[0] != x.shape[0]:
        raise ValueError(
            f"need (S, d) points and (S, k) references, got {x.shape} and {reference.shape}"
        )
    if isinstance(system_map, GridBackedMap):
        return _residue_scores(system_map, observable, x, reference, n_start, horizon - n_start + 1,
                               lambda a, b: rate.values(np.arange(n_start + a, n_start + b)))
    best = np.full(x.shape[0], np.inf)

    def visit(i, d):
        rates = rate.values(np.arange(n_start + i, n_start + i + d.shape[0]))
        with np.errstate(invalid="ignore"):  # inf * 0 is nan, skipped by fmin
            d *= rates[:, None]
        np.fmin(best, np.fmin.reduce(d, axis=0), out=best)

    orbit_walk(system_map, observable, x, reference, n_start, horizon, visit)
    return best


def orbit_walk(system_map: SystemMap, observable: Observable, pts: np.ndarray,
               refs: np.ndarray, n_lo: int, n_hi: int, visit) -> int:
    """Walk the orbits of ``pts`` (S, d) through n in [n_lo, n_hi]; returns
    how many points ``visit`` stopped.

    The orbits reach n_lo - 1 through ``system_map.advance``; from there
    blocks of max(1, BLOCK_POINTS // S) steps, S the points still walking,
    go through ``system_map.step_block``.  ``visit(i, d)`` gets d[j, s] =
    d(f(T^(n_lo + i + j) x_s), ref_s) of the walking points, ``refs`` being
    (S, k), and returns None or a mask of the points that stop; they leave
    at the end of the block.
    """
    # (d, S) and (k, S) copies: a block then subtracts its references in one
    # memory order, where (S, k) rows would cost numpy's broadcast loop over k.
    start = np.ascontiguousarray(pts.T)
    ref_cols = np.ascontiguousarray(refs.T)
    cols = system_map.advance(start, start, 0, n_lo - 1)
    buf = np.empty(max(BLOCK_POINTS, start.shape[1]) * start.shape[0])
    stopped, n = 0, n_lo - 1
    while n < n_hi:
        count = min(n_hi - n, max(1, BLOCK_POINTS // start.shape[1]))
        block = buf[:count * start.size].reshape((count,) + start.shape)
        system_map.step_block(start, cols, n, block)
        d = observable.distance(observable.values(block.transpose(0, 2, 1)), ref_cols.T)
        stop = visit(n + 1 - n_lo, d)
        n += count
        nstop = 0 if stop is None else int(np.count_nonzero(stop))
        if nstop == start.shape[1]:
            return stopped + nstop
        if nstop:
            stopped += nstop
            # compress keeps C order, where [:, keep] would not.
            keep = ~stop
            start, ref_cols = np.compress(keep, start, axis=1), np.compress(keep, ref_cols, axis=1)
            cols = np.compress(keep, block[-1], axis=1)
        else:
            cols = block[-1].copy()
    return stopped


def _residue_scores(system_map, observable, x, reference, n0: int, span: int, coef):
    """min over n in [n0, n0 + span) of fl(coef_n d(f(T^n x), ref)) per row
    of x on a grid-backed map, by class minimum of coef_n (see the module
    docstring); coef(a, b) gives coef_(n0 + t) for t in [a, b)."""
    best = np.empty(x.shape[0])
    for classes, rows, cells in _cycle_groups(system_map, x, span):
        cmin = _class_reduce(coef, span, classes, np.minimum)
        score = np.full(rows.shape[0], np.inf)
        refs = reference[rows]
        for cols in _column_chunks(classes, rows.shape[0]):
            d = _class_distances(system_map, observable, cells, refs, n0, cols)
            with np.errstate(invalid="ignore"):  # inf * 0 is nan, skipped by fmin
                d *= cmin[cols]
            np.fmin(score, np.fmin.reduce(d, axis=1), out=score)
        best[rows] = score
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
    x = wrap(require_finite(x, "start points"), system_map.dim)
    batch = np.atleast_2d(x)
    refs = observable.values(batch)
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
    x = check_point(x, system_map.dim)
    check_horizon(n)
    ref = observable.values(x[None, :])
    img = system_map.advance(x[:, None], x[:, None], 0, n)[:, 0]
    dist = float(observable.distance(observable.values(img[None, :]), ref)[0])
    return rate.value(n) * dist < k


def first_hit_fraction(system_map: SystemMap, observable: Observable, pts: np.ndarray,
                       refs: np.ndarray, n_lo: int, n_hi: int, coef, bound) -> float:
    """Fraction of the points x in ``pts`` with, for some n in [n_lo, n_hi],
    coef[n - n_lo] * d(f(T^n x), ref_x) < bound[n - n_lo].

    The one first-hit rule of every union estimator: window union (coef =
    r_n, bound = k), wp union (coef = 1, bound = p / r_n) and shrinking
    targets (identity observable, coef = 1, bound = t_n); times 1.0 is
    exact.  ``pts`` is a non-empty finite (S, d) batch; ``refs`` is one
    reference per point (S, k) or one for all (1, k); ``coef`` and
    ``bound`` are scalars or sequences over the window, without nan.

    A grid-backed map goes by residue class; on other maps the points walk
    (``orbit_walk``): each block is tested once and the points that hit
    leave at its end, so the cost follows the survivors.

    Raises:
        ValueError: naming the argument, before any step, unless
        1 <= n_lo <= n_hi <= MAX_HORIZON and every array is as above.
    """
    if not (1 <= n_lo <= n_hi):
        raise ValueError(f"need 1 <= n_lo <= n_hi, got n_lo = {n_lo}, n_hi = {n_hi}")
    check_horizon(n_hi)
    dim = system_map.dim
    cur = require_finite(pts, "points")
    if cur.ndim != 2 or cur.shape[0] == 0 or cur.shape[1] != dim:
        raise ValueError(f"points must be a non-empty (S, {dim}) array, got shape {cur.shape}")
    total = cur.shape[0]
    refs = require_finite(refs, "refs")
    k = observable.output_dim
    if refs.ndim != 2 or refs.shape[0] not in (1, total) or refs.shape[1] != k:
        raise ValueError(f"refs must be ({total}, {k}) or (1, {k}), got shape {refs.shape}")
    refs = np.broadcast_to(refs, (total, k))
    length = n_hi - n_lo + 1
    coef = _over_window(coef, length, "coef")
    bound = _over_window(bound, length, "bound")
    if isinstance(system_map, GridBackedMap):
        return _residue_hits(system_map, observable, cur, refs, n_lo, length, coef, bound) / total

    def visit(i, d):
        count = d.shape[0]
        d *= coef[i:i + count, None]
        return (d < bound[i:i + count, None]).any(axis=0)

    # inf * 0 (an overflowed coef at distance 0) is nan and hits no bound.
    with np.errstate(invalid="ignore"):
        return orbit_walk(system_map, observable, cur, refs, n_lo, n_hi, visit) / total


def _residue_hits(system_map, observable, pts, refs, n_lo, span, coef, bound) -> int:
    """How many points of ``pts`` hit on a grid-backed map.  With a constant
    ``coef`` or ``bound`` over the window, one test per class distance d,
    fl(cmin d) < bmax, cmin the class minimum of coef and bmax the class
    maximum of bound (see the module docstring); else ``_residue_counts``."""
    if coef.min() < coef.max() and bound.min() < bound.max():
        counts = _residue_counts(system_map, observable, pts, refs, n_lo, span,
                                 lambda a, b: coef[a:b], lambda a, b: bound[a:b])
        return int(np.count_nonzero(counts))
    hits = 0
    for classes, rows, cells in _cycle_groups(system_map, pts, span):
        cmin = _class_reduce(lambda a, b: coef[a:b], span, classes, np.minimum)
        bmax = _class_reduce(lambda a, b: bound[a:b], span, classes, np.maximum)
        hit = np.zeros(rows.shape[0], dtype=bool)
        group_refs = refs[rows]
        for cols in _column_chunks(classes, rows.shape[0]):
            d = _class_distances(system_map, observable, cells, group_refs, n_lo, cols)
            with np.errstate(invalid="ignore"):  # inf * 0 is nan, which hits no bound
                d *= cmin[cols]
            hit |= (d < bmax[cols]).any(axis=1)
        hits += int(np.count_nonzero(hit))
    return hits


# Residue classes: rate, coef and bound values are read in chunks of whole
# rows of classes, and class distances taken, about this many at a time.
_CLASS_CHUNK = 1 << 16


def _cycle_groups(system_map, pts, span: int):
    """Group the points of an (S, d) batch by min(L, span), the number of
    non-empty residue classes of a window of ``span`` steps on their cells'
    cycles of length L; yields (classes, rows, cells) per group, ``rows``
    the points' indices and ``cells`` their cells."""
    cells = system_map.grid.cell_of(pts)
    classes = np.minimum(system_map.permutation.tables.length[cells], span)
    by_classes = np.argsort(classes, kind="stable")
    classes = classes[by_classes]
    edges = [0, *(np.flatnonzero(classes[1:] != classes[:-1]) + 1).tolist(), classes.shape[0]]
    for lo, hi in zip(edges, edges[1:]):
        rows = by_classes[lo:hi]
        yield int(classes[lo]), rows, cells[rows]


def _class_reduce(values, span: int, classes: int, reduce) -> np.ndarray:
    """``reduce`` (``np.minimum`` or ``np.maximum``) over each residue
    class t mod ``classes`` of t in [0, span) of ``values``, read by
    ``_class_rows`` and padded with the reduction's identity; classes <=
    span, so every class holds an entry and the padding never survives."""
    fill = np.inf if reduce is np.minimum else -np.inf
    out = None
    for chunk in _class_rows(values, span, classes, max(1, _CLASS_CHUNK // classes), fill):
        part = reduce.reduce(chunk, axis=0)
        out = part if out is None else reduce(out, part, out=out)
    return out


def _class_rows(values, span: int, classes: int, rows: int, fill: float):
    """values(t0, t1), the entries for t in [t0, t1), in (rows, classes)
    chunks, t at (t // classes, t % classes), padded with ``fill``."""
    step = classes * rows
    for t0 in range(0, span, step):
        chunk = values(t0, min(span, t0 + step))
        short = -chunk.shape[0] % classes
        if short:
            chunk = np.concatenate((chunk, np.full(short, fill)))
        yield chunk.reshape(-1, classes)


def _residue_counts(system_map, observable, pts, refs, n0: int, span: int, coef, bound):
    """Per point x of ``pts`` on a grid-backed map, how many t in [0, span)
    have fl(coef_t d_(t mod C)) < bound_t, d_c = d(f(T^(n0 + c) x), ref_x)
    and C = min(L, span); coef(a, b) and bound(a, b) give the values for t
    in [a, b).  Points and window go in chunks of about ``_CLASS_CHUNK``
    distances and tests, so the working set stays near max(C, _CLASS_CHUNK)
    values for any window."""
    counts = np.zeros(pts.shape[0], dtype=np.int64)
    for classes, rows, cells in _cycle_groups(system_map, pts, span):
        size = max(1, _CLASS_CHUNK // classes)
        for p0 in range(0, rows.shape[0], size):
            part = rows[p0:p0 + size]
            d = _class_distances(system_map, observable, cells[p0:p0 + size], refs[part], n0,
                                 np.arange(classes))[:, None, :]
            per = max(1, _CLASS_CHUNK // d.size)
            for c, b in zip(_class_rows(coef, span, classes, per, 0.0),
                            _class_rows(bound, span, classes, per, -np.inf)):
                with np.errstate(invalid="ignore"):  # inf * 0 is nan, which hits no bound
                    counts[part] += (c * d < b).sum(axis=(1, 2))
    return counts


def _column_chunks(classes: int, samples: int):
    """Class columns in chunks of about BLOCK_POINTS samples x columns."""
    width = max(1, BLOCK_POINTS // samples)
    for c0 in range(0, classes, width):
        yield np.arange(c0, min(classes, c0 + width))


def _class_distances(system_map, observable, cells, refs, n0: int, cols) -> np.ndarray:
    """d(f(T^(n0 + c) x), ref_x), T^(n0 + c) x the center of forward^(n0 + c)
    of x's cell, for start cells (G,), references (G, k) and class columns
    c: shape (G, len(cols))."""
    img = system_map.cell_image(cells[:, None], n0 + cols[None, :])
    vals = observable.values(system_map.grid.centers(img))
    return observable.distance(vals, refs[:, None])


def _over_window(values, length: int, name: str) -> np.ndarray:
    """A scalar or ``length`` values without nan, as a (length,) array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape not in ((), (length,)) or np.isnan(arr).any():
        raise ValueError(
            f"{name} must be a scalar or {length} values over the window, none nan;"
            f" got shape {arr.shape}"
        )
    return np.broadcast_to(arr, (length,))


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
) -> MeasureEstimate:
    """Monte Carlo measure of the union over n in [m, l] of the window sets.

    A sampled point counts as soon as one n in the window satisfies
    r_n d(f(T^n x), f(x)) < k (early exit).  Deterministic given the seed.
    """
    if samples < 100:
        raise ValueError("union-measure estimates need at least 100 samples")
    pts = sample_points(system_map, samples, seed)
    frac = _window_union(system_map, observable, rate, window, pts)
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
