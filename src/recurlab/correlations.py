"""Correlation decay tests and local dimension estimation.

Correlations are the absolute centered cross moments
|E[(phi o T^n) psi] - E[phi] E[psi]| of scalar observables, normalized by
the product of their norms.  The norm convention is sup|phi| + Lip(phi)
(recorded in every series so alternative conventions can rescale).

The decay verdicts are pragmatic classifiers over finite horizon lists,
not estimators of an asymptotic limit; the raw n^p-weighted sequences are
always emitted so a verdict can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import CHUNK_CELLS, GridSpec, apply_power
from .maps import GridBackedMap, SystemMap, check_horizon, sample_points
from .observables import Observable
from .spaces import DIAMETER, check_point

# Full-grid sums are exact up to accumulated rounding; normalized values
# at or below this floor are treated as exactly zero by the decay test.
NUMERIC_ZERO = 1e-12

# Monte-carlo norms on a map without a grid use 2^NORM_GRID_M cells per axis.
NORM_GRID_M = 8


@dataclass(frozen=True)
class CorrelationSeries:
    """Raw and normalized correlations over an increasing horizon list."""

    phi: str
    psi: str
    ns: tuple
    c_hat: tuple
    norm_phi: float
    norm_psi: float
    scheme: str  # "full-grid" or "monte-carlo"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("horizon list must be strictly increasing")
        if any(v < 0 for v in self.c_hat):
            raise ValueError("correlations are absolute values, hence >= 0")

    @property
    def theta_hat(self) -> tuple:
        denom = self.norm_phi * self.norm_psi
        return tuple(v / denom for v in self.c_hat)


def _exact_mean(vals: np.ndarray) -> float:
    """Correctly rounded mean; keeps constant observables at exactly zero.
    fsum reads a memoryview's floats about twice as fast as the array's."""
    return math.fsum(memoryview(vals)) / vals.size


def _observable_scalar(obs: Observable, pts: np.ndarray) -> np.ndarray:
    vals = obs.values(pts)
    if vals.ndim == 2:
        if vals.shape[1] != 1:
            raise ValueError("correlation needs scalar observables")
        vals = vals[:, 0]
    return vals


def _grid_values(obs: Observable, grid: GridSpec) -> np.ndarray:
    """The scalar observable at every cell center, ``CHUNK_CELLS`` centers
    at a time."""
    vals = np.empty(grid.cell_count)
    for lo in range(0, grid.cell_count, CHUNK_CELLS):
        hi = min(lo + CHUNK_CELLS, grid.cell_count)
        vals[lo:hi] = _observable_scalar(obs, grid.centers(np.arange(lo, hi)))
    return vals


def correlation_series(
    system_map: SystemMap,
    phi: Observable,
    psi: Observable,
    ns,
    scheme: str = "full-grid",
    samples: int = 10_000,
    seed: int = 0,
) -> CorrelationSeries:
    """Correlations |E[(phi o T^n) psi] - E[phi] E[psi]| under the uniform
    measure at every horizon of the strictly increasing list ``ns`` of
    integers >= 0; horizon 0 is the plain covariance of phi and psi.

    The full-grid scheme holds T^n of every cell as an int32 array and
    advances it from one horizon to the next: a doubled horizon (gap =
    the horizon reached) gathers the array through itself, and any other
    gap g goes by binary powers of the permutation
    (:func:`grid.apply_power`), popcount(g) + bit_length(g) - 1 gathers;
    horizons 1, 2, 3, 4, 8, ..., 128 take 9 gathers instead of 128 steps.
    The monte-carlo scheme moves its samples from one horizon to the next
    through the map's ``advance``, up to ``MAX_HORIZON``, so a sample's
    T^n(x) is the one ``iterate`` gives; on a grid-backed map that reads
    the cycle tables, as every other grid orbit does.  ``psi is phi``
    evaluates the observable and its norm once.

    Raises:
        ValueError: a horizon < 0 (or, monte-carlo, above the cap), not
        strictly increasing, non-scalar observables, or full-grid on a
        non-grid map.
    """
    ns = [int(v) for v in ns]
    if any(v < 0 for v in ns):
        raise ValueError("horizons must be >= 0")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("horizon list must be strictly increasing")
    c_hat = []
    reached = 0
    if scheme == "full-grid":
        if not isinstance(system_map, GridBackedMap):
            raise ValueError("full-grid scheme needs a grid-backed map")
        grid = system_map.grid
        # The norm reads the raw values; then they are centred with
        # correctly rounded means, so constant observables give exactly zero.
        phi_c = _grid_values(phi, grid)
        norm_phi = _lipschitz(phi_c, grid)
        phi_c -= _exact_mean(phi_c)
        if psi is phi:
            psi_c, norm_psi = phi_c, norm_phi
        else:
            psi_c = _grid_values(psi, grid)
            norm_psi = _lipschitz(psi_c, grid)
            psi_c -= _exact_mean(psi_c)
        cur = np.arange(grid.cell_count, dtype=np.int32)
        buf = np.empty(grid.cell_count)
        for target in ns:
            gap = target - reached
            if gap == reached > 0:
                cur = np.take(cur, cur)
            else:
                cur = apply_power(system_map.permutation, cur, gap)
            reached = target
            # mode="clip" lets take write straight into out; every index is valid.
            np.take(phi_c, cur, out=buf, mode="clip")
            buf *= psi_c
            c_hat.append(abs(float(np.mean(buf))))
        samples_used, seed_used = 0, 0
    elif scheme == "monte-carlo":
        check_horizon(max(ns, default=0))
        pts = sample_points(system_map, samples, seed)
        mean_phi = _exact_mean(_observable_scalar(phi, pts))
        psi0 = _observable_scalar(psi, pts)
        psi_c = psi0 - _exact_mean(psi0)
        start = np.ascontiguousarray(pts.T)
        cur = start
        for target in ns:
            cur = system_map.advance(start, cur, reached, target - reached)
            reached = target
            cross = float(np.mean((_observable_scalar(phi, cur.T) - mean_phi) * psi_c))
            c_hat.append(abs(cross))
        grid = (system_map.grid if isinstance(system_map, GridBackedMap)
                else GridSpec(system_map.dim, NORM_GRID_M))
        norm_phi = lipschitz_norm(phi, grid)
        norm_psi = norm_phi if psi is phi else lipschitz_norm(psi, grid)
        samples_used, seed_used = samples, seed
    else:
        raise ValueError(f"unknown correlation scheme {scheme!r}")

    return CorrelationSeries(
        phi.describe(),
        psi.describe(),
        tuple(ns),
        tuple(c_hat),
        norm_phi,
        norm_psi,
        scheme,
        samples_used,
        seed_used,
    )


def lipschitz_norm(obs: Observable, grid: GridSpec) -> float:
    """sup|phi| + Lip(phi) estimated over grid-neighbor cell pairs.

    The slope is the max of |delta phi| / (center distance) over pairs of
    axis-adjacent cells, with wrap; exact for tabulated
    observables at their native grid, and a from-below estimate for
    smooth observables.
    """
    return _lipschitz(_grid_values(obs, grid), grid)


def _lipschitz(vals: np.ndarray, grid: GridSpec) -> float:
    """``lipschitz_norm`` of the scalar values ``vals`` at the grid's centers."""
    n = grid.cells_per_axis
    shape = (n,) * grid.dim
    field = vals.reshape(shape)
    lip = 0.0
    for axis in range(grid.dim):
        diff = np.abs(np.roll(field, -1, axis=axis) - field)
        lip = max(lip, float(diff.max()) / grid.cell_width)
    return float(np.abs(vals).max()) + lip


@dataclass(frozen=True)
class DecayVerdict:
    exponent: float
    weighted: tuple  # s_n = n^p * theta_hat_n
    verdict: str  # consistent-with-decay | not-decaying | inconclusive


@dataclass(frozen=True)
class DecayFitReport:
    series: CorrelationSeries
    verdicts: tuple  # of DecayVerdict


def superpoly_test(series: CorrelationSeries, p_list) -> DecayFitReport:
    """Classify n^p-weighted normalized correlations for each p.

    Rules, applied to s_n = n^p * theta_n with theta values at or below
    ``NUMERIC_ZERO`` clamped to exact zero:

      * consistent-with-decay when the last value is <= 0.1 x peak
        (an all-zero sequence is consistent by convention);
      * not-decaying when the last value is >= 0.9 x peak and the peak
        sits in the final decade of the horizon list;
      * inconclusive otherwise.

    Raises:
        ValueError: fewer than 8 horizons or a span under two decades.
    """
    ns = np.asarray(series.ns, dtype=np.float64)
    if len(ns) < 8:
        raise ValueError(f"superpoly test needs >= 8 horizon points, got {len(ns)}")
    if ns[-1] / ns[0] < 100.0:
        raise ValueError("horizon list must span at least two decades")
    theta = np.asarray(series.theta_hat, dtype=np.float64)
    theta = np.where(theta <= NUMERIC_ZERO, 0.0, theta)
    verdicts = []
    for p in p_list:
        s = ns ** float(p) * theta
        peak_idx = int(np.argmax(s))
        peak = float(s[peak_idx])
        last = float(s[-1])
        if peak == 0.0 or last <= 0.1 * peak:
            verdict = "consistent-with-decay"
        elif last >= 0.9 * peak and ns[peak_idx] >= ns[-1] / 10.0:
            verdict = "not-decaying"
        else:
            verdict = "inconclusive"
        verdicts.append(DecayVerdict(float(p), tuple(float(v) for v in s), verdict))
    return DecayFitReport(series, tuple(verdicts))


@dataclass(frozen=True)
class LocalDimensionEstimate:
    """Least-squares slope of log mass against log radius."""

    y: tuple
    radii: tuple
    masses: tuple
    slope: float
    residual: float  # RMS of the log-log fit residuals
    scheme: str
    excluded_radii: tuple = ()


def _ball_mass_exact(grid: GridSpec | None, y: np.ndarray, r: float) -> float:
    """Exact measure of the L-infinity ball B(y, r) of the torus of y.

    For the uniform continuous measure the per-axis covered length is
    min(2r, 1).  For the normalized counting measure on the grid's cells
    the mass is the overlap-weighted sum over cells, each of weight
    1 / cell_count.
    """
    if grid is None:
        covered = min(2.0 * r, 1.0)
        return covered ** y.shape[0]

    # Per-axis overlap of [y_a - r, y_a + r] with each cell, as a fraction
    # of the cell width; the d-dimensional overlap is the product.
    n = grid.cells_per_axis
    width = grid.cell_width
    axis_fracs = []
    for a in range(grid.dim):
        lo_edge = width * np.arange(n)
        hi_edge = lo_edge + width
        ya = float(y[a])
        frac = np.zeros(n)
        for shift in (-1.0, 0.0, 1.0):
            lo = np.maximum(lo_edge + shift, ya - r)
            hi = np.minimum(hi_edge + shift, ya + r)
            frac += np.clip(hi - lo, 0.0, None)
        frac = np.minimum(frac / width, 1.0)
        axis_fracs.append(frac)
    overlap = axis_fracs[0]
    for frac in axis_fracs[1:]:
        overlap = np.multiply.outer(overlap, frac)
    return float(np.sum(overlap * (1.0 / grid.cell_count)))


def _dyadic_radii(r_min: float, r_max: float) -> list:
    """The radii 2^k in [r_min, r_max] for 0 < r_min, largest first.

    Raises:
        ValueError: fewer than 5 of them.
    """
    k_lo = int(np.ceil(np.log2(r_min)))
    k_hi = int(np.floor(np.log2(r_max)))
    radii = [2.0 ** k for k in range(k_hi, k_lo - 1, -1)]
    if len(radii) < 5:
        raise ValueError("need at least 5 dyadic radii between r_min and r_max")
    return radii


def local_dimension(y, r_min: float, r_max: float,
                    grid: GridSpec | None = None) -> LocalDimensionEstimate:
    """Slope of log mu(B(y, r)) versus log r over dyadic radii, mu a
    measure on the torus of y's dimension.

    With ``grid`` unset, mu is the uniform measure and ball masses are
    exact volumes.  With ``grid`` set, mu is the normalized counting
    measure on its cells, and ball masses are exact overlap-weighted cell
    sums.  Radii with zero mass (a volume min(2r, 1)^d can underflow) are
    excluded from the fit and reported.

    Raises:
        ValueError: bad radius range or fewer than 5 dyadic radii in it,
        or a y that is not one finite point of the grid's dimension.
    """
    if not (0.0 < r_min < r_max <= DIAMETER):
        raise ValueError("need 0 < r_min < r_max <= space diameter")
    y = check_point(y, grid.dim if grid is not None else np.size(y))
    radii = _dyadic_radii(r_min, r_max)
    masses = [_ball_mass_exact(grid, y, r) for r in radii]
    scheme = "exact-cells" if grid is not None else "exact-volume"

    radii_arr = np.asarray(radii)
    mass_arr = np.asarray(masses)
    keep = mass_arr > 0
    excluded = tuple(float(r) for r in radii_arr[~keep])
    if keep.sum() < 2:
        raise ValueError("not enough non-empty radii to fit a slope")
    lr = np.log(radii_arr[keep])
    lm = np.log(mass_arr[keep])
    slope, intercept = np.polyfit(lr, lm, 1)
    resid = lm - (slope * lr + intercept)
    return LocalDimensionEstimate(
        y=tuple(float(v) for v in y),
        radii=tuple(float(r) for r in radii),
        masses=tuple(float(v) for v in masses),
        slope=float(slope),
        residual=float(np.sqrt(np.mean(resid ** 2))),
        scheme=scheme,
        excluded_radii=excluded,
    )
