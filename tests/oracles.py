"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against plain python loops and
one-line numpy, sharing no code path with the library: orbit walks use
list indexing, histograms use dicts, distances are spelled out inline.
Values frozen in tests were computed with these oracles first.
"""

import math

import numpy as np

# Inverse chi-square CDF at 0.999, frozen from scipy.stats.chi2.ppf.
CHI2_999 = {3: 16.266236, 15: 37.697298, 63: 103.442377}


def wrap_dist_1d(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def wrap_dist(a, b) -> float:
    return max(wrap_dist_1d(x, y) for x, y in zip(np.atleast_1d(a), np.atleast_1d(b)))


def rotation_score(alpha: float, n_start: int, horizon: int) -> float:
    """min over [n_start, horizon] of n * ||n alpha|| (x-independent)."""
    best = float("inf")
    for n in range(n_start, horizon + 1):
        best = min(best, n * wrap_dist_1d((n * alpha) % 1.0, 0.0))
    return best


def rotation_score_fast(alpha: float, n_start: int, horizon: int) -> float:
    n = np.arange(n_start, horizon + 1, dtype=np.float64)
    frac = (n * alpha) % 1.0
    return float((n * np.minimum(frac, 1.0 - frac)).min())


def cycle_histogram(forward) -> dict:
    """Cycle length -> number of cells, by dict-tracked pointer chasing."""
    forward = list(int(v) for v in forward)
    seen = set()
    hist = {}
    for start in range(len(forward)):
        if start in seen:
            continue
        length = 0
        z = start
        while z not in seen:
            seen.add(z)
            z = forward[z]
            length += 1
        hist[length] = hist.get(length, 0) + length
    return hist


def orbit_cells(forward, start: int, count: int):
    """forward^1(start) .. forward^count(start) as a python list."""
    forward = list(int(v) for v in forward)
    out = []
    z = start
    for _ in range(count):
        z = forward[z]
        out.append(z)
    return out


def grid_center_1d(cell: int, m: int) -> float:
    return (cell + 0.5) / 2 ** m


def grid_score_1d(forward, m: int, cell: int, rate_fn, n_start: int, horizon: int) -> float:
    """min r_n * wrap distance between orbit centers and the start center."""
    x = grid_center_1d(cell, m)
    best = float("inf")
    z = cell
    for n in range(1, horizon + 1):
        z = forward[z]
        if n < n_start:
            continue
        best = min(best, rate_fn(n) * wrap_dist_1d(grid_center_1d(z, m), x))
    return best


def grid_window_union_1d(forward, m: int, rate_fn, lo: int, hi: int, k: float) -> float:
    """Exact fraction of cells with some n in [lo, hi]: r_n d(T^n c, c) < k."""
    n_cells = len(forward)
    count = 0
    for cell in range(n_cells):
        x = grid_center_1d(cell, m)
        z = cell
        hit = False
        for n in range(1, hi + 1):
            z = forward[z]
            if n >= lo and rate_fn(n) * wrap_dist_1d(grid_center_1d(z, m), x) < k:
                hit = True
                break
        if hit:
            count += 1
    return count / n_cells


def naive_correlation_1d(forward, m: int, obs_fn, n: int) -> float:
    """|mean(phi(T^n c) phi(c)) - mean(phi)^2| over all cells, python loop."""
    n_cells = len(forward)
    vals = [obs_fn(grid_center_1d(c, m)) for c in range(n_cells)]
    mean = sum(vals) / n_cells
    cross = 0.0
    for c in range(n_cells):
        z = c
        for _ in range(n):
            z = forward[z]
        cross += vals[z] * vals[c]
    return abs(cross / n_cells - mean * mean)


def full_grid_correlations(forward, phi_vals, psi_vals, ns):
    """c_hat_n = |mean((phi o T^n) psi) - mean(phi) mean(psi)| over all
    cells for each n in ``ns`` (any order, repeats allowed).

    Orbits are composed one step at a time through a python list; the
    means are math.fsum over n, subtracted from every value, and the
    product array is averaged with one np.mean, so that the result has the
    bits of the same sum taken in numpy's pairwise order.
    """
    forward = [int(v) for v in forward]
    n_cells = len(forward)
    phi_mean = math.fsum(phi_vals) / n_cells
    psi_mean = math.fsum(psi_vals) / n_cells
    phi_c = [float(v) - phi_mean for v in phi_vals]
    psi_c = [float(v) - psi_mean for v in psi_vals]
    orbit = list(range(n_cells))
    steps = 0
    c_hat = {}
    for n in sorted(set(ns)):
        while steps < n:
            orbit = [forward[z] for z in orbit]
            steps += 1
        c_hat[n] = abs(float(np.mean([phi_c[orbit[c]] * psi_c[c] for c in range(n_cells)])))
    return [c_hat[n] for n in ns]


def ball_mass_weighted_1d(weights, m: int, y: float, r: float) -> float:
    """Overlap-weighted mass of the wrap interval [y - r, y + r]."""
    n = 2 ** m
    w = 1.0 / n
    total = 0.0
    for c in range(n):
        lo_edge, hi_edge = c * w, (c + 1) * w
        frac = 0.0
        for shift in (-1.0, 0.0, 1.0):
            lo = max(lo_edge + shift, y - r)
            hi = min(hi_edge + shift, y + r)
            frac += max(hi - lo, 0.0)
        total += weights[c] * min(frac / w, 1.0)
    return total


def chi_square_uniform(counts) -> float:
    """Chi-square statistic of observed counts against the uniform law."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


def tower_redirect(forward, cube_of):
    """Tower redirect by a literal per-cube first-return walk.

    Cubes are taken in increasing id order.  For cube U, every cell u of U
    is followed under the current map until it first lands back in U,
    giving R(u); then every cell whose image v lies in U is sent to
    R^{-1}(v) instead.  Returns the new forward list and the number of
    cells of each cube with R(u) != u.
    """
    g = [int(v) for v in forward]
    cube_of = [int(c) for c in cube_of]
    members = {}
    for cell, cube in enumerate(cube_of):
        members.setdefault(cube, []).append(cell)
    redirects = []
    for cube in sorted(members):
        r_inv = {}
        for u in members[cube]:
            z = g[u]
            while cube_of[z] != cube:
                z = g[z]
            r_inv[z] = u
        g = [r_inv[v] if cube_of[v] == cube else v for v in g]
        redirects.append(sum(1 for v, u in r_inv.items() if v != u))
    return g, redirects


def cat_score(x0: float, y0: float, target, rate_fn, n_start: int, horizon: int) -> float:
    """min over [n_start, horizon] of r_n * wrap distance from the cat-map
    orbit of (x0, y0) to ``target``, one python float step at a time."""
    tx, ty = target
    x, y = x0, y0
    best = float("inf")
    for n in range(1, horizon + 1):
        x, y = (2.0 * x + y) % 1.0, (x + y) % 1.0
        if n >= n_start:
            best = min(best, rate_fn(n) * max(wrap_dist_1d(x, tx), wrap_dist_1d(y, ty)))
    return best


def grid_first_hit_1d(forward, m: int, cells, y: float, lo: int, hi: int, radius_fn) -> float:
    """Fraction of the start ``cells`` whose orbit comes within radius_fn(n)
    of ``y`` (strictly, wrap distance between cell centers) for some n in
    [lo, hi]; one python walk per cell, stopped at its first hit."""
    cells = list(cells)
    count = 0
    for cell in cells:
        z = cell
        for n in range(1, hi + 1):
            z = forward[z]
            if n >= lo and wrap_dist_1d(grid_center_1d(z, m), y) < radius_fn(n):
                count += 1
                break
    return count / len(cells)
