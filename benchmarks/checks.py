"""Output checks for the benchmark workloads, written apart from recurlab.

Nothing here imports recurlab.  Every expected value is recomputed from
the integer lattice formulas of the discretized maps, from plain-Python
or plain-numpy orbit walks, and from numpy's Philox generator, so that a
fault in the library cannot hide behind the same fault in its check.

Each ``check_*`` function raises :class:`CheckError` naming the first
disagreement it finds and returns None when the output is correct.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# GPRM: magic, version, dim, m, space tag (0 = torus), half-width; then the
# forward array as little-endian u64.
GPRM_HEADER = struct.Struct("<4sIIIBd")
# Full-grid correlation sums of the library and of the checks differ only by
# accumulated rounding, far below this.
CORRELATION_TOL = 1e-12


class CheckError(Exception):
    """An output disagrees with its independent recomputation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- file formats -----------------------------------------------------------

def read_kv(path) -> dict:
    """``key = value`` lines, as in manifest.txt, report.txt, verdicts.txt."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        require(sep, f"{Path(path).name}: malformed line {line!r}")
        out[key] = value
    return out


def read_csv(path) -> list[dict]:
    """Rows as dicts.  A leading ``system`` field (``automorphism:2,1;1,1``)
    may itself hold commas, so surplus fields are folded into the first."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        surplus = len(fields) - len(header)
        require(surplus >= 0, f"{Path(path).name}: short row {line!r}")
        if surplus:
            fields = [",".join(fields[:surplus + 1])] + fields[surplus + 1:]
        rows.append(dict(zip(header, fields)))
    return rows


def read_gprm(path) -> tuple[int, int, np.ndarray]:
    """Parse a GPRM file and check that it holds a bijection of its cells.

    Returns (dim, m, forward) with forward as int64.
    """
    data = Path(path).read_bytes()
    require(len(data) >= GPRM_HEADER.size, "GPRM: truncated header")
    magic, version, dim, m, tag, _half = GPRM_HEADER.unpack_from(data)
    require(magic == b"GPRM", f"GPRM: bad magic {magic!r}")
    require(version == 1, f"GPRM: version {version}")
    require(tag == 0, f"GPRM: space tag {tag} is not a torus")
    require(1 <= dim and 1 <= m and m * dim <= 26, f"GPRM: dim {dim}, m {m}")
    n = 1 << (m * dim)
    require(len(data) == GPRM_HEADER.size + 8 * n,
            f"GPRM: {len(data) - GPRM_HEADER.size} payload bytes for {n} cells")
    forward = np.frombuffer(data, dtype="<u8", offset=GPRM_HEADER.size)
    require(bool(np.all(forward < n)), "GPRM: entry outside the grid")
    forward = forward.astype(np.int64)
    require(bool(np.all(np.bincount(forward, minlength=n) == 1)),
            "GPRM: forward array is not a bijection")
    return dim, m, forward


def check_manifest(out_dir) -> None:
    """Every ``artifact.*`` digest matches its file; every CSV/txt is listed."""
    out_dir = Path(out_dir)
    kv = read_kv(out_dir / "manifest.txt")
    listed = {k[len("artifact."):]: v for k, v in kv.items() if k.startswith("artifact.")}
    present = {p.name for p in out_dir.iterdir()
               if p.suffix in (".csv", ".txt") and p.name != "manifest.txt"}
    require(set(listed) == present,
            f"manifest lists {sorted(listed)} but the directory holds {sorted(present)}")
    for name, digest in listed.items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        require(actual == digest, f"manifest digest of {name} does not match the file")


# -- lattice formulas of the discretized maps ------------------------------

def cat_lattice(m: int, n: int = 1) -> np.ndarray:
    """n-th iterate of the discretized cat map on 2^m x 2^m cells, C-order.

    One step is T(i, j) = (2i+j+1, i+j+1) mod 2^m, that is z -> Az + e; the
    n-th iterate is z -> A^n z + (A^(n-1) + ... + I) e, built in closed form.
    """
    size = 1 << m
    p00, p01, p10, p11, s0, s1 = 1, 0, 0, 1, 0, 0
    for _ in range(n):
        p00, p01, p10, p11 = ((2 * p00 + p10) % size, (2 * p01 + p11) % size,
                              (p00 + p10) % size, (p01 + p11) % size)
        s0, s1 = (2 * s0 + s1 + 1) % size, (s0 + s1 + 1) % size
    i, j = np.divmod(np.arange(size * size, dtype=np.int64), size)
    return ((p00 * i + p01 * j + s0) % size) * size + (p10 * i + p11 * j + s1) % size


def golden_lattice(m: int) -> np.ndarray:
    """Discretized golden rotation on 2^m cells: shift by floor(alpha 2^m + 1/2)."""
    n = 1 << m
    return (np.arange(n, dtype=np.int64) + math.floor(GOLDEN * n + 0.5)) % n


def cube_edge(m: int, delta: float) -> int:
    """Largest dyadic cube edge, in cells, whose side stays within delta."""
    n = 1 << m
    edge = 1
    while 2 * edge <= n and 2 * edge <= delta * n:
        edge *= 2
    return edge


def coords(cells: np.ndarray, dim: int, m: int) -> np.ndarray:
    """Per-axis cell indices of flat C-order cell indices, shape (k, dim)."""
    n = 1 << m
    return cells[:, None] // n ** np.arange(dim - 1, -1, -1) % n


def cube_ids(cells: np.ndarray, dim: int, m: int, edge: int) -> np.ndarray:
    per_axis = (1 << m) // edge
    return (coords(cells, dim, m) // edge) @ per_axis ** np.arange(dim - 1, -1, -1)


def cycle_histogram(forward: np.ndarray, cube_of: np.ndarray) -> dict[int, int]:
    """Cycle length -> number of cells on cycles of that length.

    Also requires what the tower build guarantees of its output: once a
    cube is processed every cycle through it meets it exactly once, and
    later cubes only split cycles, so no cycle visits any cube twice.
    ``cube_of`` is the cube of each cell.
    """
    nxt = forward.tolist()
    cube = cube_of.tolist()
    seen = bytearray(len(nxt))
    last_cycle = [-1] * (max(cube) + 1)  # start cell of the cycle that last met each cube
    hist: dict[int, int] = {}
    for start in range(len(nxt)):
        if seen[start]:
            continue
        length = 0
        z = start
        while not seen[z]:
            seen[z] = 1
            if last_cycle[cube[z]] == start:
                raise CheckError(f"the cycle through cell {start} visits cube {cube[z]} twice")
            last_cycle[cube[z]] = start
            z = nxt[z]
            length += 1
        hist[length] = hist.get(length, 0) + length
    return hist


def tower_report(g: np.ndarray, tau: np.ndarray, hist: dict, dim: int, m: int,
                 delta: float, epsilon: float) -> dict:
    """The report.txt values that g, tau and g's cycle histogram imply."""
    n_axis = 1 << m
    edge = cube_edge(m, delta)
    gap = np.abs(coords(g, dim, m) - coords(tau, dim, m))
    max_disp = int(np.minimum(gap, n_axis - gap).max()) / n_axis
    cells = 1 << (m * dim)
    covered = 0
    for p_star, count in sorted(hist.items()):
        covered += count
        if covered > (1.0 - epsilon) * cells:
            break
    return {
        "cube_edge_cells": str(edge),
        "cube_count": str((n_axis // edge) ** dim),
        "degenerate_cover": str(edge == 1),
        "max_displacement": repr(max_disp),
        "total_redirects": str(int(np.count_nonzero(g != tau))),
        "p_star": str(p_star),
        "p_star_fraction": repr(covered / cells),
    }


def check_tower(out_dir, tau: np.ndarray, dim: int, m: int,
                delta: float, epsilon: float) -> np.ndarray:
    """Check a ``perturb`` output against the tower-redirect guarantees.

    permutation.gprm must be a bijection whose image of every cell lies in
    the same delta-cube as tau's image and none of whose cycles visits a
    delta-cube twice; histogram.csv must equal a cycle count of it;
    report.txt must agree with both.  Returns the permutation.
    """
    out_dir = Path(out_dir)
    g_dim, g_m, g = read_gprm(out_dir / "permutation.gprm")
    require((g_dim, g_m) == (dim, m), f"GPRM grid d={g_dim}, m={g_m}; expected d={dim}, m={m}")
    edge = cube_edge(m, delta)
    crossed = np.nonzero(cube_ids(g, dim, m, edge) != cube_ids(tau, dim, m, edge))[0]
    require(crossed.size == 0,
            f"cell {crossed[:1].tolist()} maps outside the delta-cube of its image under tau")

    hist = cycle_histogram(g, cube_ids(np.arange(g.size), dim, m, edge))
    rows = [(int(r["period"]), int(r["cells"])) for r in read_csv(out_dir / "histogram.csv")]
    require(rows == sorted(hist.items()), "histogram.csv differs from the cycle count")

    expected = tower_report(g, tau, hist, dim, m, delta, epsilon)
    report = read_kv(out_dir / "report.txt")
    for key, value in expected.items():
        require(report.get(key) == value, f"report.txt {key} = {report.get(key)}; expected {value}")
    max_disp = float(expected["max_displacement"])
    require(max_disp < delta, f"displacement {max_disp} is not below delta {delta}")
    return g


# -- orbit-cat ---------------------------------------------------------------

def philox_uniform(seed: int, shape) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(shape)


def cat_recurrence_score(x0: float, y0: float, horizon: int, n_start: int) -> float:
    """min over n in [n_start, horizon] of n * d(T^n x, x), plain Python floats."""
    x, y = x0, y0
    best = math.inf
    for n in range(1, horizon + 1):
        x, y = (2.0 * x + y) % 1.0, (x + y) % 1.0
        if n >= n_start:
            dx = abs(x - x0)
            dy = abs(y - y0)
            d = max(min(dx, 1.0 - dx), min(dy, 1.0 - dy))
            if n * d < best:
                best = n * d
    return best


def check_cat_recurrence(out_dir, seed: int, samples: int, horizon: int,
                         n_start: int, checked: int) -> None:
    """Sample points are the seed's Philox draws; ``checked`` scores are
    recomputed by a plain-Python orbit walk and must match bit for bit."""
    rows = read_csv(Path(out_dir) / "scores.csv")
    require(len(rows) == samples, f"scores.csv has {len(rows)} rows for {samples} samples")
    pts = philox_uniform(seed, (samples, 2))
    for i, row in enumerate(rows):
        require((float(row["x0"]), float(row["x1"])) == tuple(pts[i]),
                f"sample {i} is not the seed's draw")
        require((int(row["n_start"]), int(row["horizon"])) == (n_start, horizon),
                f"sample {i} reports another window")
    for i in np.linspace(0, samples - 1, checked).round().astype(int):
        expected = cat_recurrence_score(float(pts[i, 0]), float(pts[i, 1]), horizon, n_start)
        got = float(rows[i]["score"])
        require(got == expected, f"sample {i}: score {got!r}; plain walk gives {expected!r}")


def cat_bc_fraction(seed: int, samples: int, target, beta: float,
                    m: int, horizon: int) -> float:
    """Fraction of Philox points whose cat orbit enters B(y, n^(-1/beta)), m <= n <= horizon."""
    pts = philox_uniform(seed, (samples, 2))
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    ty0, ty1 = target
    radii = np.arange(m, horizon + 1, dtype=np.float64) ** (-1.0 / beta)
    for _ in range(m - 1):
        x, y = (2.0 * x + y) % 1.0, (x + y) % 1.0
    hits = 0
    for k in range(horizon - m + 1):
        x, y = (2.0 * x + y) % 1.0, (x + y) % 1.0
        dx = np.abs(x - ty0)
        dy = np.abs(y - ty1)
        hit = np.maximum(np.minimum(dx, 1.0 - dx), np.minimum(dy, 1.0 - dy)) < radii[k]
        if hit.any():
            hits += int(np.count_nonzero(hit))
            x, y = x[~hit], y[~hit]
            if x.size == 0:
                break
    return hits / samples


def check_cat_bc(out_dir, seed, samples, target, beta, m, horizon) -> None:
    rows = read_csv(Path(out_dir) / "bc.csv")
    require(len(rows) == 1, "bc.csv must hold one row")
    got = float(rows[0]["fraction"])
    expected = cat_bc_fraction(seed, samples, target, beta, m, horizon)
    require(got == expected, f"bc fraction {got!r}; recomputed {expected!r}")


# -- grid-orbits ---------------------------------------------------------------

def grid_hitting(g: np.ndarray, m: int, cells: np.ndarray, y: float, horizon: int,
                 n_start: int, wp_m: int, wp_l: int) -> tuple[np.ndarray, float]:
    """Hitting scores min n*d(T^n x, y) over [n_start, horizon] and the
    fraction of orbits within 1/n of y for some n in [wp_m, wp_l], on the
    cell-center orbits of a 1-D grid permutation (rate n, wp scale p = 1)."""
    width = 1.0 / (1 << m)
    block = 4096
    best = np.full(cells.shape[0], np.inf)
    wp_hit = np.zeros(cells.shape[0], dtype=bool)
    path = np.empty((block, cells.shape[0]), dtype=np.int64)
    cur = cells
    n0 = 0
    while n0 < horizon:
        count = min(block, horizon - n0)
        for k in range(count):
            cur = g[cur]
            path[k] = cur
        ns = np.arange(n0 + 1, n0 + count + 1, dtype=np.float64)[:, None]
        d = np.abs((path[:count] + 0.5) * width - y)
        d = np.minimum(d, 1.0 - d)
        tail = ns[:, 0] >= n_start
        if tail.any():
            best = np.minimum(best, (ns[tail] * d[tail]).min(axis=0))
        window = (ns[:, 0] >= wp_m) & (ns[:, 0] <= wp_l)
        if window.any():
            wp_hit |= (d[window] < 1.0 / ns[window]).any(axis=0)
        n0 += count
    return best, int(np.count_nonzero(wp_hit)) / cells.shape[0]


def check_grid_hitting(out_dir, g: np.ndarray, m: int, seed: int, samples: int,
                       y: float, horizon: int, n_start: int, wp_m: int, wp_l: int) -> None:
    """Scores and wp estimate of a ``hitting`` run on the 1-D permutation g."""
    out_dir = Path(out_dir)
    rows = read_csv(out_dir / "scores.csv")
    require(len(rows) == samples, f"scores.csv has {len(rows)} rows for {samples} samples")
    cells = np.random.Generator(np.random.Philox(key=np.uint64(seed))).integers(
        0, 1 << m, size=samples)
    centers = (cells + 0.5) * (1.0 / (1 << m))
    scores, wp = grid_hitting(g, m, cells, y, horizon, n_start, wp_m, wp_l)
    for i, row in enumerate(rows):
        require(float(row["x0"]) == centers[i], f"sample {i} is not the seed's cell")
        got = float(row["score"])
        require(got == scores[i], f"sample {i}: score {got!r}; walk gives {float(scores[i])!r}")
    got = float(read_csv(out_dir / "wp.csv")[0]["estimate"])
    require(got == wp, f"wp estimate {got!r}; walk gives {wp!r}")


def trig_table(m: int, freq) -> np.ndarray:
    """cos(2 pi <k, x>) at the centers of the 2-D 2^m grid, C-order."""
    n = 1 << m
    c = (np.arange(n) + 0.5) / n
    x0, x1 = np.meshgrid(c, c, indexing="ij")
    return np.cos(2.0 * np.pi * (freq[0] * x0 + freq[1] * x1)).ravel()


def check_correlations(out_dir, m: int, freq, horizons, exponents) -> None:
    """On the discretized cat map, every c_hat equals a gather of the centred
    observable over the n-th iterate of the lattice formula within 1e-12;
    the Lipschitz norms are recomputed; every verdict is consistent-with-decay."""
    out_dir = Path(out_dir)
    phi = trig_table(m, freq)
    phi_c = phi - math.fsum(phi) / phi.size
    rows = read_csv(out_dir / "series.csv")
    require([int(r["n"]) for r in rows] == list(horizons), "series.csv horizons differ")
    for n, row in zip(horizons, rows):
        expected = abs(float(np.mean(phi_c[cat_lattice(m, n)] * phi_c)))
        got = float(row["c_hat"])
        require(abs(got - expected) <= CORRELATION_TOL,
                f"c_hat at n={n} is {got!r}; gather gives {expected!r}")

    n = 1 << m
    field = phi.reshape(n, n)
    lip = max(float(np.abs(np.roll(field, -1, axis=a) - field).max()) for a in (0, 1)) * n
    norm = float(np.abs(phi).max()) + lip
    verdicts = read_kv(out_dir / "verdicts.txt")
    for key in ("norm_phi", "norm_psi"):
        got = float(verdicts[key])
        require(abs(got - norm) <= 1e-12 * norm, f"{key} = {got!r}; expected {norm!r}")
    for p in exponents:
        key = f"verdict.p={p:g}"
        require(verdicts.get(key) == "consistent-with-decay",
                f"{key} = {verdicts.get(key)}")
