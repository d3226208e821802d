"""Measure-preserving system maps and the distance between maps.

Every map exposes a vectorized ``step`` over an (n, d) batch of points and
a ``step_block`` of consecutive images (the identity is the rotation by 0).
The statistics modules walk analytic orbits in blocks of consecutive images,
at most ``BLOCK_POINTS`` points per block, and test each block once, so a
walk costs O(N * S / BLOCK_POINTS) python overhead instead of O(N).
``orbit_blocks`` (scores) steps a batch as rows, and rotations fill its
blocks in closed form; ``step_columns`` (first hits) steps it as columns.
An automorphism multiplies by one rule (``spaces.paired``): every product
is a many-row one, a lone point beside a copy of itself, so a point gets
the same bits in any batch and either walk.  Grid-backed maps need no
walk: T^n of a cell is one gather off the permutation's cycle tables for
any n (``GridBackedMap.cell_image``), so ``iterate`` costs O(1), a block
is one gather, and the statistics modules work on them by residue class
n mod L instead of step by step (only a first hit whose coef and bound
both vary walks them).

Iteration conventions:

  * grid-backed maps act on points by sending the containing cell to its
    image cell's center (the piecewise cell-center map), so composition
    of iterates is exact in the group-law sense;
  * analytic maps iterate in double precision; horizons are capped at
    1e7 steps, keeping rotation drift below 1e-6;
  * torus steps reduce mod 1 as x - floor(x) (``spaces.frac``), which
    gives the bits of numpy's ``x % 1.0`` (both round the exact x - floor(x)
    once) without its per-element ``fmod``.  A step that rounds up to 1.0
    keeps it; only ``spaces.wrap`` maps 1.0 to 0.0, so routing steps through
    ``wrap`` would move the bits of such a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridPermutation
from .spaces import (check_point, distance, frac, make_rng, paired, require_dim, require_finite,
                     wrap)

MAX_HORIZON = 10 ** 7

# An orbit block of S points spans max(1, BLOCK_POINTS // S) steps, so it
# holds about BLOCK_POINTS * d values whatever the batch size.
BLOCK_POINTS = 4096


class SystemMap:
    """Bijection of the ``dim``-torus, iterated forward only.  Subclasses
    fill in ``step`` and ``step_block(x, count)``: T(x) .. T^count(x) of a
    point (d,) or a batch (S, d), shape (count,) + x.shape."""

    dim: int

    def step(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step_columns(self, cols: np.ndarray, out: np.ndarray) -> None:
        """Write T^(i + 1) of the columns of ``cols`` (d, S) into ``out[i]``
        for every i of ``out`` (count, d, S): a lock-step walk, each column
        stepped as one row of a many-row ``step``."""
        cur = cols
        for row in out:
            row[...] = self.step(np.ascontiguousarray(cur.T)).T
            cur = row

    def orbit_blocks(self, x: np.ndarray, horizon: int):
        """Walk the orbits of a batch x (S, d) through steps 1..horizon.

        Yields (n, block) where block[i] = T^(n + 1 + i)(x), of shape
        (count, S, d) with count <= max(1, BLOCK_POINTS // S); successive
        blocks continue from the last image of the previous one.
        """
        length = max(1, BLOCK_POINTS // x.shape[0])
        cur, n = x, 0
        while n < horizon:
            block = self.step_block(cur, min(length, horizon - n))
            yield n, block
            cur = block[-1]
            n += block.shape[0]

    def affine(self):
        """(A, alpha) if the map is x -> A x + alpha (mod 1), A as integer
        rows and alpha as floats; None otherwise."""
        return None

    def describe(self) -> str:
        raise NotImplementedError


def check_horizon(n: int) -> None:
    """Reject an orbit index above ``MAX_HORIZON``, before any walk or
    allocation."""
    if n > MAX_HORIZON:
        raise ValueError(f"horizon {n} exceeds the {MAX_HORIZON} cap")


def iterate(system_map: SystemMap, x: np.ndarray, n: int) -> np.ndarray:
    """n-th image of a single point; iterate(map, x, 0) is x itself."""
    return _image(system_map, check_point(x, system_map.dim), n)


def _image(system_map: SystemMap, x: np.ndarray, n: int) -> np.ndarray:
    """``iterate`` of a point that ``check_point`` has returned, so that a
    caller holding one pays for the check and the wrap once."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    check_horizon(n)
    if n == 0:
        return x
    if isinstance(system_map, Rotation):
        return wrap(x + n * np.asarray(system_map.alpha), system_map.dim)
    if isinstance(system_map, GridBackedMap):
        grid = system_map.grid
        return grid.centers(system_map.cell_image(grid._cell_of_wrapped(x), n))
    cur = x[None, :]
    for _ in range(n):
        cur = system_map.step(cur)
    return cur[0]


@dataclass(frozen=True)
class Rotation(SystemMap):
    """Torus translation x -> x + alpha (mod 1)."""

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) < 1:
            raise ValueError("rotation vector must be non-empty")
        require_finite(self.alpha, "rotation vector")

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def step(self, pts):
        return frac(np.asarray(pts, dtype=np.float64) + np.asarray(self.alpha))

    def step_block(self, x, count, first=1):
        """Images T^first(x) .. T^(first + count - 1)(x) of a point or batch,
        each as x + n*alpha: the error stays at one rounding of n*alpha."""
        x = np.asarray(x, dtype=np.float64)
        n = np.arange(first, first + count, dtype=np.float64).reshape((count,) + (1,) * x.ndim)
        return frac(x[None] + n * np.asarray(self.alpha))

    def orbit_blocks(self, x, horizon):
        # Every block counts n*alpha from an anchor that moves to the last
        # image each BLOCK_POINTS steps, so the entries are the same floats
        # whatever the batch size.
        length = max(1, BLOCK_POINTS // x.shape[0])
        anchor, at, n = x, 0, 0
        while n < horizon:
            count = min(length, horizon - n, at + BLOCK_POINTS - n)
            block = self.step_block(anchor, count, first=n - at + 1)
            yield n, block
            n += count
            if n == at + BLOCK_POINTS:
                anchor, at = block[-1], n

    def affine(self):
        d = len(self.alpha)
        return tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), self.alpha

    def describe(self):
        return "rotation:" + ",".join(f"{a:.17g}" for a in self.alpha)


GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_rotation() -> Rotation:
    return Rotation((GOLDEN_MEAN,))


@dataclass(frozen=True)
class ToralAutomorphism(SystemMap):
    """x -> A x (mod 1) for an integer matrix with det(A) = +/-1."""

    matrix: tuple  # rows as tuples of ints

    def __post_init__(self):
        try:
            mat = np.asarray(self.matrix, dtype=np.int64)
        except OverflowError:
            entry = next(v for row in self.matrix for v in row if not -2**63 <= v < 2**63)
            raise ValueError(f"automorphism matrix entry {entry} does not fit in int64") from None
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("automorphism matrix must be square")
        det = int(round(np.linalg.det(mat.astype(np.float64))))
        if det not in (1, -1):
            raise ValueError(f"matrix determinant {det} breaks measure preservation")
        # det = +/-1 makes the float inverse exactly integer after rounding.
        inv_int = np.rint(np.linalg.inv(mat.astype(np.float64))).astype(np.int64)
        if not np.array_equal(mat @ inv_int, np.eye(mat.shape[0], dtype=np.int64)):
            raise ValueError("failed to build an integer inverse matrix")
        object.__setattr__(self, "matrix", tuple(tuple(int(v) for v in row) for row in mat))
        object.__setattr__(self, "_mat_f", mat.astype(np.float64))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def step(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        rows = pts.reshape(-1, self.dim)
        return frac(paired(rows) @ self._mat_f.T)[:rows.shape[0]].reshape(pts.shape)

    def step_block(self, x, count):
        x = np.asarray(x, dtype=np.float64)
        rows = x.reshape(-1, self.dim)
        cur = paired(rows)
        out, low = np.empty((count,) + cur.shape), np.empty(cur.shape)
        for row in out:
            np.matmul(cur, self._mat_f.T, out=row)
            _frac_in_place(row, low)
            cur = row
        return out[:, :rows.shape[0]].reshape((count,) + x.shape)

    def step_columns(self, cols, out):
        # A @ cols rounds each column as step rounds its row.
        wide = paired(out, axis=2)
        cur, low = paired(cols, axis=1), np.empty(wide.shape[1:])
        for row in wide:
            np.matmul(self._mat_f, cur, out=row)
            _frac_in_place(row, low)
            cur = row
        if wide is not out:
            out[...] = wide[..., :1]

    def affine(self):
        return self.matrix, (0.0,) * len(self.matrix)

    def describe(self):
        return "automorphism:" + ";".join(
            ",".join(str(v) for v in row) for row in self.matrix
        )


def _frac_in_place(x: np.ndarray, low: np.ndarray) -> None:
    """x = frac(x) with no allocation; ``low`` is scratch of x's shape."""
    np.floor(x, out=low)
    np.subtract(x, low, out=x)


def cat_map() -> ToralAutomorphism:
    return ToralAutomorphism(((2, 1), (1, 1)))


class GridBackedMap(SystemMap):
    """Piecewise cell-center map of a grid permutation.

    A point is sent to the center of the image of its containing cell, so
    after one application every orbit lives on cell centers.  Orbits are
    read off the permutation's cycle tables: T^n of cell c is
    order[start[c] + (pos[c] + n) mod length[c]], one gather for any n
    and any number of cells, with no step-by-step walk.
    """

    def __init__(self, permutation: GridPermutation):
        self.permutation = permutation
        self.grid = permutation.grid
        self.dim = self.grid.dim

    def step(self, pts):
        idx = self.grid.cell_of(pts)
        return self.grid.centers(self.permutation.forward[idx])

    def step_block(self, x, count):
        return self.grid.centers(self.cell_orbit(self.grid.cell_of(x), count))

    def cell_image(self, cell, n) -> np.ndarray:
        """forward^n(cell) for cells and counts n >= 0 broadcast together
        (int64), in one gather off the cycle tables."""
        order, start, length, pos = self.permutation.tables
        cell = np.asarray(cell, dtype=np.int64)
        ahead = pos[cell] + np.asarray(n, dtype=np.int64)
        ahead %= length[cell]
        ahead += start[cell]
        return order[ahead].astype(np.int64)

    def cell_orbit(self, cell, count: int) -> np.ndarray:
        """Flat-index orbit forward^1(cell) .. forward^count(cell) of a cell
        or an array of cells, shape (count,) + cell.shape, in one gather."""
        cell = np.asarray(cell, dtype=np.int64)
        steps = np.arange(1, count + 1, dtype=np.int64).reshape((count,) + (1,) * cell.ndim)
        return self.cell_image(cell, steps)

    def describe(self):
        return f"grid-perm:d={self.grid.dim},m={self.grid.m}"


def sample_points(system_map: SystemMap, count: int, seed: int) -> np.ndarray:
    """``count`` seeded draws from the map's natural measure, shape (count, d).

    On a grid-backed map that is the normalized counting measure on its
    cells, and the draws are centers of uniformly drawn cells, which makes
    Monte Carlo an unbiased estimator of exhaustive cell sums; on any other
    map it is the uniform measure of the torus.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = make_rng(seed)
    if isinstance(system_map, GridBackedMap):
        grid = system_map.grid
        return grid.centers(rng.integers(0, grid.cell_count, size=count))
    return rng.random((count, system_map.dim))


class Identity(Rotation):
    """Identity map of the ``dim``-torus: the rotation by 0.  On points of
    [0, 1) a step frac(x + 0.0) returns x exactly, as ``wrap`` does."""

    def __init__(self, dim: int):
        require_dim(dim)
        super().__init__((0.0,) * dim)

    def describe(self):
        return "identity"


def _evaluation_points(
    map_a: SystemMap, map_b: SystemMap, dim: int, samples: int, seed: int
) -> np.ndarray:
    """Sample points for a sup-distance estimate, snapped to cell centers
    whenever a grid-backed map is involved (the piecewise maps are constant
    on cells, so centers carry the whole displacement field)."""
    grids = [m.grid for m in (map_a, map_b) if isinstance(m, GridBackedMap)]
    if grids and all(g == grids[0] for g in grids):
        return grids[0].all_centers()
    pts = make_rng(seed).random((samples, dim))
    if grids:
        pts = grids[0].centers(grids[0].cell_of(pts))
    return pts


def map_distance(
    map_a: SystemMap,
    map_b: SystemMap,
    samples_per_box: int = 4096,
    seed: int = 0,
) -> float:
    """Sampled sup over evaluation points x of d(T(x), S(x)) for two maps
    on a common torus.

    The points are every cell center when both maps are backed by one
    grid, else ``samples_per_box`` seeded uniform draws (snapped to cell
    centers when one map is grid-backed).  The estimate is a max over a
    growing sample set, hence monotone nondecreasing in
    ``samples_per_box`` for a fixed seed.

    Raises:
        ValueError: maps of different dimensions.
    """
    if map_a.dim != map_b.dim:
        raise ValueError("maps live on different spaces")
    pts = _evaluation_points(map_a, map_b, map_a.dim, samples_per_box, seed)
    d = distance(map_a.step(pts), map_b.step(pts))
    return float(np.max(d))
