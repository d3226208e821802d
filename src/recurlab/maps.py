"""Measure-preserving system maps and the distance between maps.

Every map has a vectorized ``step`` over an (n, d) batch of points and
``advance(start, cols, n, k)``, which returns T^(n + k)(x) as (d, S)
columns for start points ``start`` (d, S) and ``cols`` = T^n(x): every
caller that needs only a later index calls it.  The analytic maps also
have a block kernel, ``step_block(start, cols, n, out)``, which writes
T^(n + 1 + i)(x) into ``out[i]`` (count, d, S); every orbit walk
(``recurrence.orbit_walk``) goes through it, at most ``BLOCK_POINTS``
points per block, so it costs O(N * S / BLOCK_POINTS) python overhead
instead of O(N).  A rotation adds n * alpha through an exact split
(``Rotation``), so T^n(x) depends on (x, n) alone, in any block, batch or
``iterate`` call, and ``advance`` is one addition.  An automorphism steps
``cols`` by one product rule (``spaces.paired``), so a point gets the
same bits in any batch; its ``advance`` walks the kernel.  Grid-backed
maps are never walked: T^n of a cell is one gather off the permutation's
cycle tables for any n (``GridBackedMap.cell_image``), and the
statistics modules work on them by residue class n mod L.

Iteration conventions:

  * grid-backed maps act on points by sending the containing cell to its
    image cell's center (the piecewise cell-center map), so composition
    of iterates is exact in the group-law sense;
  * analytic maps iterate in double precision; horizons are capped at
    1e7 steps, and a rotation's T^n(x) rounds three times whatever n;
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
from .spaces import check_point, distance, frac, make_rng, paired, require_dim, require_finite

MAX_HORIZON = 10 ** 7

# An orbit block of S points spans max(1, BLOCK_POINTS // S) steps, so it
# holds about BLOCK_POINTS * d values whatever the batch size.
BLOCK_POINTS = 4096


class SystemMap:
    """Bijection of the ``dim``-torus, iterated forward only.  Subclasses fill
    in ``step``, and a block kernel ``step_block`` or their own ``advance``."""

    dim: int

    def step(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def advance(self, start: np.ndarray, cols: np.ndarray, n: int, k: int) -> np.ndarray:
        """T^(n + k)(x) as (d, S) columns for start points ``start`` (d, S),
        ``cols`` = T^n(x) and k >= 0; this one walks ``step_block`` in
        blocks of max(1, BLOCK_POINTS // S) steps."""
        size = max(1, BLOCK_POINTS // start.shape[1])
        for done in range(0, k, size):
            block = np.empty((min(size, k - done),) + start.shape)
            self.step_block(start, cols, n + done, block)
            cols = block[-1]
        return cols

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
    """n-th image of a single point, through the map's ``advance``;
    iterate(map, x, 0) is x itself."""
    x = check_point(x, system_map.dim)
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    check_horizon(n)
    if n == 0:
        return x
    return system_map.advance(x[:, None], x[:, None], 0, n)[:, 0]


# n * hi and its frac are exact for n below 2^(53 - _HI_BITS) > MAX_HORIZON.
_HI_BITS = 26


@dataclass(frozen=True)
class Rotation(SystemMap):
    """Torus translation x -> x + alpha (mod 1).

    ``step`` adds alpha mod 1 (``np.fmod``, exact), so an integer alpha,
    however large, steps as 0.  T^n(x) is frac(x + (frac(n hi) + n lo)) for
    alpha mod 1 = hi + lo, an exact split after Dekker (Numer. Math. 18,
    1971) with hi a multiple of 2^-26.  ``describe`` and ``affine`` keep the
    given alpha.
    """

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) < 1:
            raise ValueError("rotation vector must be non-empty")
        turn = np.fmod(require_finite(self.alpha, "rotation vector"), 1.0)
        # trunc keeps hi's sign, so turn - hi is the low bits of turn, exact.
        hi = np.trunc(turn * 2.0 ** _HI_BITS) / 2.0 ** _HI_BITS
        object.__setattr__(self, "_turn", turn)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_lo", turn - hi)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def step(self, pts):
        return frac(np.asarray(pts, dtype=np.float64) + self._turn)

    def _turns(self, n):
        """n * alpha (mod 1) as frac(n hi) + n lo, for step counts n (..., 1)
        or a scalar: the one shift that ``step_block`` and ``advance`` add."""
        n = np.asarray(n, dtype=np.float64)
        return frac(n * self._hi) + n * self._lo

    def step_block(self, start, cols, n, out):
        steps = np.arange(n + 1, n + 1 + out.shape[0], dtype=np.float64)[:, None]
        np.add(start, self._turns(steps)[:, :, None], out=out)
        out -= np.floor(out)

    def advance(self, start, cols, n, k):
        return frac(start + self._turns(n + k)[:, None])

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

    def step_block(self, start, cols, n, out):
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

    def advance(self, start, cols, n, k):
        if n + k == 0:  # T^0 is the identity: the start point, not its cell's center
            return start
        return self.grid.centers(self.cell_image(self.grid.cell_of(start.T), n + k)).T

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
