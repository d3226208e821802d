"""Dyadic grids, measure-preserving cell permutations, and cycle analysis.

A grid splits each axis of the torus into 2^m half-open cells.  A
:class:`GridPermutation` is a bijection of the flat cell indices; the
normalized counting measure on cells is exactly invariant under any such
bijection, which is the finite model of measure preservation used by the
perturbation constructions.

Cell indexing is C-order over the per-axis indices; ``cell_of`` uses the
half-open convention floor(x / width), so points exactly on a cell's
lower face belong to that cell.

``discretize`` maps cells of an affine map x -> A x + alpha by the exact
lattice rule z -> A z + b (mod 2^m) on per-axis cell indices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spaces import distance, require_dim, wrap

# Cell indices are held as int32 (2^26 < 2^31), so a permutation's
# forward array stays under 256 MiB.
MAX_CELL_BITS = 26
MAX_TOTAL_CELLS = 2 ** MAX_CELL_BITS

# discretize builds and checks this many cells at a time, so its working
# set beside the forward array is a few MB whatever the grid size.
CHUNK_CELLS = 2 ** 16

GPRM_MAGIC = b"GPRM"
GPRM_VERSION = 1


class DiscretizationError(RuntimeError):
    """Raised when the nearest-permutation construction cannot meet its bound."""


@dataclass(frozen=True)
class GridSpec:
    """2^m cells per axis over the ``dim``-torus."""

    dim: int
    m: int

    def __post_init__(self):
        require_dim(self.dim)
        if self.m < 1:
            raise ValueError("resolution exponent m must be >= 1")
        # 2^(m d) cells: compared by exponent, so a huge m costs no power.
        if self.m * self.dim > MAX_CELL_BITS:
            raise ValueError(
                f"grid of 2^{self.m * self.dim} cells exceeds the "
                f"{MAX_TOTAL_CELLS} addressable-cell cap"
            )

    @property
    def cells_per_axis(self) -> int:
        return 2 ** self.m

    @property
    def cell_count(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def cell_width(self) -> float:
        return 1 / self.cells_per_axis

    def multi_index(self, idx: np.ndarray) -> np.ndarray:
        """Flat index -> (k, d) per-axis indices (C-order)."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(idx.shape + (self.dim,), dtype=np.int64)
        n = self.cells_per_axis
        rem = idx
        for axis in range(self.dim - 1, -1, -1):
            out[..., axis] = rem % n
            rem = rem // n
        return out

    def flat_index(self, multi: np.ndarray) -> np.ndarray:
        multi = np.asarray(multi, dtype=np.int64)
        n = self.cells_per_axis
        out = np.zeros(multi.shape[:-1], dtype=np.int64)
        for axis in range(self.dim):
            out = out * n + multi[..., axis]
        return out

    def centers(self, idx: np.ndarray) -> np.ndarray:
        """Centers of the given flat cell indices, shape (k, d)."""
        return self.multi_centers(self.multi_index(idx))

    def multi_centers(self, multi: np.ndarray) -> np.ndarray:
        """Centers (multi + 1/2) * width of per-axis indices (k, d), built in
        one array."""
        out = multi + 0.5
        out *= self.cell_width
        return out

    def all_centers(self) -> np.ndarray:
        return self.centers(np.arange(self.cell_count))

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Flat index of the cell containing each point.

        Raises:
            ValueError: if the points' last axis is not ``dim`` long, which
                ``flat_index`` would silently cut or misread.
        """
        return self._cell_of_wrapped(wrap(pts, self.dim))

    def _cell_of_wrapped(self, pts: np.ndarray) -> np.ndarray:
        """``cell_of`` of float64 points of this grid's dimension that
        ``spaces.wrap`` has reduced."""
        mi = np.floor(pts / self.cell_width).astype(np.int64)
        mi %= self.cells_per_axis
        return self.flat_index(mi)


def torus_grid(dim: int, m: int) -> GridSpec:
    return GridSpec(dim, m)


class GridPermutation:
    """Bijection of grid cells; immutable after construction.

    ``forward`` is int32, read-only; orbits run forward only.  ``tables``
    (the permutation's :class:`CycleTables`) are built on first use and
    kept, read-only.  A caller that already holds the tables (``towerize``)
    passes them in; they are checked to reproduce ``forward``.
    """

    def __init__(self, grid: GridSpec, forward: np.ndarray, tables: CycleTables | None = None):
        forward = np.asarray(forward)
        if forward.shape != (grid.cell_count,):
            raise ValueError("forward array length does not match cell count")
        if forward.dtype.kind not in "iu":
            raise ValueError(f"forward array must hold integers, not {forward.dtype}")
        # Checked in the input's own dtype, before narrowing to int32: numpy
        # would wrap a negative index into range, and the cast would wrap an
        # entry such as 2^32 + 5.
        if forward.min() < 0 or forward.max() >= grid.cell_count:
            raise ValueError(f"forward array has entries outside [0, {grid.cell_count})")
        forward = forward.astype(np.int32, copy=False)
        # N entries in range that reach all N cells are a bijection.
        seen = np.zeros(grid.cell_count, dtype=bool)
        seen[forward] = True
        if not seen.all():
            raise ValueError("forward array is not a bijection of the cells")
        self.grid = grid
        self.forward = forward
        self.forward.setflags(write=False)
        self._tables = None
        if tables is not None:
            if not np.array_equal(tables.images(), forward):
                raise ValueError("cycle tables do not reproduce the forward array")
            self._keep(tables)

    @property
    def tables(self) -> CycleTables:
        """The cycle tables of :func:`cycle_tables`, built once, read-only."""
        if self._tables is None:
            self._keep(cycle_tables(self))
        return self._tables

    def _keep(self, tables: CycleTables) -> None:
        for array in tables:
            array.setflags(write=False)
        self._tables = tables

    @classmethod
    def identity(cls, grid: GridSpec) -> "GridPermutation":
        return cls(grid, np.arange(grid.cell_count, dtype=np.int32))

    @classmethod
    def cyclic_shift(cls, grid: GridSpec, shift: int) -> "GridPermutation":
        """Shift every flat index by a constant (single-axis use: dim 1)."""
        n = grid.cell_count
        return cls(grid, (np.arange(n, dtype=np.int64) + shift) % n)

    def __eq__(self, other):
        return (
            isinstance(other, GridPermutation)
            and self.grid == other.grid
            and np.array_equal(self.forward, other.forward)
        )

    def displacement_cells(self, other: "GridPermutation") -> np.ndarray:
        """Per-cell center distance between the two images, in space units."""
        if other.grid != self.grid:
            raise ValueError("grids differ")
        a = self.grid.centers(self.forward)
        b = self.grid.centers(other.forward)
        return distance(a, b)


@dataclass(frozen=True)
class PeriodicityReport:
    """Cycle length histogram of a permutation.

    ``histogram`` maps cycle length -> number of cells living on cycles of
    that length; masses therefore sum to ``total_cells``.
    """

    histogram: dict
    total_cells: int

    def __post_init__(self):
        if sum(self.histogram.values()) != self.total_cells:
            raise ValueError("histogram masses must sum to the cell count")

    def fraction_within(self, period_bound: int) -> float:
        """Fraction of cells whose cycle length is <= period_bound."""
        if period_bound < 1:
            raise ValueError("period bound must be >= 1")
        covered = sum(c for length, c in self.histogram.items() if length <= period_bound)
        return covered / self.total_cells


class CycleTables(NamedTuple):
    """A permutation's cycles laid out end to end, as four int32 arrays.

    Each cycle is a contiguous slice ``order[start[c]:start[c] + length[c]]``
    in orbit order, and cell c sits at ``order[start[c] + pos[c]]``, so
    f(c) = order[start[c] + (pos[c] + 1) % length[c]].  ``start``, ``length``
    and ``pos`` are indexed by cell.
    """

    order: np.ndarray
    start: np.ndarray
    length: np.ndarray
    pos: np.ndarray

    def images(self) -> np.ndarray:
        """f of every cell, as the tables give it (int32)."""
        ahead = self.pos + 1
        ahead %= self.length
        ahead += self.start
        return self.order[ahead]

    def periodicity(self) -> PeriodicityReport:
        """Cycle length histogram; ``length`` counts every cell of a cycle."""
        cells = np.bincount(self.length)
        lengths = np.flatnonzero(cells)
        histogram = {int(ln): int(cells[ln]) for ln in lengths}
        return PeriodicityReport(histogram, int(self.length.shape[0]))


def cycle_tables(gp: GridPermutation) -> CycleTables:
    """Cycle tables by pointer doubling, then list ranking.

    Labels: after k rounds ``label[i]`` is the smallest cell among i, f(i),
    ..., f^(2^k - 1)(i) and ``jump`` is f^(2^k).  The loop stops at the
    first round that lowers no label.  Then label[i] <= label[jump[i]] for
    every i, so label is constant along each orbit of jump; on a cycle of
    length L those 2^k-step windows cover lcm(L, 2^k) >= L cells, so every
    label is its cycle's smallest cell.  Cycles are laid out in the order
    of their labels, each starting at its label.

    Ranks: cutting each cycle before its label leaves a list ending at the
    cell t with f(t) = label[t].  Pointer jumping towards t counts
    ``dist[i]``, the steps from i to t, in bit_length(L - 1) rounds, and
    pos = L - 1 - dist.

    Working arrays are int32, as ``forward`` is.  Each gather is a plain
    ``np.take``, which raises on an index out of range.
    """
    n = gp.forward.shape[0]
    forward = gp.forward
    label = np.arange(n, dtype=np.int32)
    jump = forward
    while True:
        ahead = np.take(label, jump)
        if not (ahead < label).any():
            break
        np.minimum(label, ahead, out=label)
        jump = np.take(jump, jump)
    del ahead

    sizes = np.bincount(label, minlength=n).astype(np.int32)
    offsets = np.cumsum(sizes, dtype=np.int32)
    offsets -= sizes
    start = offsets[label]
    length = sizes[label]
    del sizes, offsets

    tail = forward == label
    dist = (~tail).astype(np.int32)
    jump = np.where(tail, np.arange(n, dtype=np.int32), forward)
    del tail, forward, label
    for _ in range((int(length.max()) - 1).bit_length()):
        dist += np.take(dist, jump)
        jump = np.take(jump, jump)
    del jump
    pos = length - 1
    pos -= dist
    del dist
    order = np.empty(n, dtype=np.int32)
    order[start + pos] = np.arange(n, dtype=np.int32)
    return CycleTables(order, start, length, pos)


def cycle_decomposition(gp: GridPermutation) -> PeriodicityReport:
    """Exact cycle length histogram, read off the permutation's cached tables."""
    return gp.tables.periodicity()


def apply_power(gp: GridPermutation, cells: np.ndarray, k: int) -> np.ndarray:
    """forward^k of every entry of ``cells``, as int32, by square-and-multiply.

    Bit i of k applies forward^(2^i) to the cells, and the next power is
    the current one gathered through itself; powers of one permutation
    commute, so the order of the bits does not matter.  That costs
    popcount(k) + bit_length(k) - 1 gathers instead of k, and integer
    composition is exact.  The gathers read the int32 ``forward`` through
    a plain ``np.take``, as in :func:`cycle_tables`.

    Raises:
        ValueError: if k < 0.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    cells = np.asarray(cells, dtype=np.int32)
    power = gp.forward
    while k:
        if k & 1:
            cells = np.take(power, cells)
        k >>= 1
        if k:
            power = np.take(power, power)
    return cells


def discretize(system_map, grid: GridSpec) -> GridPermutation:
    """Nearest-permutation approximation of an affine map x -> A x + alpha.

    The center (z + 1/2) * width of cell z maps to (A z + A/2 + alpha 2^m)
    * width (mod 1), A/2 being A times the all-halves vector, so
    it lies in cell A z + b (mod 2^m) with b = floor(A/2 + frac(alpha) 2^m),
    exact in Python integers (Lax's periodic approximation).  Each image
    cell's center must then lie within (1 + sqrt(d)) * cell_width of the
    float image of the cell's center, checked with ``step`` on every center.
    Both run over ``CHUNK_CELLS`` cells at a time, written straight into
    the int32 forward array; the error names the first cell of largest
    displacement, as one argmax over all cells would.

    Raises:
        ValueError: if the map's dimension is not the grid's, or it has no
            affine form (``affine()`` gives None), before any step.
        DiscretizationError: if the displacement bound is not met.
    """
    if system_map.dim != grid.dim:
        raise ValueError("map space and grid space differ")
    action = system_map.affine() if hasattr(system_map, "affine") else None
    if action is None:
        name = (system_map.describe() if hasattr(system_map, "describe")
                else type(system_map).__name__)
        raise ValueError(f"discretize needs a map x -> Ax + alpha; {name} has no affine form")
    matrix, alpha = action
    n = grid.cells_per_axis
    width = grid.cell_width
    shift = []
    for row, t in zip(matrix, alpha):
        # t = p/q exactly with q a power of two, so frac(t) = (p mod q)/q and
        # floor(sum(row)/2 + frac(t) n) is one integer floor division.
        p, q = float(t).as_integer_ratio()
        shift.append((sum(row) * q + 2 * (p % q) * n) // (2 * q) % n)
    # Reduced mod 2^m (at most 2^26), so each of the d <= 26 products in a
    # row sum stays below 2^52 and the int64 sum cannot overflow.
    mat = np.asarray(matrix, dtype=np.int64) % n
    forward = np.empty(grid.cell_count, dtype=np.int32)
    worst, worst_disp = 0, -np.inf
    for lo in range(0, grid.cell_count, CHUNK_CELLS):
        hi = min(lo + CHUNK_CELLS, grid.cell_count)
        z = grid.multi_index(np.arange(lo, hi, dtype=np.int64))
        img = z @ mat.T
        img += shift
        img %= n
        forward[lo:hi] = grid.flat_index(img)
        images = system_map.step(grid.multi_centers(z))
        disp = distance(grid.multi_centers(img), images)
        k = int(np.argmax(disp))
        # Only a strictly greater value replaces the maximum: on a tie the
        # earlier cell stands, as in np.argmax.
        if disp[k] > worst_disp:
            worst, worst_disp = lo + k, disp[k]
    bound = (1.0 + np.sqrt(grid.dim)) * width
    if worst_disp > bound + 1e-12:
        raise DiscretizationError(
            f"cell {worst} displaced {worst_disp:.3e} > bound {bound:.3e}; "
            "the map is too rough for this resolution"
        )
    return GridPermutation(grid, forward)


# After the magic: version, dim, m, space tag, a float the tag may use.  A
# torus file holds tag 0 and 0.0; the reader rejects every other tag.
_GPRM_HEADER = struct.Struct("<IIIBd")
_TORUS_TAG = 0


def save_permutation(gp: GridPermutation, path) -> None:
    """Write the binary GPRM format: header then forward array as LE u64."""
    grid = gp.grid
    header = GPRM_MAGIC + _GPRM_HEADER.pack(GPRM_VERSION, grid.dim, grid.m, _TORUS_TAG, 0.0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gp.forward.astype("<u8").tobytes())


def load_permutation(path) -> GridPermutation:
    """Read a GPRM file into an int32 forward array.

    The u64 entries are range-checked as read, before they are narrowed.

    Raises:
        ValueError: bad magic, version or space tag, a short header, a
            payload that is not exactly 8 bytes per cell, or an entry
            outside [0, N) or not a bijection.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != GPRM_MAGIC:
            raise ValueError(f"not a GPRM file (magic {magic!r})")
        header = fh.read(_GPRM_HEADER.size)
        if len(header) != _GPRM_HEADER.size:
            raise ValueError(
                f"GPRM header is {len(header)} bytes after the magic, expected {_GPRM_HEADER.size}"
            )
        version, dim, m, tag, _ = _GPRM_HEADER.unpack(header)
        if version != GPRM_VERSION:
            raise ValueError(f"unsupported GPRM version {version}")
        if tag != _TORUS_TAG:
            raise ValueError(f"unsupported space tag {tag}: only the torus (tag 0) is read")
        grid = torus_grid(dim, m)
        raw = fh.read()
        if len(raw) != 8 * grid.cell_count:
            raise ValueError(
                f"GPRM payload is {len(raw)} bytes, expected {8 * grid.cell_count} "
                f"(8 per cell of the 2^{dim * m}-cell grid)"
            )
        forward = np.frombuffer(raw, dtype="<u8")
    return GridPermutation(grid, forward)
