"""Dyadic grids, measure-preserving cell permutations, and cycle analysis.

A grid splits each axis of the space into 2^m half-open cells.  A
:class:`GridPermutation` is a bijection of the flat cell indices; the
normalized counting measure on cells is exactly invariant under any such
bijection, which is the finite model of measure preservation used by the
perturbation constructions.

Cell indexing is C-order over the per-axis indices; ``cell_of`` uses the
half-open convention floor((x - origin)/width), so points exactly on a
cell's lower face belong to that cell.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .spaces import Space, box, torus

# Permutation arrays are held in memory as int64; this cap keeps the
# forward/inverse pair under ~1 GiB.
MAX_TOTAL_CELLS = 2 ** 26

GPRM_MAGIC = b"GPRM"
GPRM_VERSION = 1


class DiscretizationError(RuntimeError):
    """Raised when the nearest-permutation construction cannot meet its bound."""


@dataclass(frozen=True)
class GridSpec:
    """2^m cells per axis over a torus or box space."""

    dim: int
    m: int
    space: Space

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("resolution exponent m must be >= 1")
        if self.space.dim != self.dim:
            raise ValueError("space dimension does not match grid dimension")
        if self.cell_count > MAX_TOTAL_CELLS:
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
        return self.space.extent / self.cells_per_axis

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
        mi = self.multi_index(idx)
        return self.space.origin + (mi + 0.5) * self.cell_width

    def all_centers(self) -> np.ndarray:
        return self.centers(np.arange(self.cell_count))

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Flat index of the cell containing each point."""
        pts = self.space.wrap(np.asarray(pts, dtype=np.float64))
        mi = np.floor((pts - self.space.origin) / self.cell_width).astype(np.int64)
        n = self.cells_per_axis
        if self.space.kind == "torus":
            mi %= n
        else:
            np.clip(mi, 0, n - 1, out=mi)
        return self.flat_index(mi)


def torus_grid(dim: int, m: int) -> GridSpec:
    return GridSpec(dim, m, torus(dim))


def box_grid(dim: int, m: int, half_width: float) -> GridSpec:
    return GridSpec(dim, m, box(dim, half_width))


class GridPermutation:
    """Bijection of grid cells with its inverse; immutable after construction."""

    def __init__(self, grid: GridSpec, forward: np.ndarray):
        forward = np.asarray(forward, dtype=np.int64)
        if forward.shape != (grid.cell_count,):
            raise ValueError("forward array length does not match cell count")
        # Checked first: numpy would wrap a negative index into range.
        if forward.min() < 0 or forward.max() >= grid.cell_count:
            raise ValueError(f"forward array has entries outside [0, {grid.cell_count})")
        inverse = np.empty_like(forward)
        inverse[forward] = np.arange(grid.cell_count, dtype=np.int64)
        # A non-bijective array leaves some slot unwritten or double-written;
        # the round trip check catches both.
        if not np.array_equal(inverse[forward], np.arange(grid.cell_count)):
            raise ValueError("forward array is not a bijection of the cells")
        self.grid = grid
        self.forward = forward
        self.inverse = inverse
        self.forward.setflags(write=False)
        self.inverse.setflags(write=False)

    @classmethod
    def identity(cls, grid: GridSpec) -> "GridPermutation":
        return cls(grid, np.arange(grid.cell_count, dtype=np.int64))

    @classmethod
    def cyclic_shift(cls, grid: GridSpec, shift: int) -> "GridPermutation":
        """Shift every flat index by a constant (single-axis use: dim 1)."""
        n = grid.cell_count
        return cls(grid, (np.arange(n, dtype=np.int64) + shift) % n)

    def compose(self, other: "GridPermutation") -> "GridPermutation":
        """self after other: cell -> self.forward[other.forward[cell]]."""
        if other.grid != self.grid:
            raise ValueError("cannot compose permutations on different grids")
        return GridPermutation(self.grid, self.forward[other.forward])

    def inverse_permutation(self) -> "GridPermutation":
        return GridPermutation(self.grid, self.inverse.copy())

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
        return self.grid.space.distance(a, b)


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

    @property
    def max_period(self) -> int:
        return max(self.histogram)

    def fraction_within(self, period_bound: int) -> float:
        """Fraction of cells whose cycle length is <= period_bound."""
        if period_bound < 1:
            raise ValueError("period bound must be >= 1")
        covered = sum(c for length, c in self.histogram.items() if length <= period_bound)
        return covered / self.total_cells


def cycle_decomposition(gp: GridPermutation) -> PeriodicityReport:
    """Exact cycle length histogram by pointer doubling.

    After k rounds ``label[i]`` is the smallest cell among i, f(i), ...,
    f^(2^k - 1)(i) and ``jump`` is f^(2^k).  The loop stops at the first
    round that lowers no label.  Then label[i] <= label[jump[i]] for every
    i, so label is constant along each orbit of jump; on a cycle of
    length L those 2^k-step windows cover lcm(L, 2^k) >= L cells, so every
    label is its cycle's smallest cell and each cycle's length is its
    label count.

    The three working arrays are int32 (cell indices fit: MAX_TOTAL_CELLS
    < 2^31), which halves the memory traffic of the gathers; ``"clip"``
    skips numpy's buffered bounds check, as a bijection's indices are all
    in range.
    """
    n = gp.forward.shape[0]
    label = np.arange(n, dtype=np.int32)
    jump = gp.forward.astype(np.int32)
    scratch = np.empty(n, dtype=np.int32)
    while True:
        np.take(label, jump, out=scratch, mode="clip")
        if not (scratch < label).any():
            break
        np.minimum(label, scratch, out=label)
        np.take(jump, jump, out=scratch, mode="clip")
        jump, scratch = scratch, jump
    del jump, scratch
    sizes = np.bincount(label)
    lengths, counts = np.unique(sizes[sizes > 0], return_counts=True)
    histogram = {int(ln): int(ln) * int(c) for ln, c in zip(lengths, counts)}
    return PeriodicityReport(histogram, n)


def apply_power(gp: GridPermutation, cells: np.ndarray, k: int) -> np.ndarray:
    """forward^k of every entry of ``cells``, as int32, by square-and-multiply.

    Bit i of k applies forward^(2^i) to the cells, and the next power is
    the current one gathered through itself; powers of one permutation
    commute, so the order of the bits does not matter.  That costs
    popcount(k) + bit_length(k) - 1 gathers instead of k, and integer
    composition is exact.  Working arrays are int32 with ``"clip"``
    gathers, as in :func:`cycle_decomposition`.

    Raises:
        ValueError: if k < 0.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    cells = np.asarray(cells, dtype=np.int32)
    power = gp.forward.astype(np.int32)
    while k:
        if k & 1:
            cells = np.take(power, cells, mode="clip")
        k >>= 1
        if k:
            power = np.take(power, power, mode="clip")
    return cells


def period_bound_fraction(report: PeriodicityReport, period_bound: int) -> float:
    return report.fraction_within(period_bound)


def _ring_offsets(dim: int, radius: int) -> np.ndarray:
    """All integer offsets with L-infinity norm exactly ``radius``, sorted.

    Sorted lexicographically so free-cell selection is deterministic.
    """
    if radius == 0:
        return np.zeros((1, dim), dtype=np.int64)
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    ring = pts[np.abs(pts).max(axis=1) == radius]
    order = np.lexsort(ring.T[::-1])
    return ring[order]


def discretize(system_map, grid: GridSpec) -> GridPermutation:
    """Nearest-permutation approximation of a measure-preserving map.

    Every cell is assigned, in increasing flat-index order, to the cell
    containing the image of its center.  When the target is taken, the
    search expands over L-infinity rings around it, radius by radius,
    assigning the free candidate with the lowest flat index.  The whole
    procedure is deterministic.

    The resulting assignment must place every cell within
    (1 + sqrt(d)) * cell_width of its true image point; this holds for the
    smooth measure-preserving families in scope, and is verified cell by
    cell after construction.

    Raises:
        ValueError: if the map lives on a different space than the grid.
        DiscretizationError: if the displacement bound cannot be met.
    """
    if system_map.space != grid.space:
        raise ValueError("map space and grid space differ")
    n_cells = grid.cell_count
    n_axis = grid.cells_per_axis
    width = grid.cell_width

    images = system_map.step(grid.all_centers())
    targets = grid.cell_of(images)

    forward = np.full(n_cells, -1, dtype=np.int64)
    taken = np.zeros(n_cells, dtype=bool)

    # Fast path: cells whose rounded target is unclaimed by any earlier cell.
    counts = np.bincount(targets, minlength=n_cells)
    conflict_free = counts[targets] == 1
    forward[conflict_free] = targets[conflict_free]
    taken[targets[conflict_free]] = True

    pending = np.nonzero(~conflict_free)[0]
    offsets_cache: dict[int, np.ndarray] = {}
    wrap = grid.space.kind == "torus"
    for cell in pending:
        tgt_multi = grid.multi_index(np.int64(targets[cell]))
        assigned = -1
        for radius in range(0, n_axis):
            offs = offsets_cache.get(radius)
            if offs is None:
                offs = _ring_offsets(grid.dim, radius)
                offsets_cache[radius] = offs
            cand = tgt_multi + offs
            if wrap:
                cand %= n_axis
            else:
                keep = np.all((cand >= 0) & (cand < n_axis), axis=1)
                cand = cand[keep]
                if cand.shape[0] == 0:
                    continue
            flat = grid.flat_index(cand)
            free = flat[~taken[flat]]
            if free.size:
                assigned = int(free.min())
                break
        if assigned < 0:
            raise DiscretizationError("no free cell found; grid is full")
        forward[cell] = assigned
        taken[assigned] = True

    perm = GridPermutation(grid, forward)
    bound = (1.0 + np.sqrt(grid.dim)) * width
    disp = grid.space.distance(grid.centers(forward), images)
    worst = int(np.argmax(disp))
    if disp[worst] > bound + 1e-12:
        raise DiscretizationError(
            f"cell {worst} displaced {disp[worst]:.3e} > bound {bound:.3e}; "
            "the map is too rough for this resolution"
        )
    return perm


# After the magic: version, dim, m, space tag, box half-width.
_GPRM_HEADER = struct.Struct("<IIIBd")
_SPACE_TAGS = {"torus": 0, "box": 1}
_TAGS_SPACE = {v: k for k, v in _SPACE_TAGS.items()}


def save_permutation(gp: GridPermutation, path) -> None:
    """Write the binary GPRM format: header then forward array as LE u64."""
    grid = gp.grid
    header = GPRM_MAGIC + _GPRM_HEADER.pack(
        GPRM_VERSION,
        grid.dim,
        grid.m,
        _SPACE_TAGS[grid.space.kind],
        grid.space.half_width,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gp.forward.astype("<u8").tobytes())


def load_permutation(path) -> GridPermutation:
    """Read a GPRM file; the inverse array is recomputed, not stored.

    Raises:
        ValueError: bad magic, version or space tag, a short header, or a
            payload that is not exactly 8 bytes per cell.
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
        version, dim, m, tag, half_width = _GPRM_HEADER.unpack(header)
        if version != GPRM_VERSION:
            raise ValueError(f"unsupported GPRM version {version}")
        kind = _TAGS_SPACE.get(tag)
        if kind is None:
            raise ValueError(f"unknown space tag {tag}")
        space = torus(dim) if kind == "torus" else box(dim, half_width)
        grid = GridSpec(dim, m, space)
        raw = fh.read()
        if len(raw) != 8 * grid.cell_count:
            raise ValueError(
                f"GPRM payload is {len(raw)} bytes, expected {8 * grid.cell_count} "
                f"(8 per cell of the 2^{dim * m}-cell grid)"
            )
        forward = np.frombuffer(raw, dtype="<u8").astype(np.int64)
    return GridPermutation(grid, forward)
