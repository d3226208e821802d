"""Tower-redirect perturbations: nearby permutations with short cycles.

Given any grid permutation tau, ``towerize`` produces a permutation g
with two hard guarantees, asserted on every run:

  * g is a bijection and, for every cell z, g(z) and tau(z) lie in the
    same cover cube (or are equal), so the cell-center displacement
    between g and tau is strictly below the cube diameter delta;
  * every redirected orbit closes into a cycle whose length equals its
    first-return time to the cube where it was closed.

The construction processes the cover cubes sequentially (lexicographic
corner order): for cube U the cycle tables of the current permutation
(``grid.cycle_tables``) give, for every cell u of U, its first return
point R(u), the next cell of U on u's cycle, and the last cell p_u before
that return; the redirect g(p_u) = u is the post-composition with R^{-1}
on U.  It splits each cycle through two or more cells of U into one
cycle per such cell, and only those cycles' table entries are rewritten,
so no orbit is walked step by step.  Closure is checked exactly before
each rewrite (the return points permute U and g(p_u) = R(u) for every
u).  Each cell is rewritten at most once overall because the cubes tile
the grid and a rewritten image stays inside its cube.  Short-cycle mass
is measured and reported, never promised for arbitrary inputs.

``extend_to_box`` embeds box dynamics into a larger box by the identity,
reporting the annulus mass it adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CycleTables, GridPermutation, GridSpec, PeriodicityReport, cycle_tables
from .spaces import box


class CoverError(ValueError):
    """Raised when no admissible cube cover exists at the grid resolution."""


@dataclass(frozen=True)
class CubeCover:
    """Disjoint dyadic cubes tiling the grid, with inner concentric cubes.

    The tiling uses a single dyadic edge (``edge_cells`` per axis), so the
    outer cubes carry full mass.  ``v_edge_cells`` is the edge of the
    concentric inner cube V within each U; V's mass is bookkeeping for
    the construction's provenance and plays no role in the redirect.
    """

    grid: GridSpec
    edge_cells: int
    v_edge_cells: int
    delta: float
    epsilon: float

    def __post_init__(self):
        if not (1 <= self.v_edge_cells <= self.edge_cells):
            raise ValueError("inner cube edge must fit inside the outer cube")

    @property
    def cubes_per_axis(self) -> int:
        return self.grid.cells_per_axis // self.edge_cells

    @property
    def cube_count(self) -> int:
        return self.cubes_per_axis ** self.grid.dim

    @property
    def degenerate(self) -> bool:
        """True when only single-cell cubes fit under delta."""
        return self.edge_cells == 1

    @property
    def outer_mass(self) -> float:
        return 1.0  # the cubes tile the whole grid

    @property
    def inner_mass(self) -> float:
        per_cube = self.v_edge_cells ** self.grid.dim
        return per_cube * self.cube_count / self.grid.cell_count

    def cube_of_cells(self) -> np.ndarray:
        """Flat cube id of every cell, C-order over cube coordinates."""
        mi = self.grid.multi_index(np.arange(self.grid.cell_count))
        cube_mi = mi // self.edge_cells
        n = self.cubes_per_axis
        out = np.zeros(self.grid.cell_count, dtype=np.int64)
        for axis in range(self.grid.dim):
            out = out * n + cube_mi[:, axis]
        return out


def build_cover(grid: GridSpec, delta: float, epsilon: float) -> CubeCover:
    """Deterministic full tiling by the largest dyadic cubes of size <= delta.

    The scale is the largest power-of-two edge s with s * cell_width <=
    delta, so within-cube center displacements stay strictly below delta.
    The inner cube edge is ceil((1-epsilon)^(1/d) * s), clipped to [1, s].
    With delta below 2 * cell_width the cover degenerates to single-cell
    cubes (the tower redirect then has nothing to close); this is allowed
    and flagged rather than rejected so that every requested resolution
    can at least run the hard-guarantee checks.

    Raises:
        CoverError: if delta < cell_width (not even single cells fit).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    width = grid.cell_width
    if delta < width:
        raise CoverError(
            f"delta {delta:g} below the cell width {width:g}; the minimum "
            f"feasible delta at this resolution is {width:g} "
            f"({2 * width:g} for a non-degenerate tower)"
        )
    edge = 1
    while edge * 2 <= grid.cells_per_axis and (edge * 2) * width <= delta:
        edge *= 2
    v_edge = int(np.ceil((1.0 - epsilon) ** (1.0 / grid.dim) * edge))
    v_edge = min(max(v_edge, 1), edge)
    return CubeCover(grid, edge, v_edge, float(delta), float(epsilon))


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of ``towerize``: the permutation plus measured guarantees."""

    permutation: GridPermutation
    cover: CubeCover
    max_displacement: float
    periodicity: PeriodicityReport
    redirects_per_cube: tuple
    p_star: int
    p_star_fraction: float

    @property
    def total_redirects(self) -> int:
        return int(sum(self.redirects_per_cube))


def _first_returns(tables: CycleTables, cells: np.ndarray):
    """Return point R(u) and last pre-return cell p_u of each cube cell u.

    Sorted by (start, pos), the cube's cells run through each cycle in
    orbit order, so R(u) is the next cube cell on u's cycle, wrapping
    around, and p_u is the cell just before R(u) in the cycle's slice.
    Returns ``(returns, last)``, aligned with ``cells``, with
    ``g[last] == returns``.
    """
    order, start, length, pos = tables
    begin = start[cells]
    slot = begin + pos[cells]
    walk = np.argsort(slot)
    begin, slot = begin[walk], slot[walk]
    k = cells.shape[0]
    new_cycle = np.ones(k, dtype=bool)
    np.not_equal(begin[1:], begin[:-1], out=new_cycle[1:])
    following = np.arange(1, k + 1)
    # The last cube cell of a cycle returns to the cycle's first cube cell.
    ends = np.append(new_cycle[1:], True)
    following[ends] = np.flatnonzero(new_cycle)
    returned = slot[following]
    before = returned - 1
    wraps = returned == begin
    before[wraps] += length[cells[walk[wraps]]]
    returns = np.empty_like(cells)
    last = np.empty_like(cells)
    returns[walk] = cells[walk[following]]
    last[walk] = order[before]
    return returns, last


def _split_cycles(tables: CycleTables, cells, returns, cube_of: np.ndarray, cube: int) -> None:
    """Update the tables after the redirect g(p_u) = u on one cube.

    Only a cycle with at least two cube cells changes: it splits into one
    cycle per cube cell u, the segment from u up to p_u.  Each such slice
    of ``order`` is rotated to start at its first cube cell, which makes
    every segment contiguous; then its cells get a new start, length and
    pos.
    """
    order, start, length, pos = tables
    # R(u) precedes u in its slice only from the last cube cell of a cycle
    # back to the first one: one entry per splitting cycle.
    firsts = returns[pos[returns] < pos[cells]]
    if not firsts.size:
        return
    begin, size, shift = start[firsts], length[firsts], pos[firsts]
    # Concatenated, the rotated slices list each cell once: entry e of
    # cycle j moves from slot begin + (e + shift) % size to begin + e.
    local = np.arange(int(size.sum()), dtype=np.int32)
    local -= np.repeat(np.cumsum(size, dtype=np.int32) - size, size)
    slot = local + np.repeat(shift, size)
    slot %= np.repeat(size, size)
    slot += np.repeat(begin, size)
    moving = order[slot]
    slot = local
    slot += np.repeat(begin, size)
    order[slot] = moving
    # Each cube cell heads the segment of its new cycle.
    head_at = np.flatnonzero(cube_of[moving] == cube)
    seg_len = np.concatenate((head_at[1:], [moving.shape[0]])) - head_at
    seg_start = np.repeat(slot[head_at], seg_len)
    length[moving] = np.repeat(seg_len, seg_len)
    slot -= seg_start
    pos[moving] = slot
    start[moving] = seg_start


def towerize(tau: GridPermutation, cover: CubeCover) -> PerturbationReport:
    """Close orbits into cycles cube by cube via inverse first-return maps.

    For each cube U in lexicographic order: read off the cycle tables of
    the current permutation g, for every cell u of U, its first return
    point R(u) and the last cell p_u before the return.  The cells p_u are
    exactly g^{-1}(U), and R^{-1}(g(p_u)) = u, so post-composing g with
    R^{-1} on U is the rewrite g(p_u) = u.  Later cubes only ever split
    cycles, never merge or grow them, and the tables follow each split.

    Before each rewrite the closure is checked exactly: the return points
    must be a permutation of U's cells and g(p_u) = R(u) for every u.
    Only the cells p_u change, so the path u -> ... -> p_u stays intact
    and the redirected orbit of u closes with period equal to its return
    time.  A degenerate cover (one-cell cubes, R(u) = u) has nothing to
    redirect, so its cubes are not visited.

    The three hard guarantees (bijectivity, same-cube displacement below
    delta, g = tau wherever tau's image is outside the processed cubes)
    are checked before returning; per-cube redirect counts are reported.
    The tables are checked to reproduce g; the periodicity is read off
    them, and the returned permutation keeps them.

    Raises:
        ValueError: if the cover was built for a different grid.
        AssertionError: if a hard guarantee fails (construction bug).
    """
    grid = tau.grid
    if cover.grid != grid:
        raise ValueError("cover and permutation grids differ")
    cube_of = cover.cube_of_cells()
    tables = cycle_tables(tau)
    g = tau.forward.copy()

    redirects = [0] * cover.cube_count
    # A one-cell cube {u} has R(u) = u, so a degenerate cover changes nothing.
    if not cover.degenerate:
        # Row c holds cube c's cells in increasing flat-index order.
        cells_by_cube = np.argsort(cube_of, kind="stable").reshape(cover.cube_count, -1)
        for cube, cells in enumerate(cells_by_cube):
            returns, last = _first_returns(tables, cells)
            if not np.array_equal(np.sort(returns), cells):
                raise AssertionError("first-return points do not permute the cube")
            if not np.array_equal(g[last], returns):
                raise AssertionError("a pre-return cell does not map to its return point")
            g[last] = cells
            redirects[cube] = int(np.count_nonzero(returns != cells))
            _split_cycles(tables, cells, returns, cube_of, cube)

    if not np.array_equal(tables.images(), g):
        raise AssertionError("cycle tables do not reproduce the permutation")
    # The checked tables go with the permutation: its orbits read them.
    perm = GridPermutation(grid, g, tables)

    moved = np.flatnonzero(g != tau.forward)
    if np.any(cube_of[g[moved]] != cube_of[tau.forward[moved]]):
        raise AssertionError("a redirect crossed cube boundaries")
    # Unmoved cells are displaced by exactly 0.0 and distances are >= 0.
    disp = grid.space.distance(grid.centers(g[moved]), grid.centers(tau.forward[moved]))
    max_disp = float(disp.max()) if moved.size else 0.0
    if max_disp >= cover.delta:
        raise AssertionError("displacement bound violated")

    periodicity = tables.periodicity()
    lengths = np.array(sorted(periodicity.histogram))
    masses = np.cumsum([periodicity.histogram[int(ln)] for ln in lengths])
    target = (1.0 - cover.epsilon) * periodicity.total_cells
    pos = int(np.searchsorted(masses, target, side="right"))
    pos = min(pos, len(lengths) - 1)
    p_star = int(lengths[pos])
    return PerturbationReport(
        permutation=perm,
        cover=cover,
        max_displacement=max_disp,
        periodicity=periodicity,
        redirects_per_cube=tuple(redirects),
        p_star=p_star,
        p_star_fraction=periodicity.fraction_within(p_star),
    )


@dataclass(frozen=True)
class BoxExtension:
    """Result of extending box dynamics by the identity on a larger box."""

    permutation: GridPermutation
    inner_half_width: float
    mid_half_width: float
    annulus_mass: float  # volume of C1 minus C
    identity_mass_fraction: float  # fraction of big-box cells fixed by design


def extend_to_box(
    g: GridPermutation, c1_half_width: float, big_half_width: float
) -> BoxExtension:
    """Embed a box permutation into [-L, L]^d, identity outside its box.

    The output grid keeps the cell width of g's grid, so L must be a
    power-of-two multiple of g's half-width and c1 must align to the cell
    lattice.  The output equals g on the cells of C and fixes every cell
    of C1 - C and of the complement of C1; the annulus volume is reported.

    Raises:
        ValueError: on misaligned or non-nested geometry.
    """
    small = g.grid
    if small.space.kind != "box":
        raise ValueError("extension starts from a box-space permutation")
    c = small.space.half_width
    d = small.dim
    width = small.cell_width
    if not (c <= c1_half_width <= big_half_width):
        raise ValueError("need C inside C1 inside the target box")
    ratio = big_half_width / c
    j = int(round(np.log2(ratio)))
    if abs(ratio - 2.0 ** j) > 1e-9 or j < 0:
        raise ValueError("target half-width must be a power-of-two multiple of C's")
    if abs((c1_half_width - c) / width - round((c1_half_width - c) / width)) > 1e-9:
        raise ValueError("C1 must align to the cell lattice")

    big = GridSpec(d, small.m + j, box(d, big_half_width))
    offset_cells = int(round((big_half_width - c) / width))

    small_mi = small.multi_index(np.arange(small.cell_count))
    big_src = big.flat_index(small_mi + offset_cells)
    big_dst = big.flat_index(small.multi_index(g.forward) + offset_cells)

    forward = np.arange(big.cell_count, dtype=np.int64)
    forward[big_src] = big_dst
    perm = GridPermutation(big, forward)

    annulus = (2 * c1_half_width) ** d - (2 * c) ** d
    identity_fraction = 1.0 - small.cell_count / big.cell_count
    return BoxExtension(
        permutation=perm,
        inner_half_width=c,
        mid_half_width=float(c1_half_width),
        annulus_mass=float(annulus),
        identity_mass_fraction=float(identity_fraction),
    )


def restrict_to_box(gp: GridPermutation, inner_half_width: float) -> GridPermutation:
    """Inverse of ``extend_to_box``: the induced permutation on the sub-box.

    Raises:
        ValueError: if the sub-box is misaligned or not invariant.
    """
    big = gp.grid
    if big.space.kind != "box":
        raise ValueError("restriction needs a box-space permutation")
    width = big.cell_width
    ratio = big.space.half_width / inner_half_width
    j = int(round(np.log2(ratio)))
    if abs(ratio - 2.0 ** j) > 1e-9 or j < 0:
        raise ValueError("sub-box half-width must divide the box dyadically")
    small = GridSpec(big.dim, big.m - j, box(big.dim, inner_half_width))
    offset_cells = int(round((big.space.half_width - inner_half_width) / width))
    small_mi = small.multi_index(np.arange(small.cell_count))
    big_src = big.flat_index(small_mi + offset_cells)
    images = gp.forward[big_src]
    img_mi = big.multi_index(images) - offset_cells
    if np.any(img_mi < 0) or np.any(img_mi >= small.cells_per_axis):
        raise ValueError("sub-box is not invariant under the permutation")
    return GridPermutation(small, small.flat_index(img_mi))
