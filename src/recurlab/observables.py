"""Observables: maps from the state space into a metric codomain.

The identity observable keeps the state space as codomain (with its wrap
metric); the other observables land in R^m carrying the L-infinity
metric.  Evaluation is deterministic and vectorized over (n, d) batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spaces import distance, linf, require_dim


class Observable:
    output_dim: int

    def values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        """L-infinity distance in the codomain."""
        return linf(np.abs(np.asarray(va) - np.asarray(vb)))

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityObservable(Observable):
    """f = Id on the ``dim``-torus; the codomain is the torus itself, wrap
    metric included."""

    dim: int

    def __post_init__(self):
        require_dim(self.dim)

    @property
    def output_dim(self) -> int:
        return self.dim

    def values(self, pts):
        return np.asarray(pts, dtype=np.float64)

    def distance(self, va, vb):
        return distance(va, vb)

    def describe(self):
        return "id"


@dataclass(frozen=True)
class CoordinateTrig(Observable):
    """Component j is cos(2 pi <k_j, x>) for integer frequency rows k_j."""

    frequencies: tuple  # rows as tuples

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=np.float64)
        if freq.ndim != 2:
            raise ValueError("frequencies must be an (m, d) matrix")
        object.__setattr__(
            self, "frequencies", tuple(tuple(float(v) for v in row) for row in freq)
        )
        object.__setattr__(self, "_freq", freq)

    @property
    def output_dim(self) -> int:
        return len(self.frequencies)

    def values(self, pts):
        # C order: numpy's matrix-vector product of a column-major batch
        # (one frequency row) rounds apart from a row-major one.
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        return np.cos(2.0 * np.pi * pts @ self._freq.T)

    def describe(self):
        return "trig:" + ";".join(
            ",".join(f"{v:g}" for v in row) for row in self.frequencies
        )


class GridTableObservable(Observable):
    """Values tabulated per grid cell; evaluation is a cell lookup."""

    def __init__(self, grid: GridSpec, table: np.ndarray):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim == 1:
            table = table[:, None]
        if table.shape[0] != grid.cell_count:
            raise ValueError("table length must equal the grid cell count")
        self.grid = grid
        self.table = table
        self.table.setflags(write=False)

    @property
    def output_dim(self) -> int:
        return self.table.shape[1]

    def values(self, pts):
        idx = self.grid.cell_of(pts)
        return self.table[idx]

    def fiber_fraction(self, value: np.ndarray) -> float:
        """Exact fraction of cells whose table entry equals ``value``.

        Used to check the zero-fiber hypothesis on hitting targets for
        tabulated observables (for analytic observables it is assumed).
        """
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        hits = np.all(self.table == value[None, :], axis=1)
        return float(hits.sum()) / self.grid.cell_count

    def describe(self):
        return f"gridtable:m={self.grid.m},out={self.output_dim}"
