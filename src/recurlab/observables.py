"""Observables: maps from the state space into a metric codomain.

The identity observable keeps the state space as codomain (with its wrap
metric); the other observables land in R^m carrying the L-infinity
metric.  Evaluation is deterministic and vectorized over (..., d) batches;
a trig phase is a many-row matrix product whatever the batch's shape, a
lone point beside a copy of itself (``spaces.paired``), so each point gets
the same value in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import distance, linf, paired, require_dim


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
        if not (np.isfinite(freq) & (np.floor(freq) == freq)).all():
            # cos(2 pi <k, x>) is continuous on the torus only for integer k.
            raise ValueError("frequencies must be integers")
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
        rows = pts.reshape(-1, pts.shape[-1])
        phase = 2.0 * np.pi * paired(rows) @ self._freq.T
        return np.cos(phase[:rows.shape[0]]).reshape(pts.shape[:-1] + (-1,))

    def describe(self):
        return "trig:" + ";".join(
            ",".join(f"{v:g}" for v in row) for row in self.frequencies
        )
