"""Rate sequences r_n and shrinking radii t_n.

Scores multiply distances by r_n; shrinking-target experiments compare
distances against t_n = n^(-1/beta).  All variants evaluate vectorized
over an integer index array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class RateSequence:
    """Positive sequence indexed from n = 1.

    A value too large for a float is inf, without a warning: the scans
    take inf * d as inf and skip inf * 0, which is nan.
    """

    def values(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, n: int) -> float:
        return float(self.values(np.array([n]))[0])

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Power(RateSequence):
    """r_n = n^beta, beta > 0 (nondecreasing, divergent)."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("Power rate requires beta > 0")

    def values(self, n):
        with np.errstate(over="ignore"):
            return np.asarray(n, dtype=np.float64) ** self.beta

    def describe(self):
        return f"pow:{self.beta:g}"


@dataclass(frozen=True)
class PowerLog(RateSequence):
    """r_n = n^beta * log(n+1)^gamma, beta > 0 (eventually monotone, divergent)."""

    beta: float
    gamma: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("PowerLog rate requires beta > 0")

    def values(self, n):
        n = np.asarray(n, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            power, log_power = n ** self.beta, np.log(n + 1.0) ** self.gamma
            out = np.asarray(power * log_power)
            # Either factor can leave the normal float range (inf * 0 is nan,
            # 0 * huge is 0, a subnormal keeps few bits) where r_n is a normal
            # float; there the product is taken in logs.  Where both factors
            # and the product are normal floats, the product keeps its bits.
            off = ~(_normal(power) & _normal(log_power) & _normal(out))
            if off.any():
                m = n[off]
                out[off] = np.exp(self.beta * np.log(m) + self.gamma * np.log(np.log(m + 1.0)))
        return out[()]

    def describe(self):
        return f"powlog:{self.beta:g},{self.gamma:g}"


def _normal(v) -> np.ndarray:
    """Where v is a positive normal float: neither 0, subnormal, inf nor nan."""
    return (v >= np.finfo(np.float64).tiny) & (v <= np.finfo(np.float64).max)


@dataclass(frozen=True)
class TableRate(RateSequence):
    """Explicit finite table; r_n = entries[n-1], all entries positive."""

    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("rate table must be non-empty")
        if any(v <= 0 for v in self.entries):
            raise ValueError("rate table entries must be positive")

    def values(self, n):
        n = np.asarray(n, dtype=np.int64)
        if np.any(n < 1) or np.any(n > len(self.entries)):
            raise ValueError("rate table index out of range")
        return np.asarray(self.entries, dtype=np.float64)[n - 1]

    def describe(self):
        return "table:" + ",".join(f"{v:g}" for v in self.entries)


@dataclass(frozen=True)
class Shrinking(RateSequence):
    """Radii t_n = n^(-1/beta), beta > 0; strictly decreasing to 0."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("Shrinking rate requires beta > 0")

    def values(self, n):
        return np.asarray(n, dtype=np.float64) ** (-1.0 / self.beta)

    def describe(self):
        return f"shrink:{self.beta:g}"


def parse_rate(text: str) -> RateSequence:
    """Parse compact rate descriptions like ``pow:1`` or ``powlog:2,0.5``."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "pow":
            return Power(float(arg))
        if kind == "powlog":
            beta, gamma = arg.split(",")
            return PowerLog(float(beta), float(gamma))
        if kind == "table":
            return TableRate(tuple(float(v) for v in arg.split(",")))
        if kind == "shrink":
            return Shrinking(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad rate description {text!r}: {exc}") from exc
    raise ValueError(f"unknown rate kind {kind!r} in {text!r}")
