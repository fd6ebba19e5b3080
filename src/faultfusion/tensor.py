"""Numeric substrate: float64 arrays, a deterministic PRNG, and weight init.

Conventions used throughout the package:
  - all values are 64-bit floats (np.float64), row-major,
  - layer inputs are batches: sequences are [batch, time, channels] and
    feature vectors [batch, features].
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float64

# SplitMix64 constants (Steele, Lea & Flood; the java.util.SplittableRandom mixer).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wraps mod 2**64)."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


class Rng:
    """Counter-based SplitMix64 generator.

    The k-th raw 64-bit output (k = 1, 2, ...) is mix64(seed + k * GAMMA),
    so the stream is a pure function of the seed: equal seeds give bit-equal
    uniform streams on every platform. Gaussian and shuffle outputs are
    derived from the uniform stream and are deterministic per platform.
    """

    def __init__(self, seed: int):
        self._seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._seed + idx * _GAMMA)

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform draws on [0, 1) with 53-bit resolution."""
        if shape is None:
            return float(self._raw(1)[0] >> _U64(11)) * 2.0**-53
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        out = (self._raw(n) >> _U64(11)).astype(DTYPE) * 2.0**-53
        return out.reshape(shape)

    def normal(self, shape=None) -> np.ndarray | float:
        """Standard Gaussian draws via Box-Muller on consecutive uniform pairs."""
        scalar = shape is None
        shape = (1,) if scalar else ((shape,) if isinstance(shape, int) else tuple(shape))
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], log is finite
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return float(z[0]) if scalar else z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n uniform keys."""
        return np.argsort(self.uniform(n), kind="stable")

    def derive(self, tag: int) -> "Rng":
        """Independent child stream; same (seed, tag) always gives the same child."""
        offset = ((int(tag) + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        child = _mix64(np.array([self._seed ^ _U64(offset)], dtype=np.uint64))
        return Rng(int(child[0]))


def glorot_uniform(fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Uniform Glorot init on [-L, L], L = sqrt(6 / (fan_in + fan_out)).

    Returns a [fan_in, fan_out] array.
    """
    if fan_in < 1 or fan_out < 1:
        raise ShapeError(f"degenerate fan: fan_in={fan_in}, fan_out={fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform((fan_in, fan_out)) * 2.0 - 1.0) * limit


def check_finite(x: np.ndarray, context: str) -> np.ndarray:
    """Raise NumericError if x contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {context}")
    return x
