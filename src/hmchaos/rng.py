"""Seeded, splittable streams of standard complex Gaussians.

A stream is a pure function of its Seed: draw k returns the same value no
matter how draws are batched, which thread created the stream, or how many
workers a Monte Carlo run uses. The bit source is counter-based (Philox)
keyed by (root, replicate_index); the Gaussian transform is polar
Box-Muller on uniform doubles, which has no rejection loop. All arithmetic
is 64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer round, used to derive child stream roots."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Seed:
    """Stream identity: (root, replicate_index) selects one fixed stream."""

    root: int
    replicate_index: int = 0

    def __post_init__(self):
        for name in ("root", "replicate_index"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or not 0 <= value <= _MASK64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def __str__(self):
        return f"{self.root}:{self.replicate_index}"


def split(seed: Seed, replicate: int) -> Seed:
    """Child seed for one replicate.

    A pure function of (seed, replicate): calling it twice returns the same
    child, and distinct replicate values give streams that are independent
    for all practical purposes (distinct Philox keys).
    """
    child_root = splitmix64(seed.root ^ splitmix64(seed.replicate_index))
    return Seed(child_root, int(replicate) & _MASK64)


class _PhiloxStream:
    """Common machinery: a seeded counter-based uniform source."""

    def __init__(self, seed: Seed):
        self.seed = seed
        self.position = 0
        key = np.array([seed.root, seed.replicate_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))


class GaussianStream(_PhiloxStream):
    """Forward-only stream of independent standard complex Gaussians.

    Draw k (1-based) returns X(k) whose real and imaginary parts are
    independent real Gaussians with mean 0 and variance 1/2. Each complex
    draw consumes exactly two uniforms, so batching draws differently never
    changes the emitted values; re-creating the stream from its Seed
    replays it exactly.
    """

    def draw(self, n: int) -> np.ndarray:
        """Return the next n values X(position+1 .. position+n)."""
        if n <= 0:
            return np.empty(0, dtype=np.complex128)
        u = self._gen.random(2 * n)
        radius = np.sqrt(-np.log1p(-u[0::2]))
        angle = _TWO_PI * u[1::2]
        self.position += n
        return radius * (np.cos(angle) + 1j * np.sin(angle))

    def next_complex_gaussian(self) -> complex:
        return complex(self.draw(1)[0])

    def draw_real(self, n: int) -> np.ndarray:
        """Return n independent real N(0,1) values (two per complex draw)."""
        m = (n + 1) // 2
        z = self.draw(m) * math.sqrt(2.0)
        out = np.empty(2 * m)
        out[0::2] = z.real
        out[1::2] = z.imag
        return out[:n]


class UnitCircleStream(_PhiloxStream):
    """Forward-only stream of independent uniform unit-modulus values."""

    def draw(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=np.complex128)
        angle = _TWO_PI * self._gen.random(n)
        self.position += n
        return np.cos(angle) + 1j * np.sin(angle)


def next_complex_gaussian(stream: GaussianStream) -> complex:
    """Return X(position+1) from the stream and advance it by one draw."""
    return stream.next_complex_gaussian()
