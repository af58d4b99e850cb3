"""Seeded, splittable streams of standard complex and real Gaussians and of
unit values: one Stream type, with one method for each kind of draw.

A stream is a pure function of its Seed: draw k returns the same value no
matter how draws are batched, which thread created the stream, or how many
workers a Monte Carlo run uses. The bit source is counter-based (Philox;
Salmon et al., SC 2011) keyed by (root, replicate_index): the key is handed to Philox as it is,
through a one-method seed sequence, so creating a stream reads no OS
entropy and builds no SeedSequence. All arithmetic is 64-bit floating
point.

Real draws (draw_real) are numpy's ziggurat standard normals on the
stream's own Philox (Marsaglia and Tsang): one 64-bit word per value
except in the rare rejection steps, and no transcendental function on
the common path. Generator.standard_normal draws value after value, so
split calls give the bits of one call.

Unit values e^{2 pi i u} take one uniform each and no libm call (numpy's
sin and cos run scalar libm, about 20 ns a value): unit_circle takes the
nearest of UNIT_TABLE points e^{2 pi i j / UNIT_TABLE} and rotates it by
a Taylor polynomial of e^{ix}, |x| <= pi / UNIT_TABLE, with real + - and
x only, so numpy's SIMD dispatch cannot change the bits. It is the one
polar transform: a complex draw X = sqrt(-log1p(-u1)) e^{2 pi i u2} (polar
Box-Muller, no rejection loop) is unit_circle of u2 times the radius, whose
np.log1p is the one transcendental function on the complex path. No draw
calls numpy's sin or cos.

draw_blocks and draw_unit_blocks are the one route from uniforms to
draws: each of the next len(out) streams writes its uniforms into its row
(Stream.fill_uniforms), then one unit_circle pass turns the block into
draws in tiles of at most UNIT_TILE values. Every tile runs the same
ufuncs on the same inputs, so the values depend neither on UNIT_TILE nor
on the block's shape: row i has the bits of stream i's own draw, and
Stream.draw and draw_unit are the one-row case. The bits depend on the
order of the calls only. The raw uniforms feed these two only: no other
module reads Stream.fill_uniforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

_MASK64 = (1 << 64) - 1
UNIT_TABLE = 1024  # points of the unit-value table: 16 KiB, and |x| <= pi/1024
UNIT_TILE = 2**13  # unit values per tile: six 64 KiB temporaries, seven with radii


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
    child = object.__new__(Seed)  # both words are 64-bit already: skip __post_init__
    child.__dict__.update(root=splitmix64(seed.root ^ splitmix64(seed.replicate_index)),
                          replicate_index=int(replicate) & _MASK64)
    return child


@functools.cache
def _key_sequence():
    """The seed-sequence type that hands Philox a key as it is.

    Philox takes its key from generate_state(2, uint64) of the seed
    sequence it is given, so no SeedSequence is built and no OS entropy is
    read. numpy accepts only ISeedSequence subclasses there; subclassing
    loads numpy.random, so the class is built on first use and importing
    hmchaos does not load it.
    """

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

        def __reduce__(self):  # pickles by the cached class, not the local name
            return _philox_key, (self.key,)

    return KeySequence


def _philox_key(key):
    """The seed sequence that gives Philox the uint64 pair `key` as its key."""
    return _key_sequence()(key)


def _philox(seed: Seed):
    """The uniform source of seed's streams: a Generator on Philox keyed by
    (root, replicate_index)."""
    key = np.array([seed.root, seed.replicate_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key(key)))


def _unit_table(size: int):
    """cos and sin of 2 pi j / size for j = 0..size (the last point is j = 0
    again, for u that rounds up to 1). math.cos and math.sin run on the
    first octant only, where the rounded pi costs the least; reflection
    about pi/4 and the quarter turns are exact."""
    eighth = size // 8
    angles = [math.pi * r / (4 * eighth) for r in range(eighth + 1)]
    c, s = np.array([math.cos(a) for a in angles]), np.array([math.sin(a) for a in angles])
    qc, qs = np.concatenate([c, s[-2:0:-1]]), np.concatenate([s, c[-2:0:-1]])
    return (np.concatenate([qc, -qs, -qc, qs, [1.0]]),
            np.concatenate([qs, qc, -qs, -qc, [0.0]]))


_COS, _SIN = _unit_table(UNIT_TABLE)
_TURN = 2.0 * math.pi / UNIT_TABLE  # one table step, in radians


def unit_circle(uniforms: np.ndarray, out: np.ndarray, radii: np.ndarray | None = None) -> None:
    """Write e^{2 pi i u} for the (rows, m) float64 uniforms into the complex
    (rows, m) `out`, times sqrt(-log1p(-v)) for the (rows, m) float64 `radii` v.

    u * UNIT_TABLE = j + r with j its nearest integer and |r| <= 1/2, so the
    value is table point j times e^{ix}, x = r * 2 pi / UNIT_TABLE. With
    c = cos x - 1 and s = sin x from their Taylor polynomials through x^4 and
    x^5 (next terms below 2e-18), the parts are cos_j + (cos_j c - sin_j s)
    and sin_j + (sin_j c + cos_j s): within 3e-16 of the exact value. Every
    step is an exactly specified float operation (no libm call, no fused
    multiply-add), so the bits do not depend on numpy's SIMD dispatch. The
    block runs in tiles of at most UNIT_TILE values (whole rows when
    m <= UNIT_TILE, else pieces of one row) through tile-sized temporaries.
    Each tile reads its uniforms and radii before it writes `out`, which may
    share memory with them; each part is then the radius times that part.
    """
    rows, m = uniforms.shape
    if not rows * m:
        return
    width = min(m, UNIT_TILE)
    step = max(1, UNIT_TILE // m)  # rows per tile
    shape = (min(rows, step), width)
    x, x2, c, s, t = (np.empty(shape) for _ in range(5))
    j = np.empty(shape, dtype=np.intp)
    r = None if radii is None else np.empty(shape)
    for i in range(0, rows, step):
        for k in range(0, m, width):
            u, o = uniforms[i : i + step, k : k + width], out[i : i + step, k : k + width]
            tile = (slice(len(u)), slice(u.shape[1]))
            X, X2, C, S, T, J = x[tile], x2[tile], c[tile], s[tile], t[tile], j[tile]
            if r is not None:
                R = np.negative(radii[i : i + step, k : k + width], out=r[tile])
                np.sqrt(np.negative(np.log1p(R, out=R), out=R), out=R)
            np.multiply(u, UNIT_TABLE, out=X)  # exact, as is every step to x
            np.rint(X, out=T)
            np.subtract(X, T, out=X)
            J[...] = T
            np.multiply(X, _TURN, out=X)
            np.multiply(X, X, out=X2)
            np.multiply(X2, 1.0 / 24.0, out=C)  # c = x^2 (x^2/24 - 1/2)
            np.subtract(C, 0.5, out=C)
            np.multiply(C, X2, out=C)
            np.multiply(X2, 1.0 / 120.0, out=S)  # s = x + x x^2 (x^2/120 - 1/6)
            np.subtract(S, 1.0 / 6.0, out=S)
            np.multiply(S, X2, out=S)
            np.multiply(S, X, out=S)
            np.add(S, X, out=S)
            cos, sin = np.take(_COS, J, out=X), np.take(_SIN, J, out=X2)
            np.multiply(cos, C, out=T)
            np.multiply(sin, S, out=o.real)
            np.subtract(T, o.real, out=T)
            np.multiply(sin, C, out=C)
            np.multiply(cos, S, out=S)
            np.add(C, S, out=C)
            np.add(cos, T, out=o.real)
            np.add(sin, C, out=o.imag)
            if r is not None:
                np.multiply(o.real, R, out=o.real)
                np.multiply(o.imag, R, out=o.imag)


def _fill_block(streams, block: np.ndarray) -> int:
    """Have each of the next len(block) streams write its uniforms into its
    row of `block`, in order, and return how many did (fewer once `streams`
    runs out). No stream past the last row is taken from the iterator."""
    count = 0
    for count, stream in enumerate(islice(streams, len(block)), 1):
        stream.fill_uniforms(block[count - 1])
    return count


def draw_blocks(streams, out: np.ndarray):
    """Yield out[:count] with row i the draw(m) of the block's stream i, for
    the next len(out) streams at a time, into the reused complex (rows, m)
    `out`. Each pair (u1, u2) is written in its value's place, so each row
    of `out` must be contiguous (a column slice is fine)."""
    pairs = out[..., None].view(np.float64)  # (rows, m, 2)
    streams = iter(streams)
    while count := _fill_block(streams, pairs):
        unit_circle(pairs[:count, :, 1], out[:count], radii=pairs[:count, :, 0])
        yield out[:count]


def draw_unit_blocks(streams, out: np.ndarray):
    """draw_blocks for draw_unit(m): the uniforms go to their own buffer."""
    uniforms = np.empty(out.shape)
    streams = iter(streams)
    while count := _fill_block(streams, uniforms):
        unit_circle(uniforms[:count], out[:count])
        yield out[:count]


class Stream:
    """Forward-only stream of independent draws: standard complex Gaussians
    (draw), uniform unit values (draw_unit) and real normals (draw_real).

    A complex Gaussian X has independent real and imaginary parts of mean 0
    and variance 1/2 and consumes two uniforms; a unit value consumes one;
    real draws read the generator value after value. So batching draws
    differently never changes the emitted values, and re-creating the stream
    from its Seed replays it exactly.
    """

    def __init__(self, seed: Seed):
        self._gen = _philox(seed)

    def fill_uniforms(self, out: np.ndarray) -> None:
        """Write the next uniforms into `out`, a C-contiguous float64 array:
        pairs (..., 2) for draw_blocks, single uniforms for draw_unit_blocks."""
        self._gen.random(out=out)

    def draw(self, n: int) -> np.ndarray:
        """Return the next n standard complex Gaussians."""
        out = np.empty((1, max(n, 0)), dtype=np.complex128)
        return next(draw_blocks([self], out))[0]

    def draw_unit(self, n: int) -> np.ndarray:
        """Return the next n unit values e^{2 pi i u}."""
        out = np.empty((1, max(n, 0)), dtype=np.complex128)
        return next(draw_unit_blocks([self], out))[0]

    def draw_real(self, n: int) -> np.ndarray:
        """Return the next n independent real N(0,1) values (ziggurat)."""
        return self._gen.standard_normal(n)
