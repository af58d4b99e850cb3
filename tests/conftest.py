import math

import numpy as np

from hmchaos import chaos


class FixedStream:
    """Stand-in stream that replays a preset sequence of complex values."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.complex128)
        self.position = 0

    def draw(self, n):
        if self.position + n > self._values.size:
            raise AssertionError("FixedStream exhausted")
        out = self._values[self.position : self.position + n]
        self.position += n
        return out.copy()

    def draw_real(self, n):
        # the next n values' real parts, one preset value per real draw
        return self.draw(n).real

    def fill_uniforms(self, pairs):
        # the uniforms that rng.draw_blocks maps back to the next values, to a
        # few ulps: |x|^2 = -log1p(-u1) and arg x = 2 pi u2
        x = self.draw(pairs.size // 2).reshape(pairs.shape[:-1])
        pairs[..., 0] = -np.expm1(-np.abs(x) ** 2)
        pairs[..., 1] = np.angle(x) / (2.0 * math.pi) % 1.0


def circle_average_sample(K, r, stream, D=None):
    """One sample of (1/2pi) int |F_K(r e^{i theta})|^2 dtheta, from `stream`,
    truncated at degree D (by default circle_average_moment's)."""
    D = chaos.truncation_degree(r) if D is None else D
    return chaos._circle_averages([stream], K, r, D)[0]


def ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Two-sample Kolmogorov-Smirnov critical value at significance alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))
