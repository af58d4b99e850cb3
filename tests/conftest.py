import math

import numpy as np


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

    def draw_re(self, n):
        return self.draw(n).real


def ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Two-sample Kolmogorov-Smirnov critical value at significance alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))
