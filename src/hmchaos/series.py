"""Truncated complex power series arithmetic.

A series is the coefficient vector (c_0, ..., c_D); every operation agrees
with the formal, untruncated operation on coefficients 0..D. The
exponential solves the derivative recurrence
n*E_n = sum_{k=1..n} k*s_k*E_{n-k} in two ways: directly at quadratic cost
(the oracle), and as a relaxed (online) product that splits [lo, hi) in
half, finishes [lo, mid), adds its contribution to every coefficient of
[mid, hi) with one FFT product, and then finishes [mid, hi) (van der
Hoeven, "Relax, but don't be too lazy", 2002). Blocks of at most EXP_LEAF
coefficients run the recurrence loop, so below that degree both ways give
the same bits. Products switch from schoolbook to FFT at FFT_CROSSOVER.

Also here: the Parseval power sum sum_n |c_n|^2 r^{2n} (the circle average
of |f(r e^{i theta})|^2 for a polynomial), the proportion of S_N whose
largest cycle is at most m (a coefficient of exp(sum_{k<=m} z^k/k)), and
the r^{-N} exp(sum_{k<=m} r^k/k) majorant for that coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

FFT_CROSSOVER = 64        # schoolbook convolution below this length
EXP_LEAF = 384            # relaxed exp: blocks this short run the recurrence (measured)


class ComplexSeries:
    """Coefficients c_0..c_D of a truncated power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.size == 0:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = c

    @property
    def degree_bound(self) -> int:
        return self.coeffs.size - 1

    def coefficient(self, n: int) -> complex:
        return complex(self.coeffs[n])

    def __repr__(self):
        return f"ComplexSeries(degree_bound={self.degree_bound})"


def _conv(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0..degree of the product of coefficient vectors a, b."""
    a = a[: degree + 1]
    b = b[: degree + 1]
    if a.size == 0 or b.size == 0:
        return np.zeros(degree + 1, dtype=np.complex128)
    full = a.size + b.size - 1
    if min(a.size, b.size) < FFT_CROSSOVER:
        prod = np.convolve(a, b)
    else:
        size = 1 << max(full - 1, 1).bit_length()
        prod = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:full]
    out = np.zeros(degree + 1, dtype=np.complex128)
    keep = min(full, degree + 1)
    out[:keep] = prod[:keep]
    return out


def _weights(s: np.ndarray, degree: int) -> np.ndarray:
    """k*s_k for k = 0..degree; dtype follows the input so real stays real."""
    weighted = np.zeros(degree + 1, dtype=s.dtype)
    keep = min(s.size, degree + 1)
    weighted[:keep] = s[:keep] * np.arange(keep)
    return weighted


def _exp_recurrence(s: np.ndarray, degree: int) -> np.ndarray:
    out = np.zeros(degree + 1, dtype=s.dtype)
    out[0] = 1.0
    weighted = _weights(s, degree)
    for n in range(1, degree + 1):
        out[n] = np.dot(weighted[1 : n + 1], out[n - 1 :: -1]) / n
    return out


def _exp_relaxed(weighted: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Finish E_n for lo <= n < hi in place.

    On entry out[n] holds sum_{j<lo} E_j * weighted[n-j] for those n.
    """
    if hi - lo <= EXP_LEAF:
        w, rev, size = weighted[1:], out[::-1], out.size
        for n in range(max(lo, 1), hi):
            # rev[size-n : size-lo] is E_{n-1}, ..., E_lo
            out[n] = (out[n] + np.dot(w[: n - lo], rev[size - n : size - lo])) / n
        return
    mid = (lo + hi) // 2
    _exp_relaxed(weighted, out, lo, mid)
    part = _conv(out[lo:mid], weighted, hi - lo - 1)[mid - lo :]
    out[mid:hi] += part if np.iscomplexobj(out) else part.real
    _exp_relaxed(weighted, out, mid, hi)


def exp_array(s: np.ndarray, degree: int, engine: str = "auto") -> np.ndarray:
    """exp of a coefficient vector with zero constant term, to `degree`.

    engine "auto" is the relaxed engine; "recurrence" is the quadratic
    oracle. Both keep a real input real. Below degree EXP_LEAF they return
    the same bits; above it they agree to rounding (about 1e-15 on the
    chaos inputs X(k)/sqrt(k) through degree 16384).
    """
    s = np.asarray(s)
    if s.size and s[0] != 0:
        raise PreconditionError("exp_series requires a zero constant term")
    if engine not in ("auto", "recurrence"):
        raise ValueError(f"unknown exp engine {engine!r}")
    if engine == "recurrence" or degree < EXP_LEAF:
        # a single leaf is the recurrence; skip the leaf loop's carry add
        return _exp_recurrence(s, degree)
    out = np.zeros(degree + 1, dtype=s.dtype)
    out[0] = 1.0
    _exp_relaxed(_weights(s, degree), out, 0, degree + 1)
    return out


def multiply(a: ComplexSeries, b: ComplexSeries, degree: int) -> ComplexSeries:
    """Truncated product: coefficient n of a*b for n <= degree."""
    return ComplexSeries(_conv(a.coeffs, b.coeffs, degree))


def exp_series(s: ComplexSeries, degree: int) -> ComplexSeries:
    """Formal exponential of s (which must have zero constant term)."""
    return ComplexSeries(exp_array(s.coeffs, degree))


def parseval_power_sum(f: ComplexSeries, r: float) -> float:
    """sum_n |c_n|^2 r^{2n} = (1/2pi) int |f(r e^{i theta})|^2 dtheta."""
    if not 0.0 < r <= 1.0:
        raise PreconditionError("parseval_power_sum requires 0 < r <= 1")
    c = f.coeffs
    weights = np.abs(c) ** 2 * r ** (2.0 * np.arange(c.size))
    return float(np.sum(weights))


def smooth_partition_weight(total: int, max_part: int) -> float:
    """Weight of partitions of `total` with all parts <= max_part.

    Equals the coefficient of z^total in exp(sum_{k<=max_part} z^k/k),
    i.e. the proportion of permutations in S_total whose longest cycle has
    length at most max_part. All summands are nonnegative, so the float
    recurrence loses no accuracy to cancellation.
    """
    if total < 0 or max_part < 1:
        raise PreconditionError("smooth_partition_weight needs total >= 0, max_part >= 1")
    if total == 0:
        return 1.0
    top = min(max_part, total)
    s = np.zeros(top + 1)
    s[1:] = 1.0 / np.arange(1, top + 1)
    return float(_exp_recurrence(s, total)[total])


def rankin_bound(total: int, max_part: int, r: float) -> float:
    """r^{-total} exp(sum_{k<=max_part} r^k/k).

    An upper bound for smooth_partition_weight(total, max_part) for every
    r > 0, because the generating function has nonnegative coefficients.
    """
    if total < 1 or max_part < 1 or r <= 0:
        raise PreconditionError("rankin_bound needs total >= 1, max_part >= 1, r > 0")
    k = np.arange(1, max_part + 1, dtype=float)
    return float(r ** (-total) * math.exp(float(np.sum(r ** k / k))))
