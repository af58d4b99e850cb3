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
the same bits. The exponential runs a (rows, D+1) stack of series in one
pass: the loop advances every row per step and the FFT joins run along
the rows, and each row gets the bits of a 1-D call. Products switch from
schoolbook to FFT at FFT_CROSSOVER.

Also here: the Parseval power sum sum_n |c_n|^2 r^{2n} (the circle average
of |f(r e^{i theta})|^2 for a polynomial), the proportion of S_N whose
largest cycle is at most m (a coefficient of exp(sum_{k<=m} z^k/k)), and
the r^{-N} exp(sum_{k<=m} r^k/k) majorant for that coefficient.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import PreconditionError

FFT_CROSSOVER = 64        # schoolbook convolution below this length
EXP_LEAF = 384            # relaxed exp: blocks this short run the recurrence (measured)
FFT_BLOCK = 2**13         # transform values per row block of an exp join (peak memory)


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


def _fft_product(a: np.ndarray, b: np.ndarray, full: int) -> np.ndarray:
    """Coefficients 0..full-1 of the product of a and b along the last axis."""
    size = 1 << max(full - 1, 1).bit_length()
    spectrum = np.fft.fft(a, size)
    spectrum *= np.fft.fft(b, size)
    return np.fft.ifft(spectrum, out=spectrum)[..., :full]


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
        prod = _fft_product(a, b, full)
    out = np.zeros(degree + 1, dtype=np.complex128)
    keep = min(full, degree + 1)
    out[:keep] = prod[:keep]
    return out


def _weights(s: np.ndarray, degree: int) -> np.ndarray:
    """k*s_k for k = 0..degree, row by row; dtype follows the input."""
    weighted = np.zeros((s.shape[0], degree + 1), dtype=s.dtype)
    keep = min(s.shape[1], degree + 1)
    np.multiply(s[:, :keep], np.arange(keep), out=weighted[:, :keep])
    return weighted


def _exp_leaf(w: np.ndarray, rev: np.ndarray, lo: int, hi: int) -> None:
    """Finish E_n for lo <= n < hi by the recurrence, all rows together.

    rev is mirrored: rev[:, size-1-n] holds E_n, or its carry until n is
    finished, so E_{n-1}, ..., E_lo is one contiguous slice of every row.
    One row runs on 1-D views with np.dot. More rows run on transposed
    views with one np.vecdot along axis 0 per step: vecdot conjugates its
    first argument, so with conjugated weights each column's BLAS sum has
    np.dot's bits.
    """
    size = rev.shape[1]
    if rev.shape[0] == 1:
        w, rev, dot = w[0], rev[0], np.dot
    else:
        w, rev, dot = w[:, : hi - lo].conj().T, rev.T, partial(np.vecdot, axis=0)
    for n in range(max(lo, 1), hi):
        j = size - 1 - n
        rev[j] = (rev[j] + dot(w[: n - lo], rev[j + 1 : size - lo])) / n


def _exp_join(weighted: np.ndarray, rev: np.ndarray, lo: int, mid: int, hi: int) -> None:
    """Add sum_{lo<=j<mid} E_j * weighted[n-j] to the carry of mid <= n < hi.

    One FFT product per row block of at most FFT_BLOCK transform values.
    """
    size = rev.shape[1]
    full = (mid - lo) + (hi - lo) - 1
    step = max(1, FFT_BLOCK >> max(full - 1, 1).bit_length())
    for first in range(0, rev.shape[0], step):
        rows = slice(first, first + step)
        done = rev[rows, size - mid : size - lo][:, ::-1]   # E_lo..E_{mid-1}
        prod = _fft_product(done, weighted[rows, : hi - lo], full)
        part = prod[:, hi - lo - 1 : mid - lo - 1 : -1]     # n = hi-1 .. mid
        rev[rows, size - hi : size - mid] += part if np.iscomplexobj(rev) else part.real


def _exp_relaxed(weighted: np.ndarray, rev: np.ndarray, lo: int, hi: int,
                 leaf: int) -> None:
    """Finish E_n for lo <= n < hi in place, blocks of at most `leaf` by the
    recurrence.

    On entry the carry of each of those n holds sum_{j<lo} E_j * weighted[n-j].
    """
    if hi - lo <= leaf:
        _exp_leaf(weighted[:, 1:], rev, lo, hi)
        return
    mid = (lo + hi) // 2
    _exp_relaxed(weighted, rev, lo, mid, leaf)
    _exp_join(weighted, rev, lo, mid, hi)
    _exp_relaxed(weighted, rev, mid, hi, leaf)


def exp_array(s: np.ndarray, degree: int, engine: str = "auto") -> np.ndarray:
    """exp of coefficient vectors with zero constant term, to `degree`.

    s is one vector or a (rows, D+1) stack; each row is exponentiated on
    its own, with the same bits as a 1-D call on that row, whatever the
    stack. engine "auto" is the relaxed engine; "recurrence" is the
    quadratic oracle, the same leaf run over the whole range. Both keep a
    real input real (integers become float64). Below degree EXP_LEAF they
    return the same bits; above it they agree to rounding (about 1e-15 on
    the chaos inputs X(k)/sqrt(k) through degree 16384).
    """
    s = np.asarray(s)
    if s.dtype.kind not in "fc":  # integer input would truncate every E_n
        s = s.astype(float)
    rows = np.atleast_2d(s)
    if rows.shape[1] and rows[:, 0].any():
        raise PreconditionError("exp_series requires a zero constant term")
    if engine not in ("auto", "recurrence"):
        raise ValueError(f"unknown exp engine {engine!r}")
    weighted = _weights(rows, degree)
    rev = np.zeros_like(weighted)
    rev[:, -1] = 1.0
    leaf = degree + 1 if engine == "recurrence" else EXP_LEAF
    _exp_relaxed(weighted, rev, 0, degree + 1, leaf)
    out = weighted  # the weights are spent; their buffer takes the result
    np.copyto(out, rev[:, ::-1])
    return out[0] if s.ndim == 1 else out


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
    return float(exp_array(s, total, "recurrence")[total])


def rankin_bound(total: int, max_part: int, r: float) -> float:
    """r^{-total} exp(sum_{k<=max_part} r^k/k).

    An upper bound for smooth_partition_weight(total, max_part) for every
    r > 0, because the generating function has nonnegative coefficients.
    """
    if total < 1 or max_part < 1 or r <= 0:
        raise PreconditionError("rankin_bound needs total >= 1, max_part >= 1, r > 0")
    k = np.arange(1, max_part + 1, dtype=float)
    return float(r ** (-total) * math.exp(float(np.sum(r ** k / k))))
