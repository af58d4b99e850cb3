"""Truncated complex power series arithmetic.

A series is the coefficient vector (c_0, ..., c_D); every operation agrees
with the formal, untruncated operation on coefficients 0..D. exp_array
exponentiates a (rows, D+1) stack, each row with the bits of a 1-D call:

* below degree EXP_LEAF by the recurrence n*E_n = sum_{k=1..n} k*s_k*E_{n-k},
  all rows per step; over the whole range it is the quadratic oracle.
* at or above it on the circle |z| = r = e^{-CIRCLE_TAIL/M}: one FFT of
  s_k r^k gives S at M points, one np.exp, and one inverse FFT times r^{-n}
  gives E_n plus the aliasing sum_{m>=1} E'_{n+mM} r^{mM}, E' = exp of the
  input truncated at D. The error model is aliasing e^{-CIRCLE_TAIL}|E'|
  plus rounding eps r^{-D} RMS|exp S| (Bornemann, "Accuracy and stability
  of computing high-order derivatives of analytic functions by Cauchy
  integrals", FoCM 2011). M is the least power of two meeting EXP_TOLERANCE
  at the chaos input's E|exp S|^2 = (1 - r^2)^{-1}; each row then checks
  its own RMS and its coefficients in [M/4, M/2). A row over EXP_TOLERANCE
  (1-3% of chaos rows at M/N = 8, up to 14% at degree 65536) is redone by
  the recurrence below RECURRENCE_REDO, and above it on 2M points, then
  on 4M (about 32 D points, past which a doubling cuts r^{-D} by less than
  e^{1/2} while the RMS grows by sqrt 2). A row that no circle meets, far
  from the chaos input, is redone by the recurrence, or refused past
  RECURRENCE_BUDGET: it is never returned.

Also here: the Parseval power sum sum_n |c_n|^2 r^{2n} (the circle average
of |f(r e^{i theta})|^2 for a polynomial), the proportion of S_N whose
largest cycle is at most m (a coefficient of exp(sum_{k<=m} z^k/k)), and
the r^{-N} exp(sum_{k<=m} r^k/k) majorant for that coefficient.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .errors import BudgetError, PreconditionError

# exp: the recurrence below this degree, the circle at or above it. The
# least degree at which the circle measured faster (BENCH_6.json); it is
# slower again from about 1500 to 2100, where the size rule doubles M.
EXP_LEAF = 1152
EXP_TOLERANCE = 1e-12     # largest estimated error a circle row may return with
CIRCLE_TAIL = 30.0        # circle radius r = e^{-CIRCLE_TAIL/M}: aliasing about e^{-30}
RECURRENCE_BUDGET = 2**31  # degree*(degree+1)/2 multiply-adds: 1.5 s at degree 65535
# A circle row over EXP_TOLERANCE is redone by the recurrence up to this many
# multiply-adds (degree 16383), which needs no wider buffer; past it on wider
# circles, which are faster there but take 2M or 4M values: a 4M retry at
# degree 8192 raised the chaos-mc peak RSS by 3.8 MiB (2-core Xeon).
RECURRENCE_REDO = 2**27
# Longer circles run as four-step transforms of (M/CIRCLE_PANEL, CIRCLE_PANEL)
# views: one 2^16-point FFT plan alone added 2.5 MiB of peak RSS.
CIRCLE_PANEL = 2**13
# Panel rows between twiddles taken afresh from np.exp; the rows in between
# multiply by w^m, and that running product gains about an ulp per row.
TWIDDLE_RUN = 16
# Longest sum the recurrence hands to one np.dot/np.vecdot call; longer sums
# add such blocks in order. OpenBLAS splits a dot of more than 10000 terms
# across its threads, which makes the rounding depend on the thread count.
DOT_BLOCK = 8192
# Cap on the values of one (rows, width) block of draws, or of one circle,
# checked before it is allocated: 256 MiB as complex128.
FIELD_BUDGET = 2**24
_EPS = float(np.finfo(float).eps)


def check_recurrence_budget(degree: int) -> None:
    """Refuse a recurrence whose degree*(degree+1)/2 exceeds RECURRENCE_BUDGET."""
    if degree * (degree + 1) // 2 > RECURRENCE_BUDGET:
        raise BudgetError(f"the recurrence to degree {degree} exceeds the budget of "
                          f"{RECURRENCE_BUDGET} multiply-adds")


def _exp_recurrence(rows: np.ndarray, degree: int) -> np.ndarray:
    """exp of each row to `degree` by the recurrence, all rows together.

    E_n lives mirrored in rev[:, degree-n], so E_{n-1}, ..., E_0 is one
    contiguous slice of every row. One row runs on 1-D views with np.dot.
    More rows run on transposed views with one np.vecdot along axis 0 per
    step: vecdot conjugates its first argument, so with conjugated weights
    each column's BLAS sum has np.dot's bits. A sum of more than DOT_BLOCK
    terms adds the dots of its DOT_BLOCK-term blocks in order, so no BLAS
    call is long enough to be split across threads.
    """
    check_recurrence_budget(degree)
    weights = np.zeros((rows.shape[0], degree + 1), dtype=rows.dtype)  # k*s_k
    keep = min(rows.shape[1], degree + 1)
    np.multiply(rows[:, :keep], np.arange(keep), out=weights[:, :keep])
    rev = np.zeros_like(weights)
    rev[:, -1] = 1.0
    if rev.shape[0] == 1:
        w, e, dot = weights[0, 1:], rev[0], np.dot
    else:
        np.conjugate(weights, out=weights)
        w, e, dot = weights[:, 1:].T, rev.T, partial(np.vecdot, axis=0)
    for n in range(1, min(degree, DOT_BLOCK) + 1):
        j = degree - n
        e[j] = (e[j] + dot(w[:n], e[j + 1 :])) / n
    for n in range(DOT_BLOCK + 1, degree + 1):
        j = degree - n
        head, tail, total = w[:n], e[j + 1 :], e[j]
        for a in range(0, n, DOT_BLOCK):
            total = total + dot(head[a : a + DOT_BLOCK], tail[a : a + DOT_BLOCK])
        e[j] = total / n
    np.copyto(weights, rev[:, ::-1])  # the weights are spent; their buffer takes E
    return weights


def _error_model(size: int, degree: int, rms: float, tail: float) -> float:
    """eps r^{-degree} rms + e^{-CIRCLE_TAIL} tail on the circle of `size` points."""
    return (_EPS * math.exp(CIRCLE_TAIL * degree / size) * rms
            + math.exp(-CIRCLE_TAIL) * tail)


def _circle_size(degree: int) -> int:
    """The least power of two M >= 4(degree+1) whose error model meets
    EXP_TOLERANCE at RMS (1 - r^2)^{-1/2} and |E'| = 1, within FIELD_BUDGET."""
    def predicted(size):
        return _error_model(size, degree, (-math.expm1(-2 * CIRCLE_TAIL / size)) ** -0.5, 1.0)

    size = 1 << (4 * degree + 3).bit_length()
    while size <= FIELD_BUDGET and not predicted(size) <= EXP_TOLERANCE:
        size *= 2
    if size > FIELD_BUDGET:
        raise BudgetError(f"exp_array to degree {degree} needs a circle of more than "
                          f"FIELD_BUDGET = {FIELD_BUDGET} points")
    return size


@lru_cache(maxsize=3)
def _circle_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """r^{-k} for k < size/4, and the twiddles e^{-2 pi i m/size} of a panel
    (read-only: every caller shares them)."""
    up = np.exp(np.arange(size // 4) * (CIRCLE_TAIL / size))
    twiddles = np.exp(np.arange(min(size, CIRCLE_PANEL)) * (-2j * np.pi / size))
    up.flags.writeable = twiddles.flags.writeable = False
    return up, twiddles


def _four_step(buf: np.ndarray, inverse: bool = False) -> None:
    """np.fft.fft (or ifft) of buf in place as the four-step transform of its
    (P, L) view, L = min(buf.size, CIRCLE_PANEL): P-point FFTs down the
    columns, twiddles w^{pm}, L-point FFTs along the rows. Spectrum index
    p + Pq is left at (p, q), where the inverse (the steps backwards)
    expects it."""
    size = buf.size
    twiddles = _circle_tables(size)[1]
    grid = buf.reshape(-1, twiddles.size)
    transform = np.fft.ifft if inverse else np.fft.fft
    first, last = (1, 0) if inverse else (0, 1)
    if grid.shape[first] > 1:
        transform(grid, axis=first, out=grid)
    step = twiddles.conj() if inverse else twiddles
    power = step.copy()
    for p in range(1, grid.shape[0]):  # row p times w^{pm}, or w^{-pm}
        if p % TWIDDLE_RUN == 0:  # afresh, so no running product spans more rows
            power = np.exp(np.arange(twiddles.size) * p * ((2j if inverse else -2j) * np.pi / size))
        grid[p] *= power
        power *= step
    if grid.shape[last] > 1:
        transform(grid, axis=last, out=grid)


def _circle_row(row: np.ndarray, degree: int, buf: np.ndarray):
    """E_0..E_degree of exp(row) on a circle of buf.size points (a view of
    buf), and the row's error estimate."""
    size = buf.size
    up = _circle_tables(size)[0]
    keep = min(row.size, degree + 1)
    np.divide(row[:keep], up[:keep], out=buf[:keep])
    buf[keep:] = 0.0
    _four_step(buf)
    np.exp(buf, out=buf)
    parts = buf.view(float)  # einsum: threaded zdotc took 7 ms at 2^16 (2-core Xeon)
    rms = math.sqrt(np.einsum("i,i", parts, parts) / size)
    _four_step(buf, inverse=True)
    # |E'_j| for j in [M/4, M/2): r^{-j} = r^{-M/4} r^{-(j - M/4)}
    tail = np.abs(buf[size // 4 : size // 2])
    tail *= up
    tail = float(np.max(tail)) * math.exp(CIRCLE_TAIL / 4)
    coeffs = buf[: degree + 1]
    coeffs *= up[: degree + 1]
    coeffs[0] = 1.0  # exp(s_0) with s_0 = 0
    return coeffs, _error_model(size, degree, rms, tail)


def _exp_circle(rows: np.ndarray, degree: int) -> np.ndarray:
    """exp of each row on a circle of M points. A row whose estimate fails
    is redone by the recurrence up to RECURRENCE_REDO multiply-adds; past
    it on circles of 2M, then 4M points (within FIELD_BUDGET), and by the
    recurrence if neither meets EXP_TOLERANCE.

    One buffer serves every circle: at a row's first retry it is released
    before a wider one is touched, and later rows use a prefix of it.
    """
    size = _circle_size(degree)
    widths = [size]
    if degree * (degree + 1) // 2 > RECURRENCE_REDO:
        widths += [width for width in (2 * size, 4 * size) if width <= FIELD_BUDGET]
    buf = np.empty(size, dtype=np.complex128)
    out = np.empty((rows.shape[0], degree + 1), dtype=rows.dtype)
    for i, row in enumerate(rows):
        for width in widths:
            if width > buf.size:
                buf = coeffs = None  # coeffs is a view of the narrower buffer
                buf = np.empty(width, dtype=np.complex128)
            coeffs, err = _circle_row(row, degree, buf[:width])
            if err <= EXP_TOLERANCE:
                break
        else:
            coeffs = _exp_recurrence(row[None], degree)[0]
        out[i] = coeffs if np.iscomplexobj(out) else coeffs.real
    return out


def exp_width(degree: int) -> int:
    """Values one row occupies in exp_array(s, degree): degree + 1 on the
    recurrence, the circle's M on the circle (refused above FIELD_BUDGET)."""
    return degree + 1 if degree < EXP_LEAF else _circle_size(degree)


def exp_array(s: np.ndarray, degree: int, engine: str = "auto") -> np.ndarray:
    """exp of coefficient vectors with zero constant term, to `degree`.

    s is one vector or a (rows, D+1) stack; each row is exponentiated on
    its own, with the same bits as a 1-D call on that row, whatever the
    stack. engine "recurrence" is the quadratic oracle; "auto" is the
    recurrence below degree EXP_LEAF, with the same bits, and the circle at
    or above it, within an estimated EXP_TOLERANCE of the exact value per
    coefficient (1e-15 to 1e-13 from the oracle on the chaos inputs
    X(k)/sqrt(k) through degree 16384). Both keep a real input real
    (integers become float64).
    """
    if not degree >= 0:
        raise PreconditionError(f"exp_array requires degree >= 0, got {degree}")
    s = np.asarray(s)
    if s.dtype.kind not in "fc":  # integer input would truncate every E_n
        s = s.astype(float)
    rows = np.atleast_2d(s)
    if rows.shape[1] and rows[:, 0].any():
        raise PreconditionError("exp_array requires a zero constant term")
    if engine not in ("auto", "recurrence"):
        raise ValueError(f"unknown exp engine {engine!r}")
    if engine == "auto" and degree >= EXP_LEAF:
        out = _exp_circle(rows, degree)
    else:
        out = _exp_recurrence(rows, degree)
    return out[0] if s.ndim == 1 else out


def parseval_power_sum(coeffs, r: float) -> float:
    """sum_n |c_n|^2 r^{2n} = (1/2pi) int |f(r e^{i theta})|^2 dtheta."""
    if not 0.0 < r <= 1.0:
        raise PreconditionError("parseval_power_sum requires 0 < r <= 1")
    c = np.asarray(coeffs)
    weights = np.abs(c) ** 2 * r ** (2.0 * np.arange(c.size))
    return float(np.sum(weights))


def smooth_partition_weight(total: int, largest: int) -> float:
    """Weight of partitions of `total` with all parts <= largest.

    Equals the coefficient of z^total in exp(sum_{k<=largest} z^k/k),
    i.e. the proportion of permutations in S_total whose longest cycle has
    length at most largest. All summands are nonnegative, so the float
    recurrence loses no accuracy to cancellation.
    """
    if total < 0 or largest < 1:
        raise PreconditionError("smooth_partition_weight needs total >= 0, largest >= 1")
    if total == 0:
        return 1.0
    top = min(largest, total)
    s = np.zeros(top + 1)
    s[1:] = 1.0 / np.arange(1, top + 1)
    return float(exp_array(s, total, "recurrence")[total])


def rankin_bound(total: int, largest: int, r: float) -> float:
    """r^{-total} exp(sum_{k<=largest} r^k/k).

    An upper bound for smooth_partition_weight(total, largest) for every
    r > 0, because the generating function has nonnegative coefficients.
    """
    if total < 1 or largest < 1 or not 0 < r < math.inf:
        raise PreconditionError("rankin_bound needs total >= 1, largest >= 1, r > 0")
    k = np.arange(1, largest + 1, dtype=float)
    return float(r ** (-total) * math.exp(float(np.sum(r ** k / k))))
