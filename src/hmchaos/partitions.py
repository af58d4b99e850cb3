"""Exact partition-level oracle for the chaos coefficients.

Each coefficient A(N) is the sum over partitions lambda of N of

    a(lambda) = prod_k (X(k)/sqrt(k))^{m_k} / m_k!,

with m_k the number of parts equal to k. Distinct partitions give
orthogonal a(lambda); the diagonal weight E[|a(lambda)|^2]
= prod_k 1/(m_k! k^{m_k}) is a rational number, and the weights of all
partitions of N sum to exactly 1 (a permutation cycle-type count). This
module keeps all mass identities in exact rational arithmetic; only
sampled values of a(lambda) are floating point.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from . import chaos, mc
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .rng import Seed

ENUMERATION_CAP = 40  # p(40) = 37338; this module is an oracle, not the sampler


def _checked(parts) -> tuple[int, ...]:
    """`parts` as a partition tuple: ints (not bools), each >= 1, nonincreasing."""
    parts = tuple(parts)
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in parts):
        raise PreconditionError("partition parts must be ints")
    if not all(map(operator.ge, parts, parts[1:])):
        raise PreconditionError("partition parts must be nonincreasing")
    if parts and parts[-1] < 1:
        raise PreconditionError("partition parts must be positive")
    return parts


def _multiplicities(parts: tuple[int, ...]):
    """Yield (k, m_k) for each distinct part k of a partition tuple, largest first."""
    i = 0
    while i < len(parts):  # equal parts are adjacent
        m = parts.count(parts[i])
        yield parts[i], m
        i += m


def _check_total(total: int) -> None:
    """The enumeration's range, 0 <= total <= ENUMERATION_CAP."""
    if total < 0:
        raise PreconditionError("a partition total must be >= 0")
    if total > ENUMERATION_CAP:
        raise BudgetError(f"partition enumeration is capped at total <= {ENUMERATION_CAP}")


def enumerate_partitions(total: int, max_part: int | None = None):
    """Yield each partition of `total` with parts <= max_part exactly once.

    Order is lexicographic on the part tuples: the largest part increases,
    and recursively so within each branch, e.g. for total=4: 1+1+1+1, 2+1+1,
    2+2, 3+1, 4.
    """
    _check_total(total)
    cap = total if max_part is None else min(operator.index(max_part), total)
    if total > 0 and cap < 1:  # no part fits
        return
    parts = [1] * total
    while True:
        yield tuple(parts)
        # grow the rightmost part (not the last) that stays <= the part
        # before it (or cap) by one unit from the parts after it, which
        # restart as ones: the lexicographic successor
        i, rest = len(parts) - 2, parts[-1] if parts else 0
        while i >= 0 and parts[i] == (parts[i - 1] if i else cap):
            rest += parts[i]
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        parts[i + 1:] = [1] * (rest - 1)


def partition_count(total: int) -> int:
    """p(total) by the pentagonal-number recurrence (enumeration cross-check)."""
    p = [1] + [0] * total
    for n in range(1, total + 1):
        acc = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            acc += sign * p[n - g1]
            if g2 <= n:
                acc += sign * p[n - g2]
            k += 1
        p[n] = acc
    return p[total]


def _a_values(x, parts: tuple[int, ...]) -> np.ndarray:
    """a(lambda) for each row of x, whose column k - 1 holds X(k)."""
    value = np.ones(len(x), dtype=np.complex128)
    for k, m in _multiplicities(parts):
        value *= (x[:, k - 1] / sqrt(k)) ** m / factorial(m)
    return value


def _x_row(X, ks) -> np.ndarray:
    """One row holding X(k) in column k - 1 for each k in ks (zero elsewhere)."""
    row = np.zeros((1, max(ks, default=0)), dtype=np.complex128)
    for k in ks:
        if k not in X:
            raise PreconditionError(f"X({k}) is required but missing")
        row[0, k - 1] = X[k]
    return row


def a_of_partition(parts, X) -> complex:
    """a(lambda) = prod_k (X(k)/sqrt(k))^{m_k} / m_k! for given X values."""
    parts = _checked(parts)
    return complex(_a_values(_x_row(X, parts), parts)[0])


def _centralizer_order(parts: tuple[int, ...]) -> int:
    """z_lambda = prod_k m_k! k^{m_k}, so a class of cycle type lambda in S_n
    has n!/z_lambda permutations: n! times the diagonal weight."""
    z = 1
    for k, m in _multiplicities(parts):
        z *= factorial(m) * k**m
    return z


def diagonal_second_moment(parts) -> Fraction:
    """E[|a(lambda)|^2] = 1/z_lambda = prod_k 1/(m_k! k^{m_k}), exactly."""
    return Fraction(1, _centralizer_order(_checked(parts)))


def exact_total_mass(total: int) -> Fraction:
    """sum over partitions of `total` of the diagonal weights; equals 1.

    Sums the integer class sizes total!/z_lambda of S_total and divides once
    by total!.
    """
    _check_total(total)
    order = factorial(total)
    return Fraction(sum(order // _centralizer_order(p) for p in enumerate_partitions(total)),
                    order)


def reconstruct_A_by_largest_part(total: int, depth: int, X):
    """Split A(total) by the largest part into dyadic bands.

    Returns (bands, smooth_rest, full_sum) where bands[j-1] sums a(lambda)
    over partitions with total/2^j < largest <= total/2^{j-1} for
    j = 1..depth, smooth_rest covers largest <= total/2^depth, and
    full_sum is their total, equal to A(total) for the same X values.
    """
    if depth < 1:
        raise PreconditionError("reconstruct_A_by_largest_part requires depth >= 1")
    sums = [complex(0.0)] * (depth + 1)  # bands 1..depth, then the smooth rest
    x = _x_row(X, range(1, total + 1))
    for parts in enumerate_partitions(total):
        # band j holds 2^{j-1} <= total/largest < 2^j; the empty partition is smooth
        j = (total // parts[0]).bit_length() if parts else depth + 1
        sums[min(j, depth + 1) - 1] += complex(_a_values(x, parts)[0])
    bands, smooth_rest = sums[:depth], sums[depth]
    return bands, smooth_rest, sum(bands, smooth_rest)


def _paired_product(stream, count, parts_a, parts_b):
    x = chaos.field_rows(stream, count, 1.0, 1, max(parts_a + parts_b))[0]
    return _a_values(x, parts_a) * np.conj(_a_values(x, parts_b))


def orthogonality_check(first, second, samples: int, seed: Seed,
                        workers: int = 1) -> MomentEstimate:
    """Monte Carlo estimate of E[a(first) conj(a(second))] for first != second.

    The returned mean is the modulus of the complex sample mean; the
    standard error is the complex sample dispersion / sqrt(samples). For
    distinct partitions the expectation is exactly 0, so the mean should
    sit within a few standard errors of 0.
    """
    first, second = _checked(first), _checked(second)
    if first == second:
        raise PreconditionError("orthogonality_check requires distinct partitions "
                                "(use diagonal_second_moment for the diagonal)")
    mc.check_samples(samples)
    values = mc.map_chunks(_paired_product, (first, second), seed, samples, workers)
    n = values.size
    mean = complex(np.sum(values) / n)
    spread = float(np.sqrt(np.sum(np.abs(values - mean) ** 2) / (n - 1)))
    return MomentEstimate(abs(mean), spread / sqrt(n), n, seed)
