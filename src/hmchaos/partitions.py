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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod, sqrt

import numpy as np

from . import chaos, mc
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .rng import Seed

ENUMERATION_CAP = 40  # p(40) = 37338; this module is an oracle, not the sampler


@dataclass(frozen=True, slots=True)
class Partition:
    """An integer partition as a nonincreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if self.parts and min(self.parts) < 1:
            raise ValueError("parts must be positive")
        if not all(map(operator.ge, self.parts, self.parts[1:])):
            raise ValueError("parts must be nonincreasing")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0


def enumerate_partitions(total: int, max_part: int | None = None):
    """Yield each partition of `total` with parts <= max_part exactly once.

    Order is lexicographic on the part tuples: the largest part increases,
    and recursively so within each branch, e.g. for total=4: 1+1+1+1, 2+1+1,
    2+2, 3+1, 4.
    """
    if total < 0:
        raise PreconditionError("enumerate_partitions requires total >= 0")
    if total > ENUMERATION_CAP:
        raise BudgetError(f"partition enumeration is capped at total <= {ENUMERATION_CAP}")
    cap = total if max_part is None else min(operator.index(max_part), total)
    if total > 0 and cap < 1:  # no part fits
        return
    parts = [1] * total
    while True:
        yield Partition(tuple(parts))
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


def a_of_partition(partition: Partition, X) -> complex:
    """a(lambda) = prod_k (X(k)/sqrt(k))^{m_k} / m_k! for given X values."""
    value = complex(1.0)
    for k, m in partition.multiplicities.items():
        if k not in X:
            raise PreconditionError(f"X({k}) is required but missing")
        value *= (complex(X[k]) / sqrt(k)) ** m / factorial(m)
    return value


def diagonal_second_moment(partition: Partition) -> Fraction:
    """E[|a(lambda)|^2] = prod_k 1/(m_k! k^{m_k}), exactly."""
    value = Fraction(1)
    for k, m in partition.multiplicities.items():
        value /= factorial(m) * k**m
    return value


def _centralizer_order(parts: tuple[int, ...]) -> int:
    """z_lambda = prod_k m_k! k^{m_k}, so a class of cycle type lambda in S_n
    has n!/z_lambda permutations: n! times the diagonal weight."""
    z, i = prod(parts), 0
    while i < len(parts):  # equal parts are adjacent
        m = parts.count(parts[i])
        z *= factorial(m)
        i += m
    return z


def exact_total_mass(total: int) -> Fraction:
    """sum over partitions of `total` of the diagonal weights; equals 1.

    Sums the integer class sizes total!/z_lambda of S_total and divides once
    by total!.
    """
    order = factorial(min(max(total, 0), ENUMERATION_CAP))  # the enumeration refuses the rest
    return Fraction(sum(order // _centralizer_order(p.parts)
                        for p in enumerate_partitions(total)), order)


def reconstruct_A_by_largest_part(total: int, depth: int, X):
    """Split A(total) by the largest part into dyadic bands.

    Returns (bands, smooth_rest, full_sum) where bands[j-1] sums a(lambda)
    over partitions with total/2^j < largest <= total/2^{j-1} for
    j = 1..depth, smooth_rest covers largest <= total/2^depth, and
    full_sum is their total, equal to A(total) for the same X values.
    """
    if depth < 1:
        raise PreconditionError("reconstruct_A_by_largest_part requires depth >= 1")
    bands = [complex(0.0)] * depth
    smooth_rest = complex(0.0)
    for partition in enumerate_partitions(total):
        value = a_of_partition(partition, X)
        largest = partition.largest
        if largest <= total / 2**depth:
            smooth_rest += value
            continue
        for j in range(1, depth + 1):
            if total / 2**j < largest <= total / 2 ** (j - 1):
                bands[j - 1] += value
                break
    return bands, smooth_rest, sum(bands, smooth_rest)


def _paired_product(stream, count, parts_a, parts_b):
    x = chaos.field_rows(stream, count, 1.0, 1, max(parts_a + parts_b))[0]
    va = np.ones(count, dtype=np.complex128)
    for k, m in Partition(parts_a).multiplicities.items():
        va *= (x[:, k - 1] / sqrt(k)) ** m / factorial(m)
    vb = np.ones(count, dtype=np.complex128)
    for k, m in Partition(parts_b).multiplicities.items():
        vb *= (x[:, k - 1] / sqrt(k)) ** m / factorial(m)
    return va * np.conj(vb)


def orthogonality_check(first: Partition, second: Partition, samples: int,
                        seed: Seed, workers: int = 1) -> MomentEstimate:
    """Monte Carlo estimate of E[a(first) conj(a(second))] for first != second.

    The returned mean is the modulus of the complex sample mean; the
    standard error is the complex sample dispersion / sqrt(samples). For
    distinct partitions the expectation is exactly 0, so the mean should
    sit within a few standard errors of 0.
    """
    if first == second:
        raise PreconditionError("orthogonality_check requires distinct partitions "
                                "(use diagonal_second_moment for the diagonal)")
    mc.check_samples(samples)
    values = mc.map_chunks(_paired_product, (first.parts, second.parts), seed,
                           samples, workers)
    n = values.size
    mean = complex(np.sum(values) / n)
    spread = float(np.sqrt(np.sum(np.abs(values - mean) ** 2) / (n - 1)))
    return MomentEstimate(abs(mean), spread / sqrt(n), n, seed)
