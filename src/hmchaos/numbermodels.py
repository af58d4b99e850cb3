"""Random multiplicative functions over the integers and over F_q[t].

Steinhaus model: independent uniform unit-circle values f(p) at the
primes, extended to all n <= x by complete multiplicativity. The partial
sums S(x) = sum_{n<=x} f(n) satisfy E[|S(x)|^2] = floor(x) exactly.

Function-field model: monic polynomials over F_q play the integers and
monic irreducibles play the primes, with |P_n| = (1/n) sum_{d|n} mu(d)
q^{n/d}. With unit-circle values f(P) on the irreducibles,

    A(n) = q^{-n/2} sum_{deg F = n, F monic} f(F)

has generating function prod_P (1 - f(P) (q^{-1/2} z)^{deg P})^{-1},
which also equals exp(sum_k X(k) z^k / sqrt(k)) for

    X(k) = (sqrt(k)/q^{k/2}) sum_{deg(P) | k} f(P)^{k/deg P} / (k/deg P),

tying the model to the Gaussian chaos coefficients as q grows.

Core arithmetic is over prime fields (coefficient vectors mod p);
irreducibility is decided by trial division, enumeration is budgeted at
q^N <= 10^7 terms, and structure tables (irreducibles, factorizations) are
cached per (q, N) and shared read-only across replicates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mc
from . import series as _series
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .rng import Seed, UnitCircleStream

ENUMERATION_BUDGET = 10**7


# ---------------------------------------------------------------------------
# integers: sieve and the Steinhaus model


@functools.lru_cache(maxsize=16)
def _sieve(n: int):
    """Smallest-prime-factor table and prime list up to n (shared, read-only)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for i in range(2, n + 1):
        if spf[i] == 0:
            view = spf[i::i]
            view[view == 0] = i
    primes = np.flatnonzero(spf == np.arange(n + 1))
    primes = primes[primes >= 2]
    return spf, primes


@dataclass(frozen=True)
class SteinhausModel:
    """One seeded instantiation of a Steinhaus multiplicative function."""

    x: float
    phases: np.ndarray
    seed: Seed

    @property
    def cutoff(self) -> int:
        return int(math.floor(self.x))

    @classmethod
    def build(cls, x: float, seed: Seed) -> "SteinhausModel":
        if x < 1:
            raise PreconditionError("SteinhausModel requires x >= 1")
        _, primes = _sieve(int(math.floor(x)))
        phases = UnitCircleStream(seed).draw(primes.size)
        return cls(x=float(x), phases=phases, seed=seed)

    def f_values(self) -> np.ndarray:
        """f(0..cutoff) with f(0) = 0; completely multiplicative in n."""
        n = self.cutoff
        _, primes = _sieve(n)
        f = np.ones(n + 1, dtype=np.complex128)
        for j, p in enumerate(primes):
            power = int(p)
            while power <= n:
                f[power::power] *= self.phases[j]
                power *= int(p)
        f[0] = 0.0
        return f

    def partial_sum(self) -> complex:
        return complex(np.sum(self.f_values()[1:]))


def steinhaus_partial_sum(x: float, seed: Seed) -> complex:
    """sum_{n<=x} f(n) for one seeded Steinhaus function."""
    return SteinhausModel.build(x, seed).partial_sum()


def _steinhaus_abs_pow(stream, x, power):
    n = int(math.floor(x))
    _, primes = _sieve(n)
    model = SteinhausModel(x=float(x), phases=stream.draw(primes.size), seed=stream.seed)
    return abs(model.partial_sum()) ** power


def steinhaus_abs_moment(x: float, power: float, samples: int, seed: Seed,
                         workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of |sum_{n<=x} f(n)|^power over fresh instantiations."""
    if x < 1:
        raise PreconditionError("steinhaus_abs_moment requires x >= 1")
    values = mc.map_replicates(_steinhaus_abs_pow, (x, power), seed, samples,
                               workers, stream_cls=UnitCircleStream)
    return mc.from_values(values, power / 2.0, seed)


def steinhaus_compensated_first_moment(x: float, samples: int, seed: Seed,
                                       workers: int = 1) -> tuple[MomentEstimate, float]:
    """E|S(x)| estimate and the recorded value E|S(x)| (log log x)^{1/4}/sqrt(x).

    Informational: desk-scale x cannot resolve the asymptotic decay, so the
    compensated value is reported, not gated.
    """
    est = steinhaus_abs_moment(x, 1.0, samples, seed, workers)
    comp = est.mean * math.log(math.log(x)) ** 0.25 / math.sqrt(x)
    return est, comp


# ---------------------------------------------------------------------------
# prime-field polynomial arithmetic (tuples of ints, ascending coefficients)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power_base(q: int):
    """Return (p, e) with q = p^e, or None when q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p:
            continue
        e, rest = 0, q
        while rest % p == 0:
            rest //= p
            e += 1
        return (p, e) if rest == 1 else None
    return None


def _mobius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def count_irreducibles(q: int, n: int) -> int:
    """#(monic irreducibles of degree n over F_q) = (1/n) sum_{d|n} mu(d) q^{n/d}."""
    if _prime_power_base(q) is None:
        raise PreconditionError("q must be a prime power >= 2")
    if n < 1:
        raise PreconditionError("count_irreducibles requires n >= 1")
    total = sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def _poly_mod(f, g, p):
    """Remainder of f modulo the monic polynomial g."""
    out = list(f)
    dg = len(g) - 1
    for i in range(len(out) - 1, dg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(dg):
                out[i - dg + j] = (out[i - dg + j] - c * g[j]) % p
    return tuple(out[:dg])


def _divides(g, f, p) -> bool:
    return not any(_poly_mod(f, g, p))


@functools.lru_cache(maxsize=32)
def irreducibles_by_degree(p: int, max_degree: int):
    """Monic irreducibles over F_p for every degree <= max_degree.

    Trial division against lower-degree irreducibles; lexicographic order
    on the ascending coefficient tuples within each degree.
    """
    if not _is_prime(p):
        raise PreconditionError("core field arithmetic requires a prime field size")
    table = {1: tuple((a, 1) for a in range(p))}
    for d in range(2, max_degree + 1):
        divisors = [g for dd in range(1, d // 2 + 1) for g in table[dd]]
        found = []
        for code in range(p**d):
            lower = []
            c = code
            for _ in range(d):
                lower.append(c % p)
                c //= p
            f = tuple(lower) + (1,)
            if not any(_divides(g, f, p) for g in divisors):
                found.append(f)
        table[d] = tuple(found)
    return {d: table[d] for d in range(1, max_degree + 1)}


def brute_force_irreducible_count(q: int, n: int) -> int:
    """Irreducible count by explicit enumeration (prime q only)."""
    return len(irreducibles_by_degree(q, n)[n])


@functools.lru_cache(maxsize=16)
def _structure(q: int, max_degree: int, degree_counts: tuple | None = None):
    """Irreducibles (global order) and factorization tables per degree.

    For each degree n <= max_degree, every monic polynomial of degree n
    appears exactly once as a multiset of irreducibles; the table stores
    the (irreducible index, exponent) pairs in CSR form. Built once and
    shared read-only. Only the degree of each irreducible enters the
    tables, so an external (degree -> count) table stands in for explicit
    polynomials; that is the prime-power entry point.
    """
    if q ** max(max_degree, 0) > ENUMERATION_BUDGET:
        raise BudgetError(f"enumeration budget q^N <= {ENUMERATION_BUDGET} exceeded")
    if degree_counts is None:
        by_degree = irreducibles_by_degree(q, max_degree) if max_degree >= 1 else {}
        degree_counts = tuple(len(by_degree[d]) for d in range(1, max_degree + 1))
    degrees = []
    for d in range(1, max_degree + 1):
        degrees.extend([d] * degree_counts[d - 1])
    degrees = np.array(degrees, dtype=np.int64)
    rows = {n: [] for n in range(max_degree + 1)}

    def rec(start, remaining, acc):
        rows[max_degree - remaining].append(tuple(acc))
        for i in range(start, degrees.size):
            d = int(degrees[i])
            if d > remaining:
                break
            e = 1
            while e * d <= remaining:
                rec(i + 1, remaining - e * d, acc + [(i, e)])
                e += 1

    rec(0, max_degree, [])
    tables = {}
    for n in range(max_degree + 1):
        entries = rows[n]
        assert len(entries) == q**n
        indptr = np.zeros(len(entries) + 1, dtype=np.int64)
        idx, exp = [], []
        for row_number, row in enumerate(entries):
            indptr[row_number + 1] = indptr[row_number] + len(row)
            for i, e in row:
                idx.append(i)
                exp.append(e)
        tables[n] = (np.array(idx, dtype=np.int64), np.array(exp, dtype=np.float64),
                     indptr)
    return degrees, tables


class FFModel:
    """Seeded random multiplicative function over monic polynomials of F_q[t].

    Prime q builds its own irreducible tables. For prime-power q pass
    `irreducible_counts`, a mapping degree -> number of monic irreducibles
    (an external field table); only degrees and unit-modulus values enter
    the model, so explicit prime-power arithmetic is never needed.
    """

    def __init__(self, q: int, N: int, seed: Seed, irreducible_counts=None):
        if N < 0:
            raise PreconditionError("FFModel requires N >= 0")
        if irreducible_counts is None:
            if not _is_prime(q):
                raise PreconditionError("FFModel requires a prime field size "
                                        "(prime powers need irreducible_counts)")
            counts_key = None
        else:
            if _prime_power_base(q) is None:
                raise PreconditionError("q must be a prime power >= 2")
            counts_key = tuple(int(irreducible_counts[d]) for d in range(1, N + 1))
        self.q = q
        self.N = N
        self.seed = seed
        self.degrees, self._tables = _structure(q, N, counts_key)
        self.angles = np.angle(UnitCircleStream(seed).draw(self.degrees.size))

    @classmethod
    def _with_angles(cls, q, N, angles, seed):
        model = cls.__new__(cls)
        model.q, model.N, model.seed = q, N, seed
        model.degrees, model._tables = _structure(q, N)
        model.angles = angles
        return model

    def irreducible_values(self) -> np.ndarray:
        """f(P) for every irreducible, in the global (degree, lex) order."""
        return np.exp(1j * self.angles)

    def A(self, n: int) -> complex:
        """q^{-n/2} sum over monic F of degree n of f(F), by direct enumeration."""
        if not 0 <= n <= self.N:
            raise PreconditionError("A(n) needs 0 <= n <= N")
        if n == 0:
            return complex(1.0)
        idx, exp, indptr = self._tables[n]
        contrib = exp * self.angles[idx]
        row_angles = np.add.reduceat(contrib, indptr[:-1])
        return complex(self.q ** (-n / 2.0) * np.sum(np.exp(1j * row_angles)))

    def X(self, k: int) -> complex:
        """(sqrt(k)/q^{k/2}) sum_{deg(P) | k} f(P)^{k/deg P} / (k/deg P)."""
        if not 1 <= k <= self.N:
            raise PreconditionError("X(k) needs 1 <= k <= N")
        total = complex(0.0)
        for d in range(1, k + 1):
            if k % d:
                continue
            rep = k // d
            mask = self.degrees == d
            total += np.sum(np.exp(1j * rep * self.angles[mask])) / rep
        return complex(math.sqrt(k) / self.q ** (k / 2.0) * total)

    def euler_product_series(self, degree: int) -> np.ndarray:
        """Coefficients 0..degree of prod_P (1 - f(P)(q^{-1/2} z)^{deg P})^{-1}.

        Each irreducible factor is folded in by the in-place geometric
        recurrence c[n] += u * c[n - d], exact for truncated series.
        """
        if degree > self.N:
            raise PreconditionError("series degree cannot exceed the model's N")
        coeffs = np.zeros(degree + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        values = self.irreducible_values()
        for i in range(self.degrees.size):
            d = int(self.degrees[i])
            if d > degree:
                break
            u = values[i] * self.q ** (-d / 2.0)
            for n in range(d, degree + 1):
                coeffs[n] += u * coeffs[n - d]
        return coeffs

    def gaussian_exp_series(self, degree: int) -> np.ndarray:
        """Coefficients of exp(sum_{k<=degree} X(k) z^k / sqrt(k))."""
        s = np.zeros(degree + 1, dtype=np.complex128)
        for k in range(1, degree + 1):
            s[k] = self.X(k) / math.sqrt(k)
        return _series.exp_array(s, degree)


def ff_A(q: int, N: int, seed: Seed) -> complex:
    """One seeded draw of A(N) in the F_q[t] model."""
    return FFModel(q, N, seed).A(N)


def ff_X(q: int, k: int, seed: Seed) -> complex:
    """One seeded draw of X(k) in the F_q[t] model."""
    return FFModel(q, k, seed).X(k)


def _ff_abs_sq(stream, q, N):
    degrees, _ = _structure(q, N)
    angles = np.angle(stream.draw(degrees.size))
    model = FFModel._with_angles(q, N, angles, stream.seed)
    return abs(model.A(N)) ** 2


def ff_second_moment(q: int, N: int, samples: int, seed: Seed,
                     workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of |A(N)|^2 over fresh phase assignments (target 1)."""
    values = mc.map_replicates(_ff_abs_sq, (q, N), seed, samples, workers,
                               stream_cls=UnitCircleStream)
    return mc.from_values(values, 1.0, seed)


def _ff_x_value(stream, q, k):
    degrees, _ = _structure(q, k)
    angles = np.angle(stream.draw(degrees.size))
    model = FFModel._with_angles(q, k, angles, stream.seed)
    return model.X(k)


def ff_X_values(q: int, k: int, samples: int, seed: Seed,
                workers: int = 1) -> np.ndarray:
    """Replicate draws of X(k), for mean/variance sanity checks."""
    return mc.map_replicates(_ff_x_value, (q, k), seed, samples, workers,
                             stream_cls=UnitCircleStream)
