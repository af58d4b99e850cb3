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

With f(P) = exp(i theta_P), both models sum exp(i sum e theta_P) over the
rows prod P^e of a CSR factorization table, evaluated by one kernel. The
integer table is peeled from a smallest-prime-factor sieve (floor(x) <=
10^6); the F_q[t] tables come from the Mobius counts, for any prime power q
(q^N <= 10^7 rows). Tables are cached and shared read-only. Irreducibles
found by budgeted trial division over prime fields check the counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import methodcaller

import numpy as np

from . import mc
from . import series as _series
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .rng import Seed, UnitCircleStream

ENUMERATION_BUDGET = 10**7
# Cap on floor(x), checked before the sieve allocates: building the integer
# table for 10**6 peaks at about 210 MiB, so 10**7 would need over 2 GiB.
SIEVE_BUDGET = 10**6
# Cap on the trial divisions of the brute-force irreducible lists (admits
# q = 3 up to degree 8 and q = 5 up to degree 6) and of the prime-power test
# (q <= TRIAL_DIVISION_BUDGET**2).
TRIAL_DIVISION_BUDGET = 10**6


def _row_values(angles, table):
    """exp(i sum e theta_P) for every row prod P^e of a CSR table (idx, exp, indptr).

    Every row must be non-empty: reduceat returns an element, not 0, on an
    empty row, so callers add the empty factorization themselves.
    """
    idx, exp, indptr = table
    return np.exp(1j * np.add.reduceat(exp * angles[idx], indptr[:-1]))


def _replicates(streams, model, size, statistic, power):
    """One value per stream: `statistic` (a methodcaller) of a model drawn
    from it, as |value|**power, or the complex value when power is None."""
    values = [statistic(model.from_stream(*size, stream)) for stream in streams]
    return values if power is None else [abs(value) ** power for value in values]


# ---------------------------------------------------------------------------
# integers: sieve and the Steinhaus model


def _cutoff(x) -> int:
    """floor(x) for a Steinhaus cutoff, validated before anything allocates."""
    if not x >= 1:
        raise PreconditionError("the Steinhaus model requires x >= 1")
    if not x < SIEVE_BUDGET + 1:
        raise BudgetError(f"Steinhaus budget floor(x) <= {SIEVE_BUDGET} exceeded")
    return int(math.floor(x))


@functools.lru_cache(maxsize=16)
def _sieve(n: int):
    """Smallest-prime-factor table and prime list up to n (shared, read-only)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == 0:
            view = spf[i::i]
            view[view == 0] = i
    # every composite has a prime factor <= isqrt(n); the rest are primes
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    primes = np.flatnonzero(spf == np.arange(n + 1))
    primes = primes[primes >= 2]
    return spf, primes


@functools.lru_cache(maxsize=16)
def _integer_table(n: int):
    """CSR factor table of 2..n (row r factors r + 2), shared read-only.

    Each pass of the peel divides every unfinished number m by its smallest
    prime factor p and records the key m * (n + 1) + p; sorted, the keys
    run through each row's primes in order, and a key's count is the
    exponent.
    """
    spf, primes = _sieve(n)
    number = rem = np.arange(2, n + 1)
    keys = [number[:0]]
    while rem.size:
        p = spf[rem]
        keys.append(number * (n + 1) + p)
        live = rem > p
        number, rem = number[live], rem[live] // p[live]
    keys, exp = np.unique(np.concatenate(keys), return_counts=True)
    number, factor = np.divmod(keys, n + 1)
    indptr = np.searchsorted(number, np.arange(2, n + 2))
    return np.searchsorted(primes, factor), exp.astype(np.float64), indptr


@dataclass(frozen=True)
class SteinhausModel:
    """One seeded instantiation of a Steinhaus multiplicative function."""

    x: float
    angles: np.ndarray
    seed: Seed

    @classmethod
    def build(cls, x: float, seed: Seed) -> "SteinhausModel":
        return cls.from_stream(x, UnitCircleStream(seed))

    @classmethod
    def from_stream(cls, x: float, stream: UnitCircleStream) -> "SteinhausModel":
        """The model whose prime angles are the next draws of `stream`."""
        _, primes = _sieve(_cutoff(x))
        return cls(float(x), np.angle(stream.draw(primes.size)), stream.seed)

    def f_values(self) -> np.ndarray:
        """f(0..floor(x)) with f(0) = 0; completely multiplicative in n."""
        rows = _row_values(self.angles, _integer_table(_cutoff(self.x)))
        return np.concatenate(([0.0, 1.0], rows))

    def partial_sum(self) -> complex:
        return complex(np.sum(self.f_values()[1:]))


def steinhaus_partial_sum(x: float, seed: Seed) -> complex:
    """sum_{n<=x} f(n) for one seeded Steinhaus function."""
    return SteinhausModel.build(x, seed).partial_sum()


def steinhaus_abs_moment(x: float, power: float, samples: int, seed: Seed,
                         workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of |sum_{n<=x} f(n)|^power over fresh instantiations."""
    _cutoff(x)
    if not math.isfinite(power):
        raise PreconditionError("the moment power must be finite")
    mc.check_samples(samples)
    values = mc.map_replicates(_replicates, (SteinhausModel, (x,),
                                             methodcaller("partial_sum"), power),
                               seed, samples, workers, stream_cls=UnitCircleStream)
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


def _prime_power_base(q: int):
    """Return (p, e) with q = p^e, or None when q is not a prime power."""
    if q < 2:
        return None
    if q > TRIAL_DIVISION_BUDGET**2:
        raise BudgetError(f"prime-power test budget q <= {TRIAL_DIVISION_BUDGET**2} "
                          "exceeded")
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


@functools.lru_cache(maxsize=32)
def irreducibles_by_degree(p: int, max_degree: int):
    """Monic irreducibles over F_p for every degree <= max_degree.

    Trial division against lower-degree irreducibles, budgeted before any
    enumeration; lexicographic order on the ascending coefficient tuples
    within each degree.
    """
    if _prime_power_base(p) != (p, 1):
        raise PreconditionError("core field arithmetic requires a prime field size")
    divisions = sum(p**d * sum(count_irreducibles(p, e) for e in range(1, d // 2 + 1))
                    for d in range(2, max_degree + 1))
    if divisions > TRIAL_DIVISION_BUDGET:
        raise BudgetError(f"trial-division budget {TRIAL_DIVISION_BUDGET} exceeded")
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
            if all(any(_poly_mod(f, g, p)) for g in divisors):
                found.append(f)
        table[d] = tuple(found)
    return {d: table[d] for d in range(1, max_degree + 1)}


def brute_force_irreducible_count(q: int, n: int) -> int:
    """Irreducible count by explicit enumeration (prime q only)."""
    return len(irreducibles_by_degree(q, n)[n])


@functools.lru_cache(maxsize=16)
def _structure(q: int, max_degree: int):
    """Irreducible degrees (global order) and factorization tables per degree.

    For each degree n <= max_degree, every monic polynomial of degree n
    appears exactly once as a multiset of irreducibles; the table stores
    the (irreducible index, exponent) pairs in CSR form. Only the degree of
    each irreducible enters the tables, so the Mobius counts build them for
    any prime power q. Built once and shared read-only.
    """
    if q ** max(max_degree, 0) > ENUMERATION_BUDGET:
        raise BudgetError(f"enumeration budget q^N <= {ENUMERATION_BUDGET} exceeded")
    counts = [count_irreducibles(q, d) for d in range(1, max_degree + 1)]
    degrees = np.repeat(np.arange(1, max_degree + 1, dtype=np.int64), counts)
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
    for n, entries in rows.items():
        assert len(entries) == q**n
        pairs = np.array([pair for row in entries for pair in row], dtype=np.int64)
        pairs = pairs.reshape(-1, 2).T.copy()
        indptr = np.cumsum([0] + [len(row) for row in entries], dtype=np.int64)
        tables[n] = (pairs[0], pairs[1].astype(np.float64), indptr)
    return degrees, tables


class FFModel:
    """Seeded random multiplicative function over monic polynomials of F_q[t].

    q is any prime power: only the degree and the unit-modulus value of each
    irreducible enter the model, so no arithmetic over F_q is needed.
    """

    def __init__(self, q: int, N: int, seed: Seed):
        self._draw(q, N, UnitCircleStream(seed))

    @classmethod
    def from_stream(cls, q: int, N: int, stream: UnitCircleStream) -> "FFModel":
        """The model whose irreducible angles are the next draws of `stream`."""
        model = cls.__new__(cls)
        model._draw(q, N, stream)
        return model

    def _draw(self, q, N, stream):
        if N < 0:
            raise PreconditionError("FFModel requires N >= 0")
        # the q^N budget first: the prime-power test trial-divides up to sqrt(q)
        self.degrees, self._tables = _structure(q, N)
        if _prime_power_base(q) is None:
            raise PreconditionError("FFModel requires a prime power q >= 2")
        self.q, self.N, self.seed = q, N, stream.seed
        self.angles = np.angle(stream.draw(self.degrees.size))

    def irreducible_values(self) -> np.ndarray:
        """f(P) for every irreducible, in the global (degree, lex) order."""
        return np.exp(1j * self.angles)

    def A(self, n: int) -> complex:
        """q^{-n/2} sum over monic F of degree n of f(F), by direct enumeration."""
        if not 0 <= n <= self.N:
            raise PreconditionError("A(n) needs 0 <= n <= N")
        if n == 0:
            return complex(1.0)
        rows = _row_values(self.angles, self._tables[n])
        return complex(self.q ** (-n / 2.0) * np.sum(rows))

    def X(self, k: int) -> complex:
        """(sqrt(k)/q^{k/2}) sum_{deg(P) | k} f(P)^{k/deg P} / (k/deg P)."""
        if not 1 <= k <= self.N:
            raise PreconditionError("X(k) needs 1 <= k <= N")
        # one pairwise sum per degree d | k: summing all terms at once moves
        # X, and the printed series errors, in the last bits
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


def ff_second_moment(q: int, N: int, samples: int, seed: Seed,
                     workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of |A(N)|^2 over fresh phase assignments (target 1)."""
    mc.check_samples(samples)
    values = mc.map_replicates(_replicates, (FFModel, (q, N), methodcaller("A", N), 2),
                               seed, samples, workers, stream_cls=UnitCircleStream)
    return mc.from_values(values, 1.0, seed)


def ff_X_values(q: int, k: int, samples: int, seed: Seed,
                workers: int = 1) -> np.ndarray:
    """Replicate draws of X(k), for mean/variance sanity checks."""
    return mc.map_replicates(_replicates, (FFModel, (q, k), methodcaller("X", k), None),
                             seed, samples, workers, stream_cls=UnitCircleStream)
