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

A monic irreducible P is a prime of norm q^{deg P}, so both models are
the products of primes of norm <= a bound, listed once as a factor tree in
Omega order: each row is its parent row times one prime, and one
gather-multiply per level gives f on every row. The tree serves the
Steinhaus sums S(x) and the F_q[t] enumeration oracle FFModel.A. The
integer tree grows from a boolean prime sieve (floor(x) <= 10^6); the
F_q[t] tree from the Mobius counts, for any prime power q
(sum_{n<=N} q^n <= 10^7 rows). Trees are cached and shared read-only.
Irreducibles sieved over prime fields (budgeted) check the counts.

The F_q[t] Monte Carlo takes A(N) from the power sums instead: X(1..N)
read each irreducible's value once per multiple of its degree, and A(N) is
the z^N coefficient of exp(sum_k X(k) z^k / sqrt(k)), so a replicate costs
about as much as the irreducibles of degree <= N, not the q^N monics.

Both models draw f on the primes with stream.draw_unit. Both estimators
run a span's replicates in blocks of at most mc.SPAN_BLOCK values of their
widest array: rng.draw_unit_blocks gives f on the primes, one row per
stream, and the block runs through the tree or the power sums, with the
bits each model on its own stream gives. Every complex product is
formed from rounded real products (_rotate), so numpy's SIMD dispatch
cannot change the bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import mc
from . import series as _series
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .rng import Seed, Stream, draw_unit_blocks

ENUMERATION_BUDGET = 10**7
# Cap on floor(x), checked before the sieve allocates: building the integer
# tree for 10**6 peaks at 46 MiB (tracemalloc), so 10**7 would need about 460 MiB.
SIEVE_BUDGET = 10**6
# Cap on the trial divisions that listing the irreducibles by brute force
# would take (admits p = 2 up to degree 13, 3 up to 9, 5 up to 6); the sieve
# marks fewer than 1/p as many products. Also caps the prime-power test
# (q <= TRIAL_DIVISION_BUDGET**2).
TRIAL_DIVISION_BUDGET = 10**6


def _factor_tree(norms, bound: int):
    """Every product of primes of norm <= bound, as a tree in Omega order.

    `norms` lists the primes' norms in ascending order. Row 0 is the empty
    product (parent and factor 0, so it takes every prime); a row of norm m
    whose last prime has index j has one child for each prime i >= j with
    m * norms[i] <= bound, so every product appears once. Returns
    (parent, factor, levels) and each row's norm: level k (the products of k
    primes) is rows levels[k]:levels[k + 1], and row r > 0 is row parent[r]
    times prime factor[r]. Each level is one np.repeat.
    """
    root = np.zeros(1, np.int64)
    parent, factor, norm, levels = [root], [root], [root + 1], [0, 1]
    while True:
        last, size = factor[-1], norm[-1]
        counts = np.maximum(np.searchsorted(norms, bound // size, "right") - last, 0)
        total = int(counts.sum())
        if not total:
            break
        # child c of the level's row `owner` takes prime last[owner] + c
        owner = np.repeat(np.arange(counts.size), counts)
        child = np.arange(total) - (np.cumsum(counts) - counts)[owner]
        parent.append(levels[-2] + owner)
        factor.append(last[owner] + child)
        norm.append(size[owner] * norms[factor[-1]])
        levels.append(levels[-1] + total)
    return (np.concatenate(parent), np.concatenate(factor), np.array(levels)), \
        np.concatenate(norm)


def _parts(values):
    """values as complex pairs (real part, i * imaginary part), stacked on a
    last axis of 2: the factors _rotate multiplies by."""
    parts = np.zeros(values.shape + (2,), dtype=np.complex128)
    parts[..., 0].real, parts[..., 1].imag = values.real, values.imag
    return parts


def _rotate(x, parts, out):
    """out = x * y for the y whose _parts are `parts`; x is overwritten.

    Each part of x * re(y) and of x * i im(y) is one rounded real product, so
    out has the bits of the four-product formula. numpy's own complex
    multiply fuses a multiply and an add where the CPU has FMA, which
    changes the last bits between machines.
    """
    np.multiply(x, parts[..., 0], out=out)
    np.multiply(x, parts[..., 1], out=x)
    return np.add(out, x, out=out)


def _tree_values(prime_values, tree, values):
    """f on every row of a factor tree, for each row of the (rows, primes)
    block prime_values (f(prime i) in column i), into the (tree rows, rows)
    block `values`: replicate j is column j."""
    parent, factor, levels = tree
    parts = _parts(prime_values.T)
    values[0] = 1.0
    for a, b in zip(levels[1:-1], levels[2:]):
        _rotate(np.take(values, parent[a:b], axis=0), np.take(parts, factor[a:b], axis=0),
                values[a:b])
    return values


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
    """The primes up to n, from a boolean sieve (shared, read-only)."""
    composite = np.zeros(n + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p::p] = True
    return np.flatnonzero(~composite)


@functools.lru_cache(maxsize=16)
def _integer_tree(n: int):
    """Factor tree of 1..n (each row's norm is its integer), shared read-only."""
    return _factor_tree(_sieve(n), n)


class SteinhausModel:
    """A Steinhaus multiplicative function whose values f(p) at the primes
    are the next draws of `stream`, in `prime_values`."""

    def __init__(self, x: float, stream: Stream):
        self.x = float(x)
        self.prime_values = stream.draw_unit(_sieve(_cutoff(x)).size)

    def partial_sum(self) -> complex:
        """S(x): f on the rows of the integer tree, summed in their order, as
        the estimator sums."""
        tree, norm = _integer_tree(_cutoff(self.x))
        values = np.empty((norm.size, 1), dtype=np.complex128)
        return complex(np.sum(_tree_values(self.prime_values[None], tree, values)[:, 0]))


def _steinhaus_sums(streams, x: float, power: float):
    """|S(x)|**power for f drawn from each stream. The blocks share one tree
    buffer; one freed per block may go back to the system and fault in again."""
    n = _cutoff(x)
    tree, norm = _integer_tree(n)
    rows = max(1, mc.SPAN_BLOCK // norm.size)
    primes = np.empty((rows, _sieve(n).size), dtype=np.complex128)
    sums, values = [], None
    for block in draw_unit_blocks(streams, primes):
        if values is None:
            values = np.empty((norm.size, len(block)), dtype=np.complex128)
        columns = _tree_values(block, tree, values[:, : len(block)]).T
        sums += [complex(np.sum(column)) for column in columns]  # pairwise, as on one row
    return mc.abs_powers(sums, power)


def steinhaus_abs_moment(x: float, power: float, samples: int, seed: Seed,
                         workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of |sum_{n<=x} f(n)|^power over fresh instantiations."""
    _cutoff(x)
    if not math.isfinite(power):
        raise PreconditionError("the moment power must be finite")
    values = mc.map_replicates(_steinhaus_sums, (x, power), seed, samples, workers)
    return mc.from_values(values, seed)


# ---------------------------------------------------------------------------
# prime-field polynomial arithmetic (tuples of ints, ascending coefficients)


def _require_ints(**values) -> None:
    """Refuse a field size or degree that is not an int (bools too): a float
    slips through the range checks and matches no degree, or fails in range()."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise PreconditionError(f"{name} must be an int, got {value!r}")


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
    _require_ints(q=q, n=n)
    if _prime_power_base(q) is None:
        raise PreconditionError("q must be a prime power >= 2")
    if n < 1:
        raise PreconditionError("count_irreducibles requires n >= 1")
    total = sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


@functools.lru_cache(maxsize=32, typed=True)  # typed: 3.0 must not hit 3's entry
def irreducibles_by_degree(p: int, max_degree: int):
    """Monic irreducibles over F_p for every degree <= max_degree.

    A sieve over F_p[t], budgeted before any allocation: each degree-d
    product g * h of a listed irreducible g of degree e <= d/2 and any monic
    h of degree d - e is marked, and the unmarked codes sum c_i p^i are the
    irreducibles, in lexicographic order on the ascending coefficient tuples.
    """
    _require_ints(p=p, max_degree=max_degree)
    if _prime_power_base(p) != (p, 1):
        raise PreconditionError("core field arithmetic requires a prime field size")
    divisions = 0
    for d in range(2, max_degree + 1):  # stops at the first degree over the budget
        divisions += p**d * sum(count_irreducibles(p, e) for e in range(1, d // 2 + 1))
        if divisions > TRIAL_DIVISION_BUDGET:
            raise BudgetError(f"trial-division budget {TRIAL_DIVISION_BUDGET} exceeded")
    table = {1: tuple((a, 1) for a in range(p))}
    for d in range(2, max_degree + 1):  # the budget keeps p <= 100 and p^d < 2^31 here
        place = p ** np.arange(d, dtype=np.int32)
        composite = np.zeros(p**d, dtype=bool)
        for e in range(1, d // 2 + 1):
            h = np.arange(p ** (d - e), dtype=np.int32)[:, None] // place[:d - e] % p
            for g in table[e]:  # one g at a time, in int32, keeps the blocks small
                # g * (h + t^(d-e)) below t^d: g's coefficients times h, shifted
                low = np.zeros((h.shape[0], d), dtype=np.int32)
                for i, c in enumerate(g):
                    low[:, i:i + d - e] += c * h
                low[:, d - e:] += g[:e]
                composite[(low % p) @ place] = True
        codes = np.flatnonzero(~composite)
        table[d] = tuple(tuple(row) + (1,) for row in (codes[:, None] // place % p).tolist())
    return {d: table[d] for d in range(1, max_degree + 1)}


@functools.lru_cache(maxsize=16)
def _degrees(q: int, max_degree: int):
    """The degree of each monic irreducible of degree <= max_degree over F_q,
    ascending (the global order of the irreducibles).

    The monics of degree <= N, sum_{n<=N} q^n, are budgeted before anything
    is built: after N >= 0 and q >= 2 (the budget loop ends only for q >= 2),
    and before the prime-power test, which trial-divides up to sqrt(q). Only
    the Mobius counts enter, so any prime power q works. Built once and
    shared read-only.
    """
    if max_degree < 0:
        raise PreconditionError("FFModel requires N >= 0")
    if not q >= 2:
        raise PreconditionError("FFModel requires a prime power q >= 2")
    rows = 0
    for n in range(max_degree + 1):   # stops within log_q(budget) + 1 steps
        rows += q**n
        if rows > ENUMERATION_BUDGET:
            raise BudgetError(f"enumeration budget sum_(n<=N) q^n <= {ENUMERATION_BUDGET} "
                              "exceeded")
    if _prime_power_base(q) is None:
        raise PreconditionError("FFModel requires a prime power q >= 2")
    counts = [count_irreducibles(q, d) for d in range(1, max_degree + 1)]
    return np.repeat(np.arange(1, max_degree + 1, dtype=np.int64), counts)


@functools.lru_cache(maxsize=16)
def _structure(q: int, max_degree: int):
    """Irreducible degrees (global order) and the factor tree of F_q[t].

    An irreducible of degree d is a prime of norm q^d, so the tree's rows of
    norm q^n are the monic polynomials of degree n, each once as a multiset
    of irreducibles. Built once and shared read-only.
    """
    degrees = _degrees(q, max_degree)
    powers = np.array([q**n for n in range(max_degree + 1)], dtype=np.int64)
    return degrees, *_factor_tree(powers[degrees], q**max_degree)


def _power_sums(values, degrees, q: int, degree: int) -> np.ndarray:
    """X(k) / sqrt(k) for k = 0..degree (0 at k = 0), for each row of the
    (rows, irreducibles) block `values` of f, as a (rows, degree + 1) block.

    X(k) / sqrt(k) = q^{-k/2} sum_{d | k} (d/k) sum_{deg P = d} f(P)^{k/d}.
    Each degree class is a contiguous slice of the row, since `degrees`
    ascends; its powers are formed by _rotate and summed along the row, so
    each row has the bits of a one-row block.
    """
    s = np.zeros((len(values), degree + 1), dtype=np.complex128)
    bounds = np.searchsorted(degrees, np.arange(1, degree + 2)).tolist()
    for d in range(1, degree + 1):
        f = values[:, bounds[d - 1] : bounds[d]]
        s[:, d] += np.sum(f, axis=1)
        if 2 * d <= degree:
            parts, power = _parts(f), f.copy()
            for m in range(2, degree // d + 1):
                power = _rotate(power, parts, np.empty_like(power))
                s[:, d * m] += np.sum(power, axis=1) / m
    s *= np.array([q ** (-k / 2.0) for k in range(degree + 1)])
    return s


class FFModel:
    """Random multiplicative function over monic polynomials of F_q[t] of
    degree <= N: prime_values[i] = f(P_i), deg P_i = degrees[i], drawn from `stream`.

    q is any prime power: only the degree and the unit-modulus value of each
    irreducible enter the model, so no arithmetic over F_q is needed.
    """

    def __init__(self, q: int, N: int, stream: Stream):
        _require_ints(q=q, N=N)
        self.degrees, self._tree, self._norm = _structure(q, N)
        self.q, self.N = q, N
        self.prime_values = stream.draw_unit(self.degrees.size)

    @functools.cached_property
    def _values(self):
        values = np.empty((self._norm.size, 1), dtype=np.complex128)
        return _tree_values(self.prime_values[None], self._tree, values)[:, 0]

    def A(self, n: int) -> complex:
        """q^{-n/2} sum over monic F of degree n of f(F), by direct enumeration."""
        _require_ints(n=n)
        if not 0 <= n <= self.N:
            raise PreconditionError("A(n) needs 0 <= n <= N")
        rows = self._values[self._norm == self.q**n]
        return complex(self.q ** (-n / 2.0) * np.sum(rows))

    def X(self, k: int) -> complex:
        """(sqrt(k)/q^{k/2}) sum_{deg(P) | k} f(P)^{k/deg P} / (k/deg P)."""
        _require_ints(k=k)
        if not 1 <= k <= self.N:
            raise PreconditionError("X(k) needs 1 <= k <= N")
        mask = k % self.degrees == 0
        rep = k // self.degrees[mask]
        total = np.sum(self.prime_values[mask] ** rep / rep)
        return complex(math.sqrt(k) / self.q ** (k / 2.0) * total)

    def _check_degree(self, degree) -> None:
        _require_ints(degree=degree)
        if degree < 0:
            raise PreconditionError("series degree must be >= 0")
        if degree > self.N:
            raise PreconditionError("series degree cannot exceed the model's N")

    def euler_product_series(self, degree: int) -> np.ndarray:
        """Coefficients 0..degree of prod_P (1 - f(P)(q^{-1/2} z)^{deg P})^{-1}.

        Each irreducible factor is folded in by the in-place geometric
        recurrence c[n] += u * c[n - d], exact for truncated series.
        """
        self._check_degree(degree)
        coeffs = np.zeros(degree + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        for d, value in zip(self.degrees.tolist(), self.prime_values):
            if d > degree:
                break
            u = value * self.q ** (-d / 2.0)
            for n in range(d, degree + 1):
                coeffs[n] += u * coeffs[n - d]
        return coeffs

    def gaussian_exp_series(self, degree: int) -> np.ndarray:
        """Coefficients 0..degree of exp(sum_{k<=degree} X(k) z^k / sqrt(k)),
        with X(k) from the power sums (the route of ff_second_moment)."""
        self._check_degree(degree)
        s = _power_sums(self.prime_values[None], self.degrees, self.q, degree)
        return _series.exp_array(s[0], degree)


def _ff_coefficients(streams, q: int, N: int, power: float):
    """|A(N)|**power for f drawn from each stream: exp of each block's power
    sums, one exp_array call per block."""
    degrees = _degrees(q, N)
    rows = max(1, mc.SPAN_BLOCK // max(degrees.size, 1))
    primes = np.empty((rows, degrees.size), dtype=np.complex128)
    values = []
    for block in draw_unit_blocks(streams, primes):
        values += _series.exp_array(_power_sums(block, degrees, q, N), N)[:, N].tolist()
    return mc.abs_powers(values, power)


def ff_second_moment(q: int, N: int, samples: int, seed: Seed,
                     workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of |A(N)|^2 over fresh phase assignments (target 1)."""
    _require_ints(q=q, N=N)
    values = mc.map_replicates(_ff_coefficients, (q, N, 2), seed, samples, workers)
    return mc.from_values(values, seed)
