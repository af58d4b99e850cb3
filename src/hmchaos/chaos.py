"""Samplers and estimators for the chaos coefficients A(n).

The model: with independent standard complex Gaussians X(k),

    exp( sum_{k<=K} X(k) z^k / sqrt(k) ) = sum_n A(n) z^n,

so A(n) for n <= K is a polynomial in the X's with E[|A(n)|^2] = 1. This
module samples A(N), estimates the moments E[|A(N)|^{2q}] for 0 <= q <= 1,
evaluates the exact circle-average mean E[|F_K(r e^{i theta})|^2]
= exp(sum_{k<=K} r^{2k}/k), computes per-sample circle averages through
the Parseval power sum, and tabulates the (log N)^{1/4}-compensated first
moment over a grid of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .errors import PreconditionError
from .mc import MomentEstimate
from .rng import GaussianStream, Seed, split
from .series import ComplexSeries, exp_array

_FLOOR_GUARD = 1e-9  # absorbs ulp noise when K sits exactly on an integer
_TAIL_RELATIVE = 1e-9


def _int_floor(x: float) -> int:
    return int(math.floor(x + _FLOOR_GUARD))


@dataclass(frozen=True)
class ChaosSample:
    """One draw of the coefficients A(0..N) at truncation K."""

    N: int
    K: float
    coeffs: ComplexSeries
    seed: Seed

    def coefficient(self, n: int) -> complex:
        return self.coeffs.coefficient(n)


def _input_series(stream, N: int, K: float) -> np.ndarray:
    """Coefficient vector of sum_{k<=min(K,N)} X(k) z^k / sqrt(k)."""
    m = N if K >= N else _int_floor(K)  # K = inf is the untruncated model
    x = stream.draw(m)
    s = np.zeros(N + 1, dtype=np.complex128)
    if m:
        s[1 : m + 1] = x / np.sqrt(np.arange(1, m + 1))
    return s


def sample_A(N: int, K: float, stream: GaussianStream) -> ChaosSample:
    """Sample A(0..N) for the degree-K truncated model.

    Coefficients of degree n <= K depend only on X(1..n), so any K >= N
    yields the untruncated law of A(N).
    """
    if N < 0 or not K >= 1:
        raise PreconditionError("sample_A requires N >= 0 and K >= 1")
    coeffs = exp_array(_input_series(stream, N, K), N)
    coeffs[0] = 1.0
    return ChaosSample(N=N, K=float(K), coeffs=ComplexSeries(coeffs), seed=stream.seed)


def _abs_coeff_pow(stream, N, q):
    coeffs = exp_array(_input_series(stream, N, float(N)), N)
    return abs(coeffs[N]) ** (2.0 * q)


def _coeff_value(stream, N):
    return exp_array(_input_series(stream, N, float(N)), N)[N]


def estimate_moment(N: int, q: float, samples: int, seed: Seed,
                    workers: int = 1) -> MomentEstimate:
    """Monte Carlo estimate of E[|A(N)|^{2q}]; replicate i uses split(seed, i)."""
    if N < 0:
        raise PreconditionError("estimate_moment requires N >= 0")
    if not 0.0 <= q <= 1.0:
        raise PreconditionError("estimate_moment requires 0 <= q <= 1")
    if samples < 2:
        raise PreconditionError("estimate_moment requires samples >= 2")
    values = mc.map_replicates(_abs_coeff_pow, (N, q), seed, samples, workers)
    return mc.from_values(values, q, seed)


def coefficient_values(N: int, samples: int, seed: Seed, workers: int = 1) -> np.ndarray:
    """Raw replicate values of A(N) (complex), for distribution checks."""
    if N < 0:
        raise PreconditionError("coefficient_values requires N >= 0")
    return mc.map_replicates(_coeff_value, (N,), seed, samples, workers)


def circle_mean_closed_form(K: float, r: float) -> float:
    """E[|F_K(r e^{i theta})|^2] = exp(sum_{k<=K} r^{2k}/k), any theta."""
    if not r > 0:
        raise PreconditionError("circle_mean_closed_form requires r > 0")
    m = _int_floor(K)
    if m < 1:
        return 1.0
    k = np.arange(1, m + 1, dtype=float)
    return float(math.exp(np.sum(r ** (2.0 * k) / k)))


def _sq_modulus_at_radius(stream, count, K, r):
    # |F_K(r)|^2 = exp(2 Re sum_k X(k) r^k / sqrt(k)); scalar per sample
    m = _int_floor(K)
    if m < 1:
        return np.ones(count)
    x = stream.draw(count * m).reshape(count, m)
    k = np.arange(1, m + 1, dtype=float)
    coef = r ** k / np.sqrt(k)
    return np.exp(2.0 * (x.real @ coef))


def circle_mean_mc(K: float, r: float, samples: int, seed: Seed,
                   workers: int = 1) -> MomentEstimate:
    """Direct Monte Carlo of E[|F_K(r)|^2] (heavy-tailed; compare at 5 sigma)."""
    if not r > 0:
        raise PreconditionError("circle_mean_mc requires r > 0")
    values = mc.map_chunks(_sq_modulus_at_radius, (K, r), seed, samples, workers)
    return mc.from_values(values, 1.0, seed)


def truncation_degree(K: float, r: float) -> int:
    """Smallest degree D with r^{2D}/(1-r^2) below the relative tail target.

    The expected Parseval tail past D is at most sum_{n>D} r^{2n}, in units
    of the closed-form mean, so this caps the truncation error of the
    circle average at _TAIL_RELATIVE.
    """
    if not 0 < r < 1:
        raise PreconditionError("truncation_degree requires 0 < r < 1")
    target = math.log(_TAIL_RELATIVE * (1.0 - r * r)) / (2.0 * math.log(r))
    return max(1, int(math.ceil(target)))


def circle_average_sample(K: float, r: float, stream: GaussianStream,
                          D: int | None = None) -> float:
    """One sample of (1/2pi) int |F_K(r e^{i theta})|^2 dtheta.

    Computed as sum_{n<=D} |c_n|^2 r^{2n} from the coefficients of F_K. For
    r < 1 the default D makes the dropped tail relatively smaller than
    1e-9; at r = 1 there is no convergent tail and an explicit D is
    required (the result is then the circle average of the degree-D
    truncation of F_K).
    """
    if not 0 < r <= 1:
        raise PreconditionError("circle_average_sample requires 0 < r <= 1")
    if D is None:
        if r == 1.0:
            raise PreconditionError("r = 1 needs an explicit truncation degree D")
        D = truncation_degree(K, r)
    coeffs = exp_array(_input_series(stream, D, K), D)
    power = r ** (2.0 * np.arange(D + 1))
    return float(np.sum(np.abs(coeffs) ** 2 * power))


def _circle_average_rep(stream, K, r, D):
    return circle_average_sample(K, r, stream, D)


def circle_average_moment(K: float, r: float, samples: int, seed: Seed,
                          D: int | None = None, workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of the circle average (q = 1 moment)."""
    values = mc.map_replicates(_circle_average_rep, (K, r, D), seed, samples, workers)
    return mc.from_values(values, 1.0, seed)


@dataclass(frozen=True)
class DecayRow:
    N: int
    samples: int
    mean: float
    std_error: float
    compensated: float
    seed: Seed


def fit_decay_band(N_grid, S_per_N, seed: Seed,
                   workers: int = 1) -> tuple[list[DecayRow], float]:
    """First-moment table E|A(N)| with the (log N)^{1/4}-compensated column.

    Returns the per-N rows and the max/min ratio of the compensated column
    over the whole grid. The decay constants are not pinned by theory, so
    the ratio is reported for banding rather than compared to a constant
    here.
    """
    grid = list(N_grid)
    counts = list(S_per_N)
    if len(grid) != len(counts):
        raise PreconditionError("N_grid and S_per_N must have equal length")
    if any(n < 2 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise PreconditionError("fit_decay_band requires an increasing grid of N >= 2")
    rows = []
    for index, (n, count) in enumerate(zip(grid, counts)):
        child = split(seed, index)
        est = estimate_moment(n, 0.5, count, child, workers=workers)
        comp = est.mean * math.log(n) ** 0.25
        rows.append(DecayRow(n, count, est.mean, est.std_error, comp, child))
    comps = [row.compensated for row in rows]
    return rows, max(comps) / min(comps)


def theorem_band_factor(N: int, q: float) -> float:
    """((1-q) sqrt(log N) + 1)^q, the reciprocal of the moment's target scale."""
    return ((1.0 - q) * math.sqrt(math.log(N)) + 1.0) ** q


def gaussian_abs_moment(q: float) -> float:
    """E[|Z|^{2q}] = Gamma(q+1) for a standard complex Gaussian Z.

    |Z|^2 is Exp(1)-distributed; the value satisfies Gamma(q+1) >= 2^{q-1}
    for 0 <= q <= 1, the lower-bound constant used when conditioning the
    top band of the coefficient on the low-frequency field.
    """
    if q < 0:
        raise PreconditionError("gaussian_abs_moment requires q >= 0")
    return math.gamma(q + 1.0)
