"""Samplers and estimators for the chaos coefficients A(n).

The model: with independent standard complex Gaussians X(k),

    exp( sum_{k<=K} X(k) z^k / sqrt(k) ) = sum_n A(n) z^n,

so A(n) for n <= K is a polynomial in the X's with E[|A(n)|^2] = 1. This
module samples A(N), estimates the moments E[|A(N)|^{2q}] for 0 <= q <= 1,
evaluates the exact circle-average mean E[|F_K(r e^{i theta})|^2]
= exp(sum_{k<=K} r^{2k}/k), computes per-sample circle averages through
the Parseval power sum, and estimates the first moment over a grid of N.
The moment and circle-average kernels take a span of replicates at a time
and stack them into blocks of at most EXP_BLOCK values of exp_array's
working width, one exp_array call per block. Each block's inputs are drawn
at once: rng.fill_rows has every stream write its uniforms into its row,
then one Box-Muller pass and one division by sqrt(k) run over the block.

It is also the one home of the field: field_rows draws rows of X(lo..hi)
with the weights r^k/sqrt(k), within FIELD_BUDGET, and only the barrier's
all-angle grid samples the field.
The real walk sum_k Re X(k) r^k/sqrt(k) has N(0, r^{2k}/(2k)) steps, whose
variances walk_variances builds; _walks draws sums of them, such as block sums,
step-major from the stream's real (ziggurat) draws.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from . import mc
from .errors import BudgetError, PreconditionError
from .mc import MomentEstimate
from .rng import Seed, Stream, box_muller, fill_rows, split
from .series import FIELD_BUDGET, exp_array, exp_width, parseval_power_sum

_FLOOR_GUARD = 1e-9  # absorbs ulp noise when K sits exactly on an integer
_TAIL_RELATIVE = 1e-9
# Cap on the values of one row-stacked exp call, rows x exp_width(N). Below
# EXP_LEAF a block's rows share each step of the recurrence, so a bigger
# block is faster and costs peak memory (at 2^15 the chaos-mc benchmark ran
# 63% faster at +2.9% peak RSS on a 2-core Xeon); above it each row runs on
# its own circle of M points.
EXP_BLOCK = 2**15


def _int_floor(x: float) -> int:
    """floor(x), guarded against ulp noise; a non-finite x is refused."""
    if not math.isfinite(x):
        raise PreconditionError(f"a finite value is required, got {x}")
    return int(math.floor(x + _FLOOR_GUARD))


def check_field_budget(rows: int, width: int) -> None:
    """Refuse a (rows, width) block above FIELD_BUDGET values before it exists."""
    if rows * width > FIELD_BUDGET:
        raise BudgetError(f"a {rows} x {width} block exceeds the budget of "
                          f"{FIELD_BUDGET} values")


def field_weights(r: float, lo: int, hi: int):
    """k = lo..hi with the field's weights r^k/sqrt(k)."""
    k = np.arange(lo, hi + 1, dtype=float)
    return k, r**k / np.sqrt(k)


def walk_variances(r: float, lo: int, hi: int):
    """2k and the real walk's step variances r^{2k}/(2k) for k = lo..hi, built
    in place: two rows, the one row budgeted first. An empty range is allowed."""
    check_field_budget(1, max(hi - lo + 1, 0))
    two_k = np.arange(lo, hi + 1, dtype=float)
    two_k *= 2.0
    weights = np.power(r, two_k)
    weights /= two_k
    return two_k, weights


def field_rows(stream, count: int, r: float, lo: int, hi: int):
    """count rows of X(lo..hi) from `stream`, with field_weights(r, lo, hi).

    Row i holds draws i*width .. (i+1)*width - 1 of the stream; an empty
    range gives rows of width 0. The block is budgeted before it is drawn.
    """
    width = max(hi - lo + 1, 0)
    check_field_budget(count, width)
    x = stream.draw(count * width).reshape(count, width)
    return (x, *field_weights(r, lo, hi))


def _accumulate(steps):
    """Running sums along axis 0 of a step-major array, in place: one
    contiguous add per step, in np.cumsum's order along each walk."""
    for j in range(1, len(steps)):
        np.add(steps[j], steps[j - 1], out=steps[j])
    return steps


def _walks(stream, count, sigmas):
    """count walks of independent centered Gaussian steps with standard
    deviations sigmas, at every step: a (count, sigmas.size) view.

    The steps are drawn step-major, row j holding the count walks' step j
    scaled by sigmas[j], and accumulated row by row; the view is the
    transpose, so walk i is column i of the draws."""
    n = sigmas.size
    check_field_budget(count, n)
    steps = stream.draw_real(count * n).reshape(n, count)
    steps *= sigmas[:, None]
    return _accumulate(steps).T


def _input_rows(streams, N: int, K: float) -> np.ndarray:
    """Coefficient vectors of sum_{k<=min(K,N)} X(k) z^k / sqrt(k), one row
    for each of the next EXP_BLOCK // exp_width(N) streams (at least one;
    fewer if `streams` runs out): one block of exp_array's inputs.

    fill_rows has each stream write its uniforms straight into its row, in
    order; one box_muller pass (one unit_circle pass over the block, which
    takes each tile's radii with its angles) turns the block into draws in
    place, as `stream.draw(m)` does for its one row, and one in-place
    division scales them, with the bits of `stream.draw(m) / scale` row by
    row. N < 0 is refused, and the N + 1 coefficients of a row are budgeted
    (exp_width refuses a width above FIELD_BUDGET), before anything is
    drawn.
    """
    if N < 0:
        raise PreconditionError(f"the exp degree must be >= 0, got {N}")
    check_field_budget(1, N + 1)
    rows = max(1, EXP_BLOCK // exp_width(N))
    m = N if K >= N else max(_int_floor(K), 0)  # K = inf is the untruncated model
    s = np.zeros((rows, N + 1), dtype=np.complex128)
    pairs = s.view(np.float64).reshape(rows, N + 1, 2)[:, 1 : m + 1]
    count = fill_rows(streams, pairs)
    box_muller(pairs[:count])
    s = s[:count]
    s[:, 1 : m + 1] /= np.sqrt(np.arange(1, m + 1))
    return s


def sample_A(N: int, K: float, stream: Stream) -> np.ndarray:
    """One draw of the coefficients A(0..N) of the degree-K truncated model.

    Coefficients of degree n <= K depend only on X(1..n), so any K >= N
    yields the untruncated law of A(N).
    """
    if N < 0 or not K >= 1:
        raise PreconditionError("sample_A requires N >= 0 and K >= 1")
    return _exp_rows([stream], N, K, lambda row: row)[0]


def _exp_rows(streams, N: int, K: float, statistic) -> list:
    """statistic(row) for each row of exp of the streams' input series to
    degree N, one exp_array call per _input_rows block."""
    streams = iter(streams)
    values = []
    while len(block := _input_rows(streams, N, K)):
        values += map(statistic, exp_array(block, N))
    return values


def _coefficient(streams, N, power):
    """|A(N)|**power of the untruncated model for each stream.

    abs runs value by value: np.abs over the array rounds differently.
    """
    values = _exp_rows(streams, N, float(N), itemgetter(N))
    return [abs(value) ** power for value in values]


def estimate_moment(N: int, q: float, samples: int, seed: Seed,
                    workers: int = 1) -> MomentEstimate:
    """Monte Carlo estimate of E[|A(N)|^{2q}]; replicate i uses split(seed, i)."""
    if N < 0:
        raise PreconditionError("estimate_moment requires N >= 0")
    if not 0.0 <= q <= 1.0:
        raise PreconditionError("estimate_moment requires 0 <= q <= 1")
    mc.check_samples(samples)
    values = mc.map_replicates(_coefficient, (N, 2.0 * q), seed, samples, workers)
    return mc.from_values(values, seed)


def _circle_variance(K: float, r: float) -> float:
    """sigma^2 = sum_{k<=K} r^{2k}/(2k), the variance of Re log F_K(r), refused
    unless exp(2 sigma^2) is a finite float."""
    if not r > 0:
        raise PreconditionError(f"the circle means require r > 0, got {r}")
    with np.errstate(over="ignore"):
        variance = float(np.sum(walk_variances(r, 1, _int_floor(K))[1]))
    if not 2.0 * variance < math.log(np.finfo(float).max):
        raise PreconditionError(f"exp(sum_{{k<=K}} r^{{2k}}/k) overflows at K = {K}, r = {r}")
    return variance


def circle_mean_closed_form(K: float, r: float) -> float:
    """E[|F_K(r e^{i theta})|^2] = exp(sum_{k<=K} r^{2k}/k), any theta."""
    return math.exp(2.0 * _circle_variance(K, r))


def _sq_modulus_at_radius(stream, count, sigma):
    # |F_K(r)|^2 = exp(2 Re sum_k X(k) r^k / sqrt(k)), the real walk at K: N(0, sigma^2)
    return np.exp(2.0 * _walks(stream, count, np.array([sigma]))[:, -1])


def circle_mean_mc(K: float, r: float, samples: int, seed: Seed,
                   workers: int = 1) -> MomentEstimate:
    """Direct Monte Carlo of E[|F_K(r)|^2] (heavy-tailed; compare at 5 sigma)."""
    sigma = math.sqrt(_circle_variance(K, r))
    mc.check_samples(samples)
    values = mc.map_chunks(_sq_modulus_at_radius, (sigma,), seed, samples, workers)
    return mc.from_values(values, seed)


def truncation_degree(r: float) -> int:
    """Smallest degree D with r^{2D}/(1-r^2) below the relative tail target.

    The expected Parseval tail past D is at most sum_{n>D} r^{2n}, in units
    of the closed-form mean, so this caps the truncation error of the
    circle average at _TAIL_RELATIVE.
    """
    if not 0 < r < 1:
        raise PreconditionError("truncation_degree requires 0 < r < 1")
    target = math.log(_TAIL_RELATIVE * (1.0 - r * r)) / (2.0 * math.log(r))
    return max(1, int(math.ceil(target)))


def _circle_degree(K: float, r: float, D: int | None) -> int:
    """The truncation degree of a circle average: D, or the r < 1 default."""
    if not 0 < r <= 1:
        raise PreconditionError("circle_average_moment requires 0 < r <= 1")
    if D is not None:
        return D
    if r == 1.0:
        raise PreconditionError("r = 1 needs an explicit truncation degree D")
    return truncation_degree(r)


def _circle_averages(streams, K, r, D):
    # one Parseval power sum per row, so each value is its 1-D sum
    return _exp_rows(streams, D, K, lambda row: parseval_power_sum(row, r))


def circle_average_moment(K: float, r: float, samples: int, seed: Seed,
                          D: int | None = None, workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of the circle average (q = 1 moment)."""
    D = _circle_degree(K, r, D)
    mc.check_samples(samples)
    values = mc.map_replicates(_circle_averages, (K, r, D), seed, samples, workers)
    return mc.from_values(values, seed)


def fit_decay_band(N_grid, S_per_N, seed: Seed, workers: int = 1) -> list[MomentEstimate]:
    """Estimates of the first moment E|A(N)|, one per N of the grid; the
    estimate at grid index i runs on split(seed, i).

    The decay constants are not pinned by theory, so the callers band the
    (log N)^{1/4}-compensated means over the N they choose rather than
    compare them with a constant here.
    """
    grid = list(N_grid)
    counts = list(S_per_N)
    if len(grid) != len(counts):
        raise PreconditionError("N_grid and S_per_N must have equal length")
    if not grid or any(n < 2 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise PreconditionError("fit_decay_band requires a non-empty increasing grid of N >= 2")
    return [estimate_moment(n, 0.5, count, split(seed, index), workers=workers)
            for index, (n, count) in enumerate(zip(grid, counts))]


def theorem_band_factor(N: int, q: float) -> float:
    """((1-q) sqrt(log N) + 1)^q, the reciprocal of the moment's target scale."""
    if not (N >= 1 and 0.0 <= q <= 1.0):
        raise PreconditionError(f"theorem_band_factor requires N >= 1 and 0 <= q <= 1, "
                                f"got N = {N}, q = {q}")
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
