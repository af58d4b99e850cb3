"""Gaussian-walk barriers, tilted expectations, and bivariate block bounds.

The recurring objects:

* Ballot walks: P(sum_{m<=j} G_m <= A for all j <= n) for independent
  centered Gaussians G_m, estimated by Monte Carlo at several heights A
  from one set of walks. The classical scale of this probability is
  min(1, A/sqrt(n)).

* Barrier events on the chaos field: with checkpoints at n = 1, 2, ...
  the partial sums sum_{k<e^n} (Re(X(k) r^k e^{ik theta})/sqrt(k)
  - r^{2k}/k) must stay below A + 10 log n (upper variant, event G) or
  A - 5 log n (lower variant, event L, checked up to the horizon K_r
  where log K_r is the largest integer with e^{log K_r} <= min(-1/(4 log
  r), K)). Re(X(k) e^{ik theta}) has the law of Re X(k), so one event
  has the same law at every theta, and it is estimated at theta = 0;
  only the block statistics and the two tilted walks read an angle.

* The change-of-measure identity: E[1_G(theta=0) |F_K(r)|^2] equals
  exp(sum_{k<=K} r^{2k}/k) times the probability that a *centered* walk
  with steps y_k r^k/sqrt(k), Var y_k = 1/2, respects the same barrier --
  completing the square turns the |F|^2 weight into a mean shift.

* Block statistics: over k in [e^{m-1}, e^m) the two walk increments
  Z_0(m) and Z_theta(m) form a bivariate normal pair with common variance
  sigma_m^2 = sum r^{2k}/(2k) and covariance sum r^{2k} cos(k theta)/(2k),
  whose modulus is at most pi/(|theta| e^{m-1}). A correlated pair's
  density is dominated pointwise by sqrt((1+|rho|)/(1-|rho|)) times an
  independent pair with variances inflated by (1+|rho|).

Blocks use the exact integer ranges ceil(e^{m-1}) <= k <= ceil(e^m) - 1,
so block m covers precisely the integers k < e^m not covered before.
A walk read only at block ends (one-angle events, both sides of the change
of measure, the two tilted walks) is drawn as its block sums, independent
N(0, sigma_m^2), and tested raw against levels raised by the drift
2 * cumsum(sigma_m^2); the change of measure's left side, which also reads
the walk at K, draws one more sum for the tail past the last block end.
These walks are drawn step-major from real ziggurat normals, one row of a
chunk's walks per step, and summed with one contiguous add per step
(_walks, _accumulate); the kernels read them as (walks, steps) views.
The ballot, whose walks are long, draws and sums its steps in slices of
mc.SPAN_BLOCK values and keeps only each walk's running maximum. Only the
all-angle grid draws complex X(k) per k, in slices of rows. Split draws,
carried sums and running maxima give the bits of the whole chunk.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import chaos, mc
from .chaos import _int_floor
from .errors import PreconditionError
from .mc import MomentEstimate
from .rng import Seed, split

_R_TOL = 1e-12
VARIANCE_RANGE = (1.0 / 20.0, 20.0)


def block_bounds(m: int) -> tuple[int, int]:
    """Inclusive integer range [ceil(e^{m-1}), ceil(e^m) - 1] of block m."""
    return int(math.ceil(math.e ** (m - 1))), int(math.ceil(math.e**m)) - 1


def _reduced_angle(theta: float) -> float:
    """|theta| reduced to [0, pi]: cos(k theta) depends only on theta mod 2 pi."""
    return abs(math.remainder(theta, 2.0 * math.pi))


def log_horizon(r: float, K: float) -> int:
    """log K_r: the largest integer with e^{log K_r} <= min(-1/(4 log r), K)."""
    return _int_floor(math.log(min(-1.0 / (4.0 * math.log(r)), K)))


# ---------------------------------------------------------------------------
# barrier levels and survival


def _heights(A, samples: int = 1) -> np.ndarray:
    """The barrier heights A as a 1-D float array: at least one, each >= 1.

    The (samples, heights) indicators an estimator returns are budgeted
    here, before anything is drawn.
    """
    heights = np.asarray(A, dtype=float)
    if heights.ndim != 1 or heights.size == 0:
        raise PreconditionError("need at least one barrier height")
    if not np.all(heights >= 1.0):  # NaN fails too
        raise PreconditionError("barrier height must be >= 1")
    chaos.check_field_budget(samples, heights.size)
    return heights


def _levels(heights, n_max, slope):
    """(heights, n_max) levels height + slope * log j at checkpoints j = 1..n_max."""
    chaos.check_field_budget(heights.size, n_max)
    logs = np.array([math.log(j) for j in range(1, n_max + 1)])
    return heights[:, None] + slope * logs


def _survival(paths, levels):
    """(rows, heights) flags that a row of paths stays at or below a row of
    levels at every checkpoint, folded in one checkpoint at a time."""
    ok = np.ones((paths.shape[0], levels.shape[0]), dtype=bool)
    for j in range(paths.shape[1]):
        ok &= paths[:, j, None] <= levels[:, j]
    return ok


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
    chaos.check_field_budget(count, n)
    steps = stream.draw_real(count * n).reshape(n, count)
    steps *= sigmas[:, None]
    return _accumulate(steps).T


def _per_height(values, seed) -> list[MomentEstimate]:
    """One estimate per column of a (samples, heights) indicator array."""
    return [mc.from_values(values[:, i], seed) for i in range(values.shape[1])]


# ---------------------------------------------------------------------------
# ballot walks


def _ballot_chunk(stream, count, heights, sigmas):
    """Flags that each of count walks stays at or below each flat height: a
    walk survives iff its maximum does. The steps are drawn and summed as in
    _walks, in slices of mc.SPAN_BLOCK // count steps (at least one), each
    slice's first step adding the last partial sums of the one before, and
    only each walk's running maximum is kept."""
    n = sigmas.size
    chaos.check_field_budget(count, n)
    rows = max(1, mc.SPAN_BLOCK // count)
    peak, last = np.full(count, -np.inf), np.empty(count)
    for lo in range(0, n, rows):
        steps = stream.draw_real(count * min(rows, n - lo)).reshape(-1, count)
        steps *= sigmas[lo : lo + rows, None]
        if lo:
            steps[0] += last
        _accumulate(steps)
        np.maximum(peak, steps.max(axis=0), out=peak)
        last[:] = steps[-1]
    return _survival(peak[:, None], heights[:, None])


def ballot_probability_mc(A: Sequence[float], block_variances, samples: int,
                          seed: Seed, workers: int = 1) -> list[MomentEstimate]:
    """Monte Carlo estimates of the barrier-survival probability at each height in A.

    The walk takes one step per variance: step m is an independent centered
    Gaussian with variance block_variances[m - 1]. Variances must lie in
    [1/20, 20], the range in which the min(1, A/sqrt(n)) scale is
    guaranteed. All heights share the same draws, so the estimates are
    monotone in A sample by sample.
    """
    variances = np.asarray(block_variances, dtype=float)
    heights = _heights(A, samples)
    if variances.size == 0:
        raise PreconditionError("need at least one step variance")
    lo, hi = VARIANCE_RANGE
    if not np.all((lo <= variances) & (variances <= hi)):  # NaN fails too
        raise PreconditionError(f"step variances must lie in [{lo}, {hi}]")
    if samples < 100:
        raise PreconditionError("ballot_probability_mc requires samples >= 100")
    values = mc.map_chunks(_ballot_chunk, (heights, np.sqrt(variances)),
                           seed, samples, workers)
    return _per_height(values, seed)


def ballot_scale(height: float, n: int) -> float:
    """min(1, height/sqrt(n)), the ballot probability's natural scale."""
    return min(1.0, height / math.sqrt(n))


# ---------------------------------------------------------------------------
# barrier events on the chaos field


def _event_levels(kind, r, K, heights) -> np.ndarray:
    """The (heights, n_max) levels of event G (A + 10 log n, n <= log K) or L
    (A - 5 log n, n <= log K_r) at each height A, validating (r, K) for the
    event before the heights."""
    if kind == "G":
        if not K >= 3:
            raise PreconditionError("event G requires K >= 3")
        if not 1.0 - _R_TOL <= r <= math.exp(1.0 / K) + _R_TOL:
            raise PreconditionError("event G requires 1 <= r <= e^{1/K}")
        return _levels(_heights(heights), _int_floor(math.log(K)), 10.0)
    if kind == "L":
        if not K >= 10:
            raise PreconditionError("event L requires K >= 10")
        if not math.exp(-1.0 / 40.0) - _R_TOL <= r < 1.0:
            raise PreconditionError("event L requires e^{-1/40} <= r < 1")
        return _levels(_heights(heights), log_horizon(r, K), -5.0)
    raise PreconditionError("kind must be 'G' or 'L'")


def _budget_top(count: int) -> int:
    """The block (or grid) to budget in place of the widest of 1..count: every
    one from log FIELD_BUDGET + 2 on is over the budget, and a later one's
    e^m may overflow a float (m >= 710) or print hundreds of digits."""
    return min(count, int(math.log(chaos.FIELD_BUDGET)) + 2)


def _block_variances(r: float, n_max: int) -> np.ndarray:
    """sigma_m^2 = sum_{k in block m} r^{2k}/(2k) for m = 1..n_max: the variances
    of the centered walk's block sums (half the drift), one block at a time."""
    lo, hi = block_bounds(_budget_top(n_max))
    chaos.check_field_budget(1, hi - lo + 1)  # the widest block, the last
    return np.array([np.sum(chaos.walk_variances(r, *block_bounds(m)))
                     for m in range(1, n_max + 1)])


def _event_chunk(stream, count, sigmas, levels):
    """Indicators, one column per row of levels (raised by the block drift)."""
    return _survival(_walks(stream, count, sigmas), levels)


def event_probability_mc(kind: str, K: float, r: float, A: Sequence[float],
                         samples: int, seed: Seed,
                         workers: int = 1) -> list[MomentEstimate]:
    """Empirical probability of event G or L at each height in A.

    The walk is drawn as its block sums at theta = 0; Re(X(k) e^{ik theta})
    has the law of Re X(k), so the estimates hold at every angle. All heights
    share the same draws, so the estimates are monotone in A sample by sample
    (a higher barrier can only keep more paths).
    """
    mc.check_samples(samples)  # before the O(K) block variances
    levels = _event_levels(kind, r, K, _heights(A, samples))
    variances = _block_variances(r, levels.shape[1])
    levels += 2.0 * np.cumsum(variances)  # the drift moves to the levels
    values = mc.map_chunks(_event_chunk, (np.sqrt(variances), levels), seed, samples,
                           workers)
    return _per_height(values, seed)


def _grid_size(n: int) -> int:
    """ceil(n e^n), the number of angles of checkpoint n's grid."""
    return int(math.ceil(n * math.e**n))


def _grid_event_chunk(stream, count, r, levels):
    """Indicators of the all-angle event on the per-checkpoint angle grids,
    one column per row of levels (raised by the block drift).

    Checkpoint n uses ceil(n e^n) uniform angles; the field values on the
    grid come from one inverse FFT per checkpoint, whose maximum is the
    walk's value there. The rows run in slices of mc.SPAN_BLOCK // ceil(n_max
    e^n_max) rows (at least one): each slice draws its rows of X(k) in order
    and runs every checkpoint on them, with the bits of the whole chunk.
    """
    n_max = levels.shape[1]
    kmax = block_bounds(n_max)[1]
    rows = max(1, mc.SPAN_BLOCK // _grid_size(n_max))
    peaks = np.empty((count, n_max))
    for lo in range(0, count, rows):
        x, _, coef = chaos.field_rows(stream, min(rows, count - lo), r, 1, kmax)
        x *= coef
        for n in range(1, n_max + 1):
            _, hi = block_bounds(n)
            grid = _grid_size(n)
            padded = np.zeros((len(x), grid), dtype=np.complex128)
            padded[:, 1 : hi + 1] = x[:, :hi]
            # in place; scaling by grid > 0 after the max rounds the same values
            np.fft.ifft(padded, axis=1, out=padded)
            peaks[lo : lo + len(x), n - 1] = padded.real.max(axis=1) * grid
    return _survival(peaks, levels)


def event_G_all_angles_mc(K: float, r: float, A: Sequence[float], samples: int,
                          seed: Seed, workers: int = 1) -> list[MomentEstimate]:
    """Empirical probability that the upper barrier holds for every grid angle,
    at each height in A.

    All heights share the same draws, so the estimates are monotone in A
    sample by sample.
    """
    mc.check_samples(samples)  # before the O(K) block variances
    levels = _event_levels("G", r, K, _heights(A, samples))
    # a chunk's draws at the widest grid, the last, before any map runs
    n_max, chunk = levels.shape[1], 512
    chaos.check_field_budget(min(samples, chunk), _grid_size(_budget_top(n_max)))
    levels += 2.0 * np.cumsum(_block_variances(r, n_max))
    values = mc.map_chunks(_grid_event_chunk, (r, levels), seed, samples, workers,
                           chunk=chunk)
    return _per_height(values, seed)


# ---------------------------------------------------------------------------
# change of measure


def _com_left_chunk(stream, count, sigmas, levels):
    """|F_K(r)|^2 = exp(2 walk[K]), zeroed where the walk leaves the levels
    (raised by the block drift) at a block end; its last sum is the tail."""
    walk = _walks(stream, count, sigmas)
    ok = _survival(walk[:, :-1], levels)[:, 0]
    return np.where(ok, np.exp(2.0 * walk[:, -1]), 0.0)


def _com_right_chunk(stream, count, sigmas, levels):
    return _event_chunk(stream, count, sigmas, levels)[:, 0]


def change_of_measure_check(K: float, r: float, A: float, samples_left: int,
                            samples_right: int, seed: Seed,
                            workers: int = 1) -> tuple[MomentEstimate, MomentEstimate]:
    """Estimate both sides of the tilting identity at theta = 0.

    Left: E[1_G |F_K(r)|^2] by direct Monte Carlo. Right: exp(sum_{k<=K}
    r^{2k}/k) times the Monte Carlo probability that the centered walk
    y_k r^k/sqrt(k) (Var y_k = 1/2) respects the A + 10 log n barrier,
    drawn as its block sums, one per checkpoint. The two are equal in
    expectation and serve as each other's oracle.
    """
    levels = _event_levels("G", r, K, [A])
    # both up front: the right map would refuse its count after the left ran
    mc.check_samples(samples_left)
    mc.check_samples(samples_right)
    n_max = levels.shape[1]
    variances = _block_variances(r, n_max)
    # the walk's variance past the last block end, up to K
    tail = np.sum(chaos.walk_variances(r, block_bounds(n_max)[1] + 1, _int_floor(K)))
    seed_left, seed_right = split(seed, 0), split(seed, 1)
    left_values = mc.map_chunks(_com_left_chunk, (np.sqrt(np.append(variances, tail)),
                                                  levels + 2.0 * np.cumsum(variances)),
                                seed_left, samples_left, workers)
    left = mc.from_values(left_values, seed_left)
    right_values = mc.map_chunks(_com_right_chunk, (np.sqrt(variances), levels),
                                 seed_right, samples_right, workers)
    prob = mc.from_values(right_values, seed_right)
    scale = math.exp(2.0 * (np.sum(variances) + tail))
    right = MomentEstimate(scale * prob.mean, scale * prob.std_error,
                           prob.samples, seed_right)
    return left, right


# ---------------------------------------------------------------------------
# block statistics and the bivariate bounds


@dataclass(frozen=True)
class WalkBlocks:
    """Deterministic per-block statistics of the two walk increments.

    Arrays are indexed by block number m = 1..m_max: block m covers the
    integers k in block_bounds(m) and carries variance sigma2[m-1] and
    correlation rho[m-1] between the straight and angle-rotated increments.
    """

    r: float
    theta: float
    K_r: float
    log_K_r: int
    M: int
    sigma2: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)

    @property
    def m_max(self) -> int:
        return self.sigma2.size

    def covariance(self, m: int) -> float:
        return float(self.rho[m - 1] * self.sigma2[m - 1])

    def covariance_bound(self, m: int) -> float:
        """pi/(|theta| e^{m-1}) for theta reduced to [-pi, pi], valid for every
        block when 0 < r < 1 (cos(k theta) depends only on theta mod 2 pi)."""
        reduced = _reduced_angle(self.theta)
        if reduced == 0.0:
            return math.inf
        return math.pi / (reduced * math.e ** (m - 1))

    def variance_bounds(self, m: int) -> tuple[float, float]:
        """[1/4, 1/2 + 1/(2 e^{m-1})], valid for blocks with e^m <= K_r."""
        return 0.25, 0.5 + 0.5 * math.e ** -(m - 1)


def block_stats(r: float, theta: float, K: float, m_max: int | None = None) -> WalkBlocks:
    """Compute the horizon K_r, the split index M, and per-block sigma/rho.

    M is the smallest integer with e^M >= min(1000/|theta|, K_r/e) for theta
    reduced to [-pi, pi]; at a reduced angle of 0 only the K_r/e branch
    applies.
    """
    if not 0.0 < r < 1.0:
        raise PreconditionError("block_stats requires 0 < r < 1")
    if not K > 0.0:
        raise PreconditionError("block_stats requires K > 0")
    if m_max is not None and m_max < 1:
        raise PreconditionError("block_stats requires m_max >= 1")
    log_K_r = log_horizon(r, K)
    count = m_max if m_max is not None else log_K_r
    if count < 0:
        raise PreconditionError("the horizon K_r is below 1: pass m_max")
    # budget the widest block, the last, before any is built
    top = _budget_top(count)
    if top:
        top_lo, top_hi = block_bounds(top)
        chaos.check_field_budget(1, top_hi - top_lo + 1)
    kmax = block_bounds(count)[1]
    # inf * 0 and NaN * 0 are NaN, so kmax = 0 still refuses them
    if not math.isfinite(theta * kmax):
        raise PreconditionError(f"block_stats requires theta * k finite for k <= {kmax}, "
                                f"got theta = {theta}")
    K_r = math.e**log_K_r
    reduced = _reduced_angle(theta)
    if reduced == 0.0:
        anchor = K_r / math.e
    else:
        anchor = min(1e3 / reduced, K_r / math.e)
    M = max(1, -_int_floor(-math.log(anchor)))  # the guarded ceil of log(anchor)
    sigma2 = np.empty(count)
    rho = np.empty(count)
    for m in range(1, count + 1):
        lo, hi = block_bounds(m)
        weights = chaos.walk_variances(r, lo, hi)
        sigma2[m - 1] = total = np.sum(weights)
        k = np.arange(lo, hi + 1, dtype=float)
        if not total > 0:  # every weight underflowed: rescale them by the largest
            for start in range(0, k.size, mc.SPAN_BLOCK):
                part = slice(start, start + mc.SPAN_BLOCK)  # no view outlives the loop
                np.log(np.multiply(k[part], 2.0, out=weights[part]), out=weights[part])
                # 2 log r is exact, so these are the bits of 2k * log r
                np.subtract(k[part] * (2.0 * math.log(r)), weights[part], out=weights[part])
            weights -= np.max(weights)
            total = np.sum(np.exp(weights, out=weights))
        k *= theta  # the terms weights * cos(theta k), in place on the k row
        np.cos(k, out=k)
        k *= weights
        rho[m - 1] = np.sum(k) / total
        del weights, k  # free this block's two rows before the next's are built
    return WalkBlocks(r=r, theta=theta, K_r=K_r, log_K_r=log_K_r, M=M,
                      sigma2=sigma2, rho=rho)


@dataclass(frozen=True)
class BivariateParams:
    """Means, variances, and correlation of a nondegenerate normal pair."""

    mu1: float
    mu2: float
    sigma1_sq: float
    sigma2_sq: float
    rho: float

    def __post_init__(self):
        if not (0 < self.sigma1_sq < math.inf and 0 < self.sigma2_sq < math.inf):
            raise PreconditionError("variances must be positive and finite")
        if not abs(self.rho) < 1.0:
            raise PreconditionError("|rho| must be < 1 (degenerate pairs rejected)")


def _standardized(p: BivariateParams, x1, x2):
    """The standard deviations s1, s2 and the standardized points u, v."""
    s1, s2 = math.sqrt(p.sigma1_sq), math.sqrt(p.sigma2_sq)
    return (s1, s2, (np.asarray(x1, dtype=float) - p.mu1) / s1,
            (np.asarray(x2, dtype=float) - p.mu2) / s2)


def bivariate_density(p: BivariateParams, x1, x2):
    """Density of the correlated normal pair at (x1, x2)."""
    s1, s2, u, v = _standardized(p, x1, x2)
    norm = 1.0 / (2.0 * math.pi * s1 * s2 * math.sqrt(1.0 - p.rho**2))
    quad = (u * u - 2.0 * p.rho * u * v + v * v) / (2.0 * (1.0 - p.rho**2))
    return norm * np.exp(-quad)


def dominating_density(p: BivariateParams, x1, x2):
    """Pointwise majorant: sqrt((1+|rho|)/(1-|rho|)) times the density of an
    independent pair with variances inflated by (1+|rho|)."""
    s1, s2, u, v = _standardized(p, x1, x2)
    a = abs(p.rho)
    prefactor = math.sqrt((1.0 + a) / (1.0 - a))
    norm = 1.0 / (2.0 * math.pi * s1 * s2 * (1.0 + a))
    return prefactor * norm * np.exp(-(u * u + v * v) / (2.0 * (1.0 + a)))


# ---------------------------------------------------------------------------
# the two-walk tilted expectation


def _two_walk_chunk(stream, count, sigmas, rho, levels):
    """Tilted weights, zeroed where either walk leaves the one row of levels
    (one column per block M+1..log K_r). Block m's pair (Z_0, Z_theta) is
    sigma_m (g, rho_m g + sqrt(1 - rho_m^2) g') for independent N(0, 1) g, g'."""
    n = sigmas.size
    chaos.check_field_budget(count, 2 * n)
    # step-major, as _walks: row j holds both walks' step j
    z = stream.draw_real(2 * count * n).reshape(n, 2, count)
    z *= sigmas[:, None, None]
    z[:, 1] *= np.sqrt(1.0 - rho**2)[:, None]
    z[:, 1] += rho[:, None] * z[:, 0]
    walks = _accumulate(z)
    weight = np.exp(2.0 * (walks[-1, 0] + walks[-1, 1]))
    ok = _survival(walks[:, 0].T, levels)[:, 0] & _survival(walks[:, 1].T, levels)[:, 0]
    return np.where(ok, weight, 0.0)


def two_walk_tilted_expectation(r: float, theta: float, K: float, level: float,
                                samples: int, seed: Seed,
                                workers: int = 1) -> MomentEstimate:
    """E[1_E prod_{M<m<=log K_r} exp(2 Z_0(m) + 2 Z_theta(m))] by Monte Carlo.

    E is the event that both centered walks, started at e^M, stay below
    `level` at every block checkpoint; level = inf gives the unconstrained
    expectation. With no blocks (M >= log K_r) the empty product gives
    exactly 1.
    """
    mc.check_samples(samples)  # the no-block case below returns without a map
    if math.isnan(level):
        raise PreconditionError("the barrier level must not be NaN")
    blocks = block_stats(r, theta, K)
    if blocks.M >= blocks.log_K_r:
        return MomentEstimate(1.0, 0.0, samples, seed)
    sigma2, rho = blocks.sigma2[blocks.M :], blocks.rho[blocks.M :]
    levels = level + 2.0 * np.cumsum(sigma2)[None, :]  # the drift moves to the level
    values = mc.map_chunks(_two_walk_chunk, (np.sqrt(sigma2), rho, levels),
                           seed, samples, workers)
    return mc.from_values(values, seed)


def two_walk_shape_scale(blocks: WalkBlocks, level: float) -> float:
    """(K_r^2/e^{2M}) ((1 + max(0, level))/sqrt(1 + log(K_r/e^M)))^2.

    The shape of the tilted expectation's upper bound, up to a constant
    that is not pinned here.
    """
    gap = blocks.log_K_r - blocks.M
    return (blocks.K_r**2 / math.e ** (2 * blocks.M)
            * ((1.0 + max(0.0, level)) / math.sqrt(1.0 + gap)) ** 2)
