import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import FixedStream
from hmchaos import barrier, chaos, mc
from hmchaos.barrier import (BivariateParams, _levels, ballot_probability_mc, ballot_scale,
                             bivariate_density, block_stats, change_of_measure_check,
                             dominating_density, event_G_all_angles_mc,
                             event_probability_mc, two_walk_shape_scale,
                             two_walk_tilted_expectation)
from hmchaos.chaos import circle_mean_closed_form
from hmchaos.errors import BudgetError, PreconditionError
from hmchaos.rng import Seed, Stream


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_barrier_heights_validation():
    for heights in ([], [0.5], [2.0, math.nan], [[2.0]], 2.0):
        with pytest.raises(PreconditionError):
            barrier._heights(heights)
    heights = barrier._heights((2, 1.0))
    assert heights.dtype == float and heights.tolist() == [2.0, 1.0]
    for slope in (10.0, -5.0):
        assert _levels(heights, 4, slope)[:, 0].tolist() == [2.0, 1.0]
    # the (samples, heights) indicators are budgeted before any draw
    barrier._heights([1.0] * 167, 100000)
    with pytest.raises(BudgetError):
        barrier._heights([1.0] * 168, 100000)


@pytest.mark.parametrize("slope", [0.0, 10.0, -5.0])
def test_barrier_levels_are_height_plus_slope_log_step(slope):
    levels = _levels(np.array([1.5, 3.0]), 50, slope)
    assert levels.shape == (2, 50)
    for height, row in zip((1.5, 3.0), levels):
        assert row.tolist() == [height + slope * math.log(j) for j in range(1, 51)]


def _survival_by_broadcast(paths, levels):
    # the all-steps test as one (rows, heights, steps) broadcast: the oracle
    # for _survival, which never holds that block
    return np.all(paths[:, None, :] <= levels, axis=2)


def test_survival_matches_the_broadcast_oracle():
    # ties (a path value equal to its level) survive, and both outcomes occur
    rows, heights, steps = 500, 7, 12
    paths = Stream(Seed(71)).draw_real(rows * steps).reshape(rows, steps)
    levels = _levels(np.linspace(1.0, 4.0, heights), steps, -0.5) - 2.0
    paths[::7, 3] = levels[2, 3]   # ties with height 2 at step 4
    paths[1::5] = levels[0]        # every step ties with height 0
    ok = barrier._survival(paths, levels)
    ref = _survival_by_broadcast(paths, levels)
    assert ok.dtype == ref.dtype and ok.shape == (rows, heights)
    assert ok.tobytes() == ref.tobytes()
    assert np.all(ok[1::5, 0])
    assert 0 < np.count_nonzero(ok) < ok.size
    assert all(0 < np.count_nonzero(ok[:, i]) < rows for i in range(1, heights))


def test_ballot_maximum_is_the_all_steps_test():
    # the flat ballot barrier tests each walk's maximum; the all-steps
    # broadcast on the same walks gives the same flags
    count, n = 3000, 40
    heights = np.array([1.0, 1.5, 2.0, 4.0])
    sigmas = np.sqrt(np.linspace(0.5, 2.0, n))
    flags = barrier._ballot_chunk(Stream(Seed(12)), count, heights, sigmas)
    steps = Stream(Seed(12)).draw_real(count * n).reshape(n, count).T * sigmas
    walks = np.cumsum(steps, axis=1)
    ref = _survival_by_broadcast(walks, _levels(heights, n, 0.0))
    assert flags.tobytes() == ref.tobytes()
    assert 0.0 < flags[:, 0].mean() < flags[:, -1].mean() < 1.0


def test_ballot_one_step_far_barrier():
    est = ballot_probability_mc([10.0], [0.5], 10000, Seed(1))[0]
    exact = normal_cdf(10.0 / math.sqrt(0.5))
    assert abs(est.mean - exact) <= max(4.0 * est.std_error, 1e-3)


def test_ballot_one_step_exact_normal():
    est = ballot_probability_mc([1.0], [0.5], 200000, Seed(3))[0]
    exact = normal_cdf(math.sqrt(2.0))  # ~0.9214
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_ballot_two_steps_match_the_bivariate_normal():
    # both partial sums of a two-step walk below A: the exact bivariate
    # normal probability (scipy), within 4 sigma
    v1, v2, A = 0.5, 2.0, 1.0
    est = ballot_probability_mc([A], [v1, v2], 200000, Seed(5))[0]
    exact = multivariate_normal(mean=[0.0, 0.0],
                                cov=[[v1, v1], [v1, v1 + v2]]).cdf([A, A])
    assert 0.0 < exact < 1.0
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_ballot_rejects_bad_input():
    with pytest.raises(PreconditionError):
        ballot_probability_mc([1.0], [0.01, 1.0], 1000, Seed(1))
    with pytest.raises(PreconditionError):
        ballot_probability_mc([1.0], [1.0, 25.0], 1000, Seed(1))
    with pytest.raises(PreconditionError):
        ballot_probability_mc([1.0], [1.0, 1.0], 50, Seed(1))
    for heights, variances in (([], [1.0, 1.0]), ([2.0, 0.5], [1.0, 1.0]),
                               ([1.0], [])):
        with pytest.raises(PreconditionError):
            ballot_probability_mc(heights, variances, 1000, Seed(1))


def test_ballot_band_small_grid():
    for a in (1.0, 2.0):
        previous = -1.0
        for n in (16, 64):
            est = ballot_probability_mc([a], [1.0] * n, 20000, Seed(900 + n))[0]
            ratio = est.mean / ballot_scale(a, n)
            assert 0.2 <= ratio <= 5.0
        # survival grows with the barrier height at fixed n
        lo = ballot_probability_mc([a], [1.0] * 64, 20000, Seed(42))[0].mean
        hi = ballot_probability_mc([a + 1.0], [1.0] * 64, 20000, Seed(42))[0].mean
        assert lo <= hi


def _checkpoint_sums_scalar(X, r, theta, n_max):
    """Centered checkpoint sums s_n = sum_{k<e^n} (Re(...) - r^{2k}/k)."""
    _, kmax = barrier.block_bounds(n_max)
    if len(X) < kmax:
        raise PreconditionError(f"need X(1..{kmax}) for {n_max} checkpoints")
    k = np.arange(1, kmax + 1, dtype=float)
    x = np.asarray(X[:kmax], dtype=np.complex128)
    terms = (x * np.exp(1j * theta * k)).real * r**k / np.sqrt(k) - r ** (2.0 * k) / k
    sums = np.empty(n_max)
    acc = 0.0
    for n in range(1, n_max + 1):
        lo, hi = barrier.block_bounds(n)
        acc += math.fsum(terms[lo - 1 : hi])
        sums[n - 1] = acc
    return sums


def event_holds(kind: str, X, r: float, theta: float, K: float, A: float) -> bool:
    """Whether X(1..) lies in event G (every checkpoint n <= log K stays below
    A + 10 log n) or L (every n <= log K_r below A - 5 log n), by fsum: the
    per-k oracle of the block-walk event kernels, behind the library's checks
    of (r, K), the height and theta."""
    levels = barrier._event_levels(kind, r, K, [A])[0]
    barrier._check_theta(f"event {kind}", theta, barrier.block_bounds(levels.size)[1])
    return bool(np.all(_checkpoint_sums_scalar(X, r, theta, levels.size) <= levels))


def test_event_G_zero_sample_holds():
    assert event_holds("G", np.zeros(64, dtype=complex), 1.0, 0.0, 20.0, 1.5)


def test_event_G_threshold_crossing():
    # K just above e so the only checkpoint is n=1 over k in {1, 2}
    x = np.zeros(8, dtype=complex)
    x[0] = 100.0
    assert not event_holds("G", x, 1.0, 0.0, 3.0, 1.0)


def test_event_G_validation():
    x = np.zeros(64, dtype=complex)
    with pytest.raises(PreconditionError):
        event_holds("G", x, 0.9, 0.0, 20.0, 1.5)
    with pytest.raises(PreconditionError):
        event_holds("G", x, 1.0, 0.0, 2.0, 1.5)
    with pytest.raises(PreconditionError):
        event_holds("G", x, 1.0, 0.0, 20.0, 0.5)
    with pytest.raises(PreconditionError):
        event_holds("G", np.zeros(2, dtype=complex), 1.0, 0.0, 20.0, 1.5)


def test_event_indicator_monotone_in_height():
    rng = Stream(Seed(404))
    for _ in range(50):
        x = rng.draw(8) * 3.0
        flags = [event_holds("G", x, 1.0, 0.3, 7.0, a) for a in (1.0, 2.0, 4.0)]
        assert all(not a or b for a, b in zip(flags, flags[1:]))


def test_event_failure_probability_nonincreasing_in_height():
    ests = event_probability_mc("G", math.e**6, 1.0, [1.0, 2.0, 4.0], 0.0,
                                100000, Seed(17))
    survival = [e.mean for e in ests]
    assert all(a <= b for a, b in zip(survival, survival[1:]))
    assert 1.0 - survival[0] > 0.0  # the lowest barrier does fail sometimes


def test_event_L_zero_sample_holds():
    assert event_holds("L", np.zeros(16, dtype=complex), math.exp(-1.0 / 40.0),
                       0.0, 100.0, 2.0)


def test_event_L_validation():
    x = np.zeros(16, dtype=complex)
    with pytest.raises(PreconditionError):
        event_holds("L", x, 0.9, 0.0, 100.0, 2.0)  # r below e^{-1/40}
    with pytest.raises(PreconditionError):
        event_holds("L", x, 1.0, 0.0, 100.0, 2.0)  # r must stay below 1
    with pytest.raises(PreconditionError):
        event_holds("L", x, math.exp(-1.0 / 40.0), 0.0, 5.0, 2.0)  # K too small


def test_lower_barrier_implies_upper_barrier():
    # on the same checkpoint sums, clearing A - 5 log n forces A + 10 log n
    rng = Stream(Seed(77))
    n_max = 3
    for _ in range(100):
        x = rng.draw(21) * 2.0
        sums = _checkpoint_sums_scalar(x, 0.99, 0.4, n_max)
        lower = bool(np.all(sums <= _levels(np.array([2.0]), n_max, -5.0)))
        upper = bool(np.all(sums <= _levels(np.array([2.0]), n_max, 10.0)))
        assert (not lower) or upper


@pytest.mark.parametrize("kind, K, r, theta", [
    ("G", 400.0, 1.0, 0.0), ("G", 400.0, 1.0, 0.7),
    ("L", 1e4, 0.99, 0.0), ("L", 1e4, 0.99, 1.3)])
def test_event_chunk_matches_scalar_oracle(kind, K, r, theta):
    # the kernel walks the block sums against levels raised by the block
    # drift; the fsum oracle gets the same walk with each block sum on the
    # block's first k (rotated back by theta) and subtracts the drift per k.
    # The draws are scaled up so that both outcomes occur; samples whose
    # checkpoint sum sits within 1e-9 of a level are skipped
    heights = (1.0, 2.0, 4.0)
    levels = barrier._event_levels(kind, r, K, heights)
    n_max = levels.shape[1]
    sigmas = np.sqrt(barrier._block_variances(r, n_max))
    count = 300
    g = 2.5 * Stream(Seed(61)).draw_real(count * n_max)
    flags = barrier._event_chunk(FixedStream(g), count, sigmas,
                                 levels + 2.0 * np.cumsum(sigmas**2))
    assert flags.shape == (count, len(heights))
    k = np.array([barrier.block_bounds(m)[0] for m in range(1, n_max + 1)], dtype=float)
    x = np.zeros((count, barrier.block_bounds(n_max)[1]), dtype=complex)
    x[:, k.astype(int) - 1] = (g.reshape(n_max, count).T * sigmas * np.sqrt(k) / r**k
                               * np.exp(-1j * theta * k))
    seen = set()
    for i in range(count):
        sums = _checkpoint_sums_scalar(x[i], r, theta, n_max)
        for j, a in enumerate(heights):
            if np.min(np.abs(sums - levels[j])) < 1e-9:
                continue
            expected = event_holds(kind, x[i], r, theta, K, a)
            assert flags[i, j] == expected
            seen.add(expected)
    assert seen == {True, False}


def _checkpoints(steps, last_block):
    """Walk values at the ends of blocks 1..last_block (column 0 of `steps` at
    k = 1): each block is summed pairwise, then the block sums are accumulated."""
    starts = [barrier.block_bounds(m)[0] - 1 for m in range(1, last_block + 1)]
    return np.cumsum(np.add.reduceat(steps, starts, axis=1), axis=1)


def _drift(r, lo, hi):
    """The drift r^{2k}/k for k = lo..hi, the per-k routes' centring."""
    k = np.arange(lo, hi + 1, dtype=float)
    return r ** (2.0 * k) / k


def _event_chunk_complex_route(stream, count, r, theta, levels_list):
    n_max = levels_list.shape[1]
    _, kmax = barrier.block_bounds(n_max)
    x, k, coef = chaos.field_rows(stream, count, r, 1, kmax)
    sums = _checkpoints((x * np.exp(1j * theta * k)).real * coef - _drift(r, 1, kmax), n_max)
    cols = [np.all(sums <= levels, axis=1) for levels in levels_list]
    return np.stack(cols, axis=1)


def _com_left_chunk_complex_route(stream, count, K, r, levels):
    n_max = levels.size
    x, _, coef = chaos.field_rows(stream, count, r, 1, int(K))
    weight = np.exp(2.0 * (x.real @ coef))
    _, kmax = barrier.block_bounds(n_max)
    sums = _checkpoints(x[:, :kmax].real * coef[:kmax] - _drift(r, 1, kmax), n_max)
    return np.where(np.all(sums <= levels, axis=1), weight, 0.0)


def _com_left_args(K, r, levels):
    """The left side's block and tail standard deviations and its raised
    levels, as change_of_measure_check builds them."""
    n_max = levels.shape[1]
    variances = barrier._block_variances(r, n_max)
    tail = np.sum(chaos.walk_variances(r, barrier.block_bounds(n_max)[1] + 1, int(K))[1])
    return np.sqrt(np.append(variances, tail)), levels + 2.0 * np.cumsum(variances)


@pytest.mark.parametrize("K, r, A", [(20.0, 1.0, 2.0), (400.0, 1.0, 1.5),
                                     (1e4, 0.99, 3.0)])
def test_real_draw_kernels_match_the_complex_route(K, r, A):
    # the change of measure's left side draws the real walk Re X(k) r^k/sqrt(k)
    # as its block sums and the tail up to K; its mean weight against the one
    # from the complex rows' real part, within 4 sigma combined. Each route
    # takes at most about 4e7 steps, in chunks of 1024 rows (K = 1e4 fits the
    # budget)
    samples, chunk = min(20000, 4 * 10**7 // int(K)), 1024
    levels = np.full((1, int(math.log(K))), A)
    walk = mc.from_values(mc.map_chunks(barrier._com_left_chunk, _com_left_args(K, r, levels),
                                        Seed(17), samples, chunk=chunk), Seed(17))
    ref = mc.from_values(mc.map_chunks(_com_left_chunk_complex_route, (K, r, levels[0]),
                                       Seed(18), samples, chunk=chunk), Seed(18))
    for est in (walk, ref):
        assert est.mean > 0.0
    assert abs(walk.mean - ref.mean) <= 4.0 * math.hypot(walk.std_error, ref.std_error)


@pytest.mark.parametrize("r", [1.0, math.exp(1.0 / 400.0)])
def test_com_left_chunk_matches_scalar_oracle(r):
    # the kernel's weight and flags against fsum: the oracle gets the field
    # whose real walk puts each block sum, and the tail sum past the last
    # block (empty at K = 7.5), on the block's first k. The draws are scaled
    # up so that both outcomes occur; samples whose checkpoint sum sits
    # within 1e-9 of the level are skipped
    A, count = 2.0, 300
    for K in (400.0, 7.5):
        levels = barrier._event_levels("G", r, K, [A])
        n_max = levels.shape[1]
        sigmas, raised = _com_left_args(K, r, levels)
        assert (sigmas[-1] == 0.0) == (K == 7.5)
        g = 2.5 * Stream(Seed(62)).draw_real(count * (n_max + 1))
        weights = barrier._com_left_chunk(FixedStream(g), count, sigmas, raised)
        assert weights.shape == (count,)
        firsts = [barrier.block_bounds(m)[0] for m in range(1, n_max + 2)]
        _, coef = chaos.field_weights(r, 1, max(int(K), firsts[-1]))
        steps = np.zeros((count, coef.size))
        steps[:, np.array(firsts) - 1] = g.reshape(n_max + 1, count).T * sigmas
        seen = set()
        for i in range(count):
            x = steps[i] / coef
            sums = _checkpoint_sums_scalar(x, r, 0.0, n_max)
            if np.min(np.abs(sums - levels[0])) < 1e-9:
                continue
            holds = event_holds("G", x, r, 0.0, K, A)
            expected = math.exp(2.0 * math.fsum(steps[i])) if holds else 0.0
            assert weights[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
            seen.add(holds)
        assert seen == {True, False}


@pytest.mark.parametrize("kind, K, r, theta, samples", [("G", 400.0, 1.0, 0.7, 100000),
                                                        ("L", 1e4, 0.99, 1.3, 400000)])
def test_event_block_walk_matches_the_per_k_route(kind, K, r, theta, samples):
    # the block walk against the rotated field drawn one X(k) per k, within
    # 4 sigma combined at every height
    heights = (1.0, 1.25)
    block = event_probability_mc(kind, K, r, heights, theta, samples, Seed(81))
    levels = barrier._event_levels(kind, r, K, heights)
    values = mc.map_chunks(_event_chunk_complex_route, (r, theta, levels), Seed(82), samples)
    for i, est in enumerate(block):
        per_k = mc.from_values(values[:, i], Seed(82))
        assert 0.0 < per_k.mean < 1.0
        assert abs(est.mean - per_k.mean) <= 4.0 * math.hypot(est.std_error,
                                                               per_k.std_error)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_event_chunk_peak_stays_near_its_draw():
    # K = 1000: 4096 rows of n_max = 6 block sums, in units of one real per
    # block (8 B): the ziggurat draw is 1x and the walks are summed in place
    # on it, so only the flags and one checkpoint's comparison come on top
    # (1.34x measured); a draw per k, 4096 x 403 complex values, would be 134x
    count, n_max = 4096, 6
    levels = _levels(np.array([2.0]), n_max, 10.0)
    sigmas = np.sqrt(barrier._block_variances(1.0, n_max))
    peak = _traced_peak(barrier._event_chunk, Stream(Seed(5)), count, sigmas, levels)
    assert peak < 2.0 * count * n_max * 8


def _two_walk_chunk_all_steps(stream, count, r, theta, M, log_K_r, level):
    # the reference route: both walks drawn one X(k) per k from e^M on, their
    # drift subtracted per k, and tested against the flat level by np.all
    lo, hi = barrier.block_bounds(M + 1)[0], barrier.block_bounds(log_K_r)[1]
    x, k, coef = chaos.field_rows(stream, count, r, lo, hi)
    drift = _drift(r, lo, hi)
    z0 = x.real * coef
    zt = (x * np.exp(1j * theta * k)).real * coef
    weight = np.exp(2.0 * (np.sum(z0, axis=1) + np.sum(zt, axis=1)))
    starts = [barrier.block_bounds(m)[0] - lo for m in range(M + 1, log_K_r + 1)]
    s0 = np.cumsum(np.add.reduceat(z0 - drift, starts, axis=1), axis=1)
    st = np.cumsum(np.add.reduceat(zt - drift, starts, axis=1), axis=1)
    ok = np.all(s0 <= level, axis=1) & np.all(st <= level, axis=1)
    return np.where(ok, weight, 0.0)


@pytest.mark.parametrize("level", [2.0, math.inf, -math.inf])
def test_two_walk_chunk_is_the_all_checkpoints_test(level):
    # the kernel's survival fold against the raised levels is np.all over
    # every checkpoint of the same block pairs with the drift subtracted, at
    # a finite level and at +-inf; the draws are scaled up so that both
    # outcomes occur at level 2
    r, theta, count = 0.99999, 1.0, 64
    blocks = block_stats(r, theta, 1e6)
    n = blocks.log_K_r - blocks.M
    assert n == 3
    sigmas, rho = np.sqrt(blocks.sigma2[blocks.M :]), blocks.rho[blocks.M :]
    drift = np.cumsum(2.0 * sigmas**2)
    g = 3.0 * Stream(Seed(44)).draw_real(2 * count * n)
    values = barrier._two_walk_chunk(FixedStream(g), count, sigmas, rho,
                                     (level + drift)[None, :])
    g = g.reshape(n, 2, count).transpose(2, 1, 0)  # step-major draws, as (count, 2, n)
    s0 = np.cumsum(sigmas * g[:, 0], axis=1)
    st = np.cumsum(sigmas * (rho * g[:, 0] + np.sqrt(1.0 - rho**2) * g[:, 1]), axis=1)
    ok = np.all(s0 - drift <= level, axis=1) & np.all(st - drift <= level, axis=1)
    ref = np.where(ok, np.exp(2.0 * (s0[:, -1] + st[:, -1])), 0.0)
    assert np.array_equal(values > 0, ok)
    assert np.allclose(values, ref, rtol=1e-12, atol=0.0)
    kept = np.count_nonzero(values)
    assert kept == {2.0: kept, math.inf: count, -math.inf: 0}[level]
    if level == 2.0:
        assert 0 < kept < count


@pytest.mark.parametrize("r, theta, level", [(0.99, 0.5, 1.0), (0.97, 1.5, 2.0),
                                             (0.99, math.pi, 2.0)])
def test_two_walk_block_pairs_match_the_per_k_route(r, theta, level):
    # the block pairs against both walks drawn one X(k) per k, within 4 sigma
    blocks = block_stats(r, theta, 1e6)
    assert blocks.M < blocks.log_K_r
    block = two_walk_tilted_expectation(r, theta, 1e6, level, 200000, Seed(91))
    values = mc.map_chunks(_two_walk_chunk_all_steps,
                           (r, theta, blocks.M, blocks.log_K_r, level), Seed(92), 200000)
    per_k = mc.from_values(values, Seed(92))
    assert abs(block.mean - per_k.mean) <= 4.0 * math.hypot(block.std_error,
                                                            per_k.std_error)


def test_two_walk_runs_where_the_per_k_draw_was_over_budget():
    # 3 blocks past M = 7 hold 20930 values of k: a 4096 x 20930 draw per
    # chunk was refused; the block pairs hold 4096 x 2 x 3
    est = two_walk_tilted_expectation(0.99999, 1.0, 1e6, 2.0, 20000, Seed(11))
    assert est.samples == 20000 and est.mean > 0.0 and est.std_error > 0.0


def test_two_walk_chunk_peak_near_its_draw():
    # 4096 rows of 3 blocks past M, in units of one real per row and block
    # (8 B): the ziggurat pair draw is 2x, mixing a pair makes one walk's
    # temporary (1x), and the walks are summed in place on the draw (3.02x
    # measured); a draw per k, 4096 x 20930 complex values, would be over
    # 13000x
    r, theta, count = 0.99999, 1.0, 4096
    blocks = block_stats(r, theta, 1e6)
    n = blocks.log_K_r - blocks.M
    assert n == 3
    sigmas = np.sqrt(blocks.sigma2[blocks.M :])
    levels = 2.0 + 2.0 * np.cumsum(sigmas**2)[None, :]
    peak = _traced_peak(barrier._two_walk_chunk, Stream(Seed(5)), count, sigmas,
                        blocks.rho[blocks.M :], levels)
    assert peak < 4.0 * count * n * 8


def test_indicator_kernels_return_bools():
    # map_chunks concatenates the kernels' flags as they are: one byte each
    heights = np.array([1.0, 2.0])
    levels = _levels(heights, 3, 10.0)
    seed, count = Seed(45), 64
    sigmas = np.sqrt(barrier._block_variances(1.0, 3))
    kernels = [
        barrier._ballot_chunk(Stream(seed), count, heights, np.ones(16)),
        barrier._event_chunk(Stream(seed), count, sigmas, levels),
        barrier._grid_event_chunk(Stream(seed), count, 1.0, levels),
        barrier._com_right_chunk(Stream(seed), count, sigmas, levels[:1]),
        mc.map_chunks(barrier._event_chunk, (sigmas, levels), seed, 5000),
    ]
    for flags in kernels:
        assert flags.dtype == bool


def test_event_L_probability_band():
    r = math.exp(-1.0 / 40.0)
    est = event_probability_mc("L", 1e4, r, [2.0], 0.0, 100000, Seed(13))[0]
    scale = 2.0 / math.sqrt(barrier.log_horizon(r, 1e4))
    assert 0.2 * scale <= est.mean <= 5.0 * scale


def test_grid_event_fft_matches_direct_angle_loop():
    # white box: the FFT evaluation of the field on the per-checkpoint
    # angle grids must reproduce a direct evaluation angle by angle, at
    # every height
    r, n_max, heights = 1.0, 3, (1.0, 1.5, 3.0)
    levels_list = _levels(np.array(heights), n_max, 10.0)
    stream = Stream(Seed(2718))
    count = 16
    raised = levels_list + 2.0 * np.cumsum(barrier._block_variances(r, n_max))
    flags = barrier._grid_event_chunk(Stream(Seed(2718)), count, r, raised)
    assert flags.shape == (count, len(heights))
    _, kmax = barrier.block_bounds(n_max)
    x = stream.draw(count * kmax).reshape(count, kmax)
    k = np.arange(1, kmax + 1, dtype=float)
    for i in range(count):
        ok = np.ones(len(heights), dtype=bool)
        for n in range(1, n_max + 1):
            _, hi = barrier.block_bounds(n)
            grid = int(math.ceil(n * math.e**n))
            tilt = float(np.sum(r ** (2.0 * k[:hi]) / k[:hi]))
            best = -np.inf
            for j in range(grid):
                theta = 2.0 * math.pi * j / grid
                value = float(np.sum(
                    (x[i, :hi] * np.exp(1j * theta * k[:hi])).real
                    * r ** k[:hi] / np.sqrt(k[:hi])))
                best = max(best, value)
            ok &= [best - tilt <= levels[n - 1] for levels in levels_list]
        assert flags[i].tolist() == ok.tolist()


def _bits(est):
    return est.mean.hex(), est.std_error.hex(), est.samples, est.seed


def test_multi_height_estimates_equal_one_height_calls():
    # one set of draws serves every height: estimate i of a multi-height call
    # is the one-height call at height i on the same seed, bit for bit;
    # the samples span several chunks, so the chunk seeds line up too
    heights = (4.0, 1.0, 2.5)
    seed = Seed(123)
    ballots = ballot_probability_mc(heights, [1.0] * 64, 2 * mc.CHUNK_SAMPLES + 50, seed)
    grids = event_G_all_angles_mc(math.e**4, 1.0, heights, 1100, seed)
    for i, a in enumerate(heights):
        one = ballot_probability_mc([a], [1.0] * 64, 2 * mc.CHUNK_SAMPLES + 50, seed)
        assert _bits(ballots[i]) == _bits(one[0])
        one = event_G_all_angles_mc(math.e**4, 1.0, [a], 1100, seed)
        assert _bits(grids[i]) == _bits(one[0])
    assert 0.0 < ballots[1].mean < ballots[2].mean < ballots[0].mean < 1.0


def test_indicators_are_nondecreasing_in_height():
    # replicate by replicate, a higher barrier keeps every path a lower one
    # keeps; the draws are scaled up so that the all-angle event fails too
    heights = (1.0, 1.5, 2.5, 4.0)
    count, n = 2000, 64
    flags = barrier._ballot_chunk(Stream(Seed(8)), count, np.array(heights),
                                  np.ones(n))
    n_max = 3
    kmax = barrier.block_bounds(n_max)[1]
    x = 2.5 * Stream(Seed(9)).draw(count * kmax)
    levels_list = _levels(np.array(heights), n_max, 10.0)
    grid = barrier._grid_event_chunk(FixedStream(x), count, 1.0, levels_list)
    event = barrier._event_chunk(FixedStream(x), count,
                                 np.sqrt(barrier._block_variances(1.0, n_max)), levels_list)
    for values in (flags, grid, event):
        assert values.shape == (count, len(heights))
        assert np.all(values[:, :-1] <= values[:, 1:])  # np.diff of bools is !=
        assert 0.0 < values[:, 0].mean() < values[:, -1].mean()


def test_all_angle_event_is_rarer_than_single_angle():
    K, A = math.e**4, 1.0
    grid = event_G_all_angles_mc(K, 1.0, [A], 4000, Seed(21))[0]
    single = event_probability_mc("G", K, 1.0, [A], 0.0, 4000, Seed(21))[0]
    slack = 4.0 * math.hypot(grid.std_error, single.std_error)
    assert grid.mean <= single.mean + slack


def _com_right_chunk_per_k_route(stream, count, r, levels):
    # the reference route: the centered walk drawn one step y_k r^k/sqrt(k)
    # per k, Var y_k = 1/2, and summed into its block sums at the checkpoints
    n_max = levels.shape[1]
    _, kmax = barrier.block_bounds(n_max)
    _, coef = chaos.field_weights(r, 1, kmax)
    y = stream.draw_real(count * kmax).reshape(count, kmax)
    y *= math.sqrt(0.5)
    y *= coef
    return barrier._survival(_checkpoints(y, n_max), levels)[:, 0]


@pytest.mark.parametrize("K, r, A", [(20.0, 1.0, 2.0), (math.e**4, 1.0, 1.5),
                                     (400.0, math.exp(1.0 / 400.0), 3.0)])
def test_com_right_block_walk_matches_the_per_k_route(K, r, A):
    levels = barrier._event_levels("G", r, K, [A])
    sigmas = np.sqrt(barrier._block_variances(r, levels.shape[1]))
    block = mc.from_values(mc.map_chunks(barrier._com_right_chunk, (sigmas, levels),
                                         Seed(71), 200000), Seed(71))
    per_k = mc.from_values(mc.map_chunks(_com_right_chunk_per_k_route, (r, levels),
                                         Seed(72), 200000), Seed(72))
    for est in (block, per_k):
        assert 0.0 < est.mean < 1.0
    assert abs(block.mean - per_k.mean) <= 4.0 * math.hypot(block.std_error,
                                                            per_k.std_error)


def _harmonic(n):
    return sum(Fraction(1, k) for k in range(1, n + 1))


def test_block_variances_are_the_block_sums():
    # sigma_m^2 = sum_{k in block m} r^{2k}/(2k): at r = 1 half a difference
    # of harmonic numbers, exactly; elsewhere the correctly rounded fsum
    exact = barrier._block_variances(1.0, 8)
    r = math.exp(1.0 / 400.0)
    tilted = barrier._block_variances(r, 8)
    assert exact.shape == tilted.shape == (8,)
    for m in range(1, 9):
        lo, hi = barrier.block_bounds(m)
        target = float((_harmonic(hi) - _harmonic(lo - 1)) / 2)
        assert abs(exact[m - 1] - target) <= 1e-15 * target
        target = math.fsum(r ** (2 * k) / (2 * k) for k in range(lo, hi + 1))
        assert abs(tilted[m - 1] - target) <= 1e-15 * target
    # the widest block, the last, is budgeted before any is built
    with pytest.raises(BudgetError):
        barrier._block_variances(1.0, 18)


@pytest.mark.parametrize("r", [0.98, 0.999, 0.9999])
def test_block_variances_are_block_stats_variances(r):
    variances = barrier._block_variances(r, 12)
    assert variances.tobytes() == block_stats(r, 0.5, 1e6, m_max=12).sigma2.tobytes()


def test_block_variances_hold_one_block_at_a_time():
    # block 16 is 5617093 values, two rows of them 85.7 MiB; a drift row of
    # every k < e^16 would be 135.6 MiB
    assert _traced_peak(barrier._block_variances, 1.0, 16) < 94 * 2**20


def test_block_stats_holds_three_rows_of_its_widest_block():
    # at r = 0.98 block 12's weights all underflow: the rescale runs in place
    # on the weights row and the rho terms on the spent 2k row, so the peak is
    # the two rows and one temporary, not five rows
    lo, hi = barrier.block_bounds(12)
    peak = _traced_peak(block_stats, 0.98, 0.5, 1e6, 12)
    assert peak < 3.5 * (hi - lo + 1) * 8


def test_change_of_measure_two_routes_agree():
    left, right = change_of_measure_check(20.0, 1.0, 2.0, 20000, 200000, Seed(7))
    combined = math.hypot(left.std_error, right.std_error)
    assert abs(left.mean - right.mean) <= 5.0 * combined


def test_change_of_measure_saturates_to_circle_mean():
    # with the barrier far away the indicator is ~1 and the left side is
    # the plain mean square of |F_K(r)| (heavy-tailed, hence the 5 sigma)
    K = 8.0
    left, right = change_of_measure_check(K, 1.0, math.sqrt(math.log(K)),
                                          20000, 100000, Seed(11))
    target = circle_mean_closed_form(K, 1.0)
    assert abs(left.mean - target) <= 5.0 * left.std_error
    assert abs(right.mean - target) <= 5.0 * math.hypot(left.std_error,
                                                        right.std_error)


def test_block_stats_horizon_and_bounds():
    for r in (0.98, math.exp(-1.0 / 40.0)):
        blocks = block_stats(r, 0.5, 1e6, m_max=8)
        assert blocks.log_K_r == 2
        for m in range(2, 9):
            cov = blocks.covariance(m)
            assert abs(cov) <= blocks.covariance_bound(m) + 1e-12
            if math.e**m <= blocks.K_r:
                lo, hi = blocks.variance_bounds(m)
                assert lo - 1e-12 <= blocks.sigma2[m - 1] <= hi + 1e-12


def test_block_covariance_bound_at_pi():
    blocks = block_stats(0.99, math.pi, 1e6, m_max=6)
    for m in range(1, 7):
        assert abs(blocks.covariance(m)) <= math.e ** -(m - 1) + 1e-12


@pytest.mark.parametrize("theta", [2000.0 * math.pi, math.pi + 0.1, -math.pi - 0.1])
def test_block_covariance_bound_uses_the_reduced_angle(theta):
    # cos(k theta) depends on theta mod 2 pi only, so the bound does too
    reduced = abs(math.remainder(theta, 2.0 * math.pi))
    blocks = block_stats(0.98, theta, 1e6, m_max=4)
    for m in range(1, 5):
        assert abs(blocks.covariance(m)) <= blocks.covariance_bound(m)
        if reduced:
            assert blocks.covariance_bound(m) == math.pi / (reduced * math.e ** (m - 1))
    if theta != 2000.0 * math.pi:
        assert blocks.covariance_bound(1) == pytest.approx(math.pi / (math.pi - 0.1))


@pytest.mark.parametrize("theta, twin", [(2000.0 * math.pi, 1e-9), (2.0 * math.pi + 0.5, 0.5),
                                         (-2.0 * math.pi - 0.5, 0.5)])
def test_block_split_index_uses_the_reduced_angle(theta, twin):
    # the pairs agree mod 2 pi (the first up to rounding), so every cos(k theta)
    # and the split index M agree; the raw angle gave M = 1 and 5 against 6
    assert block_stats(0.9999, theta, 1e6).M == block_stats(0.9999, twin, 1e6).M == 6


def test_block_stats_validation():
    with pytest.raises(PreconditionError):
        block_stats(1.0, 0.5, 100.0)
    with pytest.raises(BudgetError):  # block 18 holds more than FIELD_BUDGET values
        block_stats(0.98, 0.5, 1e6, m_max=18)


def test_block_rho_past_weight_underflow():
    # at r = 0.98 every weight r^{2k}/(2k) of block 11 underflows to 0
    blocks = block_stats(0.98, 0.5, 1e6, m_max=11)
    assert blocks.sigma2[-1] == 0.0
    assert np.all(np.abs(blocks.rho) <= 1.0)
    assert blocks.covariance(11) == 0.0
    assert block_stats(0.98, 0.0, 1e6, m_max=11).rho[-1] == 1.0


def _increment_chunk_by_copy(stream, count, r, theta, lo, hi):
    # draws of the pair (Z_0(m), Z_theta(m)) over the block k = lo..hi, one
    # X(k) per k, with the rotation as a whole-array product
    x, k, coef = chaos.field_rows(stream, count, r, lo, hi)
    return np.stack([x.real @ coef, (x * np.exp(1j * theta * k)).real @ coef], axis=1)


def test_block_correlation_against_mc_covariance():
    blocks = block_stats(0.99, 0.5, 1e6, m_max=4)
    pairs = mc.map_chunks(_increment_chunk_by_copy,
                          (blocks.r, blocks.theta, *barrier.block_bounds(4)), Seed(31), 10**6)
    z0, zt = pairs[:, 0], pairs[:, 1]
    products = (z0 - z0.mean()) * (zt - zt.mean())
    cov_mc = float(np.mean(products))
    se = float(np.std(products, ddof=1)) / math.sqrt(products.size)
    assert abs(cov_mc - blocks.covariance(4)) <= 4.0 * se
    var_mc = float(np.var(z0))
    assert abs(var_mc - blocks.sigma2[3]) <= 4.0 * se


def test_bivariate_density_peak_and_independence():
    p = BivariateParams(0.3, -0.2, 1.69, 0.64, 0.4)
    peak = 1.0 / (2.0 * math.pi * 1.3 * 0.8 * math.sqrt(1.0 - 0.16))
    assert bivariate_density(p, 0.3, -0.2) == pytest.approx(peak, rel=1e-14)
    q = BivariateParams(0.0, 0.0, 1.0, 4.0, 0.0)
    x1, x2 = 0.7, -1.1
    marginal1 = math.exp(-x1**2 / 2.0) / math.sqrt(2.0 * math.pi)
    marginal2 = math.exp(-x2**2 / 8.0) / math.sqrt(8.0 * math.pi)
    assert bivariate_density(q, x1, x2) == pytest.approx(marginal1 * marginal2,
                                                         abs=1e-14)


def test_bivariate_density_normalization():
    p = BivariateParams(0.5, -1.0, 1.21, 2.25, 0.3)
    grid = np.linspace(-8.0, 8.0, 400)
    x = 0.5 + grid * 1.1
    y = -1.0 + grid * 1.5
    xx, yy = np.meshgrid(x, y)
    cell = (x[1] - x[0]) * (y[1] - y[0])
    total = float(np.sum(bivariate_density(p, xx, yy)) * cell)
    assert abs(total - 1.0) <= 1e-6


@pytest.mark.parametrize("rho", [0.05, -0.05, 0.3, -0.3])
def test_domination_pointwise(rho):
    p = BivariateParams(0.0, 0.5, 1.0, 2.25, rho)
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    x1 = 8.0 * (2.0 * rng.random(10000) - 1.0)
    x2 = 0.5 + 12.0 * (2.0 * rng.random(10000) - 1.0)
    gap = bivariate_density(p, x1, x2) - dominating_density(p, x1, x2)
    assert float(np.max(gap)) <= 1e-12


def test_domination_ratio_is_one_when_uncorrelated():
    p = BivariateParams(0.0, 0.0, 1.0, 1.0, 0.0)
    x = np.linspace(-3, 3, 25)
    assert np.allclose(dominating_density(p, x, x[::-1]),
                       bivariate_density(p, x, x[::-1]), rtol=1e-14)


def test_dominating_form_is_inflated_independent_pair():
    # the majorant equals sqrt((1+|rho|)/(1-|rho|)) times the density of an
    # uncorrelated pair with both variances inflated by (1+|rho|)
    rho = -0.3
    p = BivariateParams(0.4, -0.1, 1.44, 0.81, rho)
    inflated = BivariateParams(0.4, -0.1, 1.44 * 1.3, 0.81 * 1.3, 0.0)
    prefactor = math.sqrt(1.3 / 0.7)
    x = np.linspace(-5, 5, 41)
    assert np.allclose(dominating_density(p, x, 0.25 * x),
                       prefactor * bivariate_density(inflated, x, 0.25 * x),
                       rtol=1e-13)


def test_event_probability_requires_heights():
    with pytest.raises(PreconditionError):
        event_probability_mc("G", 20.0, 1.0, [], 0.0, 1000, Seed(1))


def test_domination_at_event_level():
    rho, s1, s2 = 0.3, 1.0, 1.5
    n = 200000
    rng = Stream(Seed(55))
    u = rng.draw_real(n)
    v = rng.draw_real(n)
    y1 = s1 * u
    y2 = s2 * (rho * u + math.sqrt(1.0 - rho**2) * v)
    p_corr = float(np.mean((y1 >= 0.5) & (y2 >= 0.5)))
    inflate = math.sqrt(1.0 + rho)
    w1 = s1 * inflate * rng.draw_real(n)
    w2 = s2 * inflate * rng.draw_real(n)
    p_ind = float(np.mean((w1 >= 0.5) & (w2 >= 0.5)))
    prefactor = math.sqrt((1.0 + rho) / (1.0 - rho))
    se = math.sqrt(p_corr * (1 - p_corr) / n) + prefactor * math.sqrt(
        p_ind * (1 - p_ind) / n)
    assert p_corr <= prefactor * p_ind + 4.0 * se


def test_degenerate_bivariate_rejected():
    with pytest.raises(PreconditionError):
        BivariateParams(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        BivariateParams(0.0, 0.0, 0.0, 1.0, 0.2)


def test_two_walk_single_block_closed_form():
    # theta = 0 collapses the product to exp(4 Z_0) on one block, whose
    # mean is exp(8 sigma^2); heavy lognormal tail, so compare at 5 sigma
    blocks = block_stats(0.97, 0.0, 1000.0)
    assert blocks.M == 1 and blocks.log_K_r == 2
    est = two_walk_tilted_expectation(0.97, 0.0, 1000.0, math.inf, 400000, Seed(23))
    target = math.exp(8.0 * blocks.sigma2[1])
    assert abs(est.mean - target) <= 5.0 * est.std_error


def test_two_walk_level_minus_inf_keeps_no_path():
    # level = inf is the unconstrained expectation; -inf is a barrier no walk
    # clears, not a second spelling of "no barrier"
    est = two_walk_tilted_expectation(0.97, 0.0, 1000.0, -math.inf, 1000, Seed(5))
    assert (est.mean, est.std_error) == (0.0, 0.0)


def test_two_walk_refuses_nan_level():
    # every comparison with NaN fails, so a NaN level zeroed every walk
    with pytest.raises(PreconditionError):
        two_walk_tilted_expectation(0.97, 0.0, 1000.0, math.nan, 100, Seed(5))
    assert two_walk_tilted_expectation(0.97, 0.0, 1000.0, math.inf, 100, Seed(5)).mean > 0
    assert two_walk_tilted_expectation(0.97, 0.0, 1000.0, -math.inf, 100, Seed(5)).mean == 0


def test_two_walk_monotone_in_level():
    # identical draws (same seed), so tightening the barrier can only shrink it
    values = [two_walk_tilted_expectation(0.97, 0.0, 1000.0, level, 50000,
                                          Seed(5)).mean
              for level in (2.0, 1.0, 0.5)]
    assert values[0] >= values[1] >= values[2]


def test_two_walk_ratio_stays_below_recorded_constant():
    # shape from the two-applications-of-the-ballot-problem bound; the
    # constant 1.0 was recorded from this grid and is asserted as a
    # regression guard (observed max ~0.33)
    for r in (0.97, 0.99):
        for theta in (0.5, 1.5, math.pi):
            blocks = block_stats(r, theta, 1e6)
            for level in (1.0, 2.0):
                est = two_walk_tilted_expectation(r, theta, 1e6, level, 20000,
                                                  Seed(11))
                ratio = est.mean / two_walk_shape_scale(blocks, level)
                assert 0.0 < ratio <= 1.0


_REDUCTION_BYTES = """
from hmchaos import chaos, cli
from hmchaos.rng import Seed
# com-check and circle_mean_mc reduce more than 10000 terms, where OpenBLAS
# would split a dot across its threads
for argv in (["com-check", "--K", "20000", "--r", "1", "--A", "2", "--samples-left", "64",
              "--samples-right", "64", "--seed", "3"],
             ["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "8"],
             ["moment", "--N", "2048", "--q", "1", "--samples", "4", "--seed", "3"]):
    cli.main(argv)
est = chaos.circle_mean_mc(20000.0, 1.0, 64, Seed(3))
print(est.mean.hex(), est.std_error.hex())
"""


def test_field_reductions_do_not_depend_on_the_blas_thread_count():
    # com-check's left side and circle_mean_mc sum up to K step variances
    # r^{2k}/(2k) by np.sum (com-check's tail past its last block is 11897
    # terms at K = 20000) and their few walk values by cumsum, neither of
    # which calls BLAS; and a circle row of moment --N 2048 its RMS by einsum
    src = str(Path(barrier.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        outputs.append(subprocess.run([sys.executable, "-c", _REDUCTION_BYTES], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert len(outputs[0].splitlines()) == 14
    assert outputs[0] == outputs[1]
