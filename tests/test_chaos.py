import math
import warnings

import numpy as np
import pytest

from conftest import FixedStream, circle_average_sample
from hmchaos import mc, rng
from hmchaos.barrier import _walks
from hmchaos.chaos import (_input_rows, _sq_modulus_at_radius, circle_average_moment,
                           circle_mean_closed_form, circle_mean_mc, estimate_moment,
                           fit_decay_band, gaussian_abs_moment,
                           sample_A, theorem_band_factor, truncation_degree, walk_variances)
from hmchaos.errors import PreconditionError
from hmchaos.rng import Seed, Stream, split
from hmchaos.series import exp_array


def test_sample_basics():
    stream = Stream(Seed(100))
    draw = sample_A(16, 16.0, stream)
    assert draw[0] == 1.0
    # the stream stands after X(16): its next draw is X(17)
    assert stream.draw(1).tobytes() == Stream(Seed(100)).draw(17)[16:].tobytes()


def test_first_coefficient_is_first_gaussian():
    x1 = 0.25 - 1.5j
    draw = sample_A(1, 1.0, FixedStream([x1]))
    assert draw[1] == pytest.approx(x1)


def test_forced_stream_quadratic_coefficient():
    # X(1) = 1, X(2) = 0 makes A(2) = 1/2
    draw = sample_A(2, 2.0, FixedStream([1.0, 0.0]))
    assert draw[2] == pytest.approx(0.5, abs=1e-15)


def test_sample_validation():
    with pytest.raises(PreconditionError):
        sample_A(-1, 4.0, FixedStream([0.0]))
    with pytest.raises(PreconditionError):
        sample_A(4, 0.5, FixedStream([0.0]))
    with pytest.raises(PreconditionError):
        sample_A(4, float("nan"), FixedStream([0.0]))


def test_coefficients_depend_only_on_prefix():
    # enlarging K beyond N must not change A(0..N)
    small = sample_A(12, 12.0, Stream(Seed(7)))
    large = sample_A(12, 60.0, Stream(Seed(7)))
    assert np.array_equal(small, large)


def test_moment_q_zero_is_exactly_one():
    est = estimate_moment(8, 0.0, 50, Seed(3))
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_second_moment_is_one():
    est = estimate_moment(32, 1.0, 4000, Seed(41))
    assert abs(est.mean - 1.0) <= 4.0 * est.std_error


def test_first_moment_decreases_with_N():
    lo = estimate_moment(64, 0.5, 4000, Seed(29))
    hi = estimate_moment(1024, 0.5, 1500, Seed(30))
    slack = 2.0 * math.hypot(lo.std_error, hi.std_error)
    assert hi.mean < lo.mean - 0.0 or hi.mean <= lo.mean + slack
    assert hi.mean < lo.mean  # the decay is far larger than the noise here


def test_moment_validation():
    with pytest.raises(PreconditionError):
        estimate_moment(8, 1.5, 100, Seed(1))
    with pytest.raises(PreconditionError):
        estimate_moment(8, 0.5, 1, Seed(1))
    with pytest.raises(PreconditionError):
        estimate_moment(-3, 0.5, 100, Seed(1))
    with pytest.raises(PreconditionError):
        sample_A(-1, 100.0, Stream(Seed(1)))
    with pytest.raises(PreconditionError):
        estimate_moment(8, 0.5, 0, Seed(1))


def _coefficients(N, samples, seed):
    # A(N) of replicate i, drawn from its own stream split(seed, i)
    return np.array([sample_A(N, float(N), Stream(split(seed, i)))[N]
                     for i in range(samples)])


def test_mean_coefficient_vanishes():
    values = _coefficients(16, 20000, Seed(63))
    n = values.size
    se = np.hypot(np.std(values.real), np.std(values.imag)) / math.sqrt(n)
    assert abs(np.mean(values)) <= 4.0 * se


def test_holder_between_moments():
    # E|A|^{2q} <= (E|A|^2)^q up to propagated MC error, shared draws
    values = np.abs(_coefficients(64, 8000, Seed(17)))
    n = values.size
    q = 0.5
    low = values ** (2.0 * q)
    sq = values**2
    mean_low, mean_sq = np.mean(low), np.mean(sq)
    se_low = np.std(low, ddof=1) / math.sqrt(n)
    se_sq = np.std(sq, ddof=1) / math.sqrt(n)
    propagated = se_low + q * mean_sq ** (q - 1.0) * se_sq
    assert mean_low <= mean_sq**q + 4.0 * propagated


def test_engine_equivalence_on_shared_stream():
    x = Stream(Seed(97)).draw(512)
    s = np.zeros(513, dtype=complex)
    s[1:] = x / np.sqrt(np.arange(1, 513))
    slow = exp_array(s, 512, "recurrence")
    fast = exp_array(s, 512, "auto")
    assert np.max(np.abs(slow - fast)) < 1e-9


def test_circle_mean_closed_form_values():
    assert circle_mean_closed_form(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert circle_mean_closed_form(2.0, 1.0) == pytest.approx(math.exp(1.5), rel=1e-15)
    assert circle_mean_closed_form(0.5, 0.9) == 1.0


def test_circle_mean_rejects_bad_radius():
    for r in (0.0, -1.0, float("nan")):
        with pytest.raises(PreconditionError):
            circle_mean_closed_form(8.0, r)
        with pytest.raises(PreconditionError):
            circle_mean_mc(8.0, r, 100, Seed(1))


def test_circle_mean_rejects_non_finite_K():
    # the truncation degree floor(K) must be a finite integer
    for K in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            circle_mean_closed_form(K, 0.5)
        with pytest.raises(PreconditionError):
            circle_mean_mc(K, 0.5, 100, Seed(1))


def test_circle_mean_mc_matches_closed_form():
    est = circle_mean_mc(8.0, 1.0, 10**5, Seed(202))
    target = circle_mean_closed_form(8.0, 1.0)
    assert abs(est.mean - target) <= 5.0 * est.std_error


def test_sq_modulus_reads_the_real_part_of_the_complex_rows():
    # Re sum_k X(k) r^k/sqrt(k) is N(0, sigma^2), sigma^2 = sum_k r^{2k}/(2k):
    # the kernel scales one real draw per sample (here the real part of a
    # preset value) by sigma, against fsum's sigma
    count, K, r = 60, 20, 0.9
    g = Stream(Seed(8)).draw(count)
    sigma = math.sqrt(math.fsum(r ** (2 * k) / (2 * k) for k in range(1, K + 1)))
    values = _sq_modulus_at_radius(FixedStream(g), count, sigma)
    assert values.shape == (count,)
    for value, x in zip(values, g):
        assert value == pytest.approx(math.exp(2.0 * sigma * x.real), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 256])
def test_walks_are_the_cumsum_of_step_major_draws(n, count):
    # draws laid out (steps, walks), walk i is column i: its per-step adds
    # give np.cumsum's bits along each walk
    sigmas = np.sqrt(np.linspace(0.5, 2.0, n))
    walks = _walks(Stream(Seed(14)), count, sigmas)
    g = Stream(Seed(14)).draw_real(count * n)
    ref = np.cumsum(g.reshape(n, count).T * sigmas, axis=1)
    assert walks.shape == ref.shape == (count, n)
    assert walks.tobytes() == ref.tobytes()


@pytest.mark.parametrize("count", [1, 4096])
def test_circle_mean_kernel_is_the_one_step_walk(count):
    # the kernel's one real draw per sample, scaled by sigma, has the bits
    # of the one-step walk at K
    sigma = math.sqrt(math.fsum(1.0 / (2 * k) for k in range(1, 9)))  # K = 8, r = 1
    direct = _sq_modulus_at_radius(Stream(Seed(15)), count, sigma)
    walk = _walks(Stream(Seed(15)), count, np.array([sigma]))
    assert direct.tobytes() == np.exp(2.0 * walk[:, -1]).tobytes()


def _closed_form_by_drift(K, r):
    # the closed form as exp of the summed drift r^{2k}/k, one row of it
    k = np.arange(1, math.floor(K + 1e-9) + 1, dtype=float)
    return float(math.exp(np.sum(r ** (2.0 * k) / k)))


@pytest.mark.parametrize("r", [0.5, 0.9, 0.999, 1.0, math.exp(1.0 / 400.0), 1.01])
def test_circle_mean_closed_form_is_the_drift_formula_bit_for_bit(r):
    # r^{2k}/(2k) is half of r^{2k}/k exactly, and halving commutes with
    # rounding and with the pairwise sum, so exp(2 sum) keeps the bits; where
    # the drift formula overflows, the closed form is refused
    for K in (0.5, 1.0, 2.0, 7.5, 20.0, 64.0, 400.0, 1000.0, 12345.0):
        try:
            expected = _closed_form_by_drift(K, r)
        except OverflowError:
            with pytest.raises(PreconditionError):
                circle_mean_closed_form(K, r)
            continue
        assert circle_mean_closed_form(K, r).hex() == expected.hex()


@pytest.mark.parametrize("K, r", [(20.0, 1.5), (1e6, 1.001)])
def test_circle_means_refuse_an_overflowing_exponent(K, r):
    # exp(sum_{k<=K} r^{2k}/k) is not a finite float: refused, with no
    # overflow warning and no average of inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError):
            circle_mean_closed_form(K, r)
        with pytest.raises(PreconditionError):
            circle_mean_mc(K, r, 100, Seed(1))


def _rows_by_draw(seed, first, count, N, m):
    # the per-stream route: row i is X(1..m) / sqrt(k) of stream first + i
    s = np.zeros((count, N + 1), dtype=np.complex128)
    for i in range(count):
        s[i, 1 : m + 1] = Stream(split(seed, first + i)).draw(m) / np.sqrt(
            np.arange(1, m + 1))
    return s


# (N, K, streams): a ragged last block at N = 64 (504 rows a block), N = 0
# and 1, K < N, and rows of more than two UNIT_TILE pairs
BLOCK_FILL_CASES = [(64, 64.0, 1100), (0, 0.0, 5), (1, 1.0, 3), (1, 0.5, 2), (10, 4.5, 7),
                    (12, 3.0, 1), (2 * rng.UNIT_TILE + 7, math.inf, 2)]


@pytest.mark.parametrize("N, K, samples", BLOCK_FILL_CASES)
def test_block_fill_is_per_stream_draw(N, K, samples):
    seed = Seed(2718)
    m = N if K >= N else max(math.floor(K), 0)
    streams = (Stream(split(seed, i)) for i in range(samples))
    done = 0
    for block in _input_rows(streams, N, K):
        assert block.tobytes() == _rows_by_draw(seed, done, len(block), N, m).tobytes()
        done += len(block)
    assert done == samples and next(streams, None) is None


def test_block_fill_does_not_depend_on_the_tile_size(monkeypatch):
    # tiles of 5 pairs: several rows' tiles, and rows split into ragged pieces
    seed = Seed(31)
    # (the buffer is reused, so each first block is copied before it is kept)
    expected = [next(_input_rows((Stream(split(seed, i)) for i in range(9)), N, N)).copy()
                for N in (2, 7, 12)]
    monkeypatch.setattr(rng, "UNIT_TILE", 5)
    for N, block in zip((2, 7, 12), expected):
        streams = (Stream(split(seed, i)) for i in range(9))
        assert next(_input_rows(streams, N, N)).tobytes() == block.tobytes()


def test_circle_average_constant_function():
    assert circle_average_sample(0.5, 0.9, FixedStream([])) == pytest.approx(1.0)


def test_negative_truncation_is_the_constant_function():
    # K = -5 failed to broadcast X(1..floor(K)) into the input rows
    for K in (-5.0, -0.5, 0.5):
        assert circle_average_sample(K, 0.5, FixedStream([])) == 1.0
        assert circle_average_moment(K, 0.5, 10, Seed(1)).mean == 1.0
        assert circle_mean_closed_form(K, 0.5) == 1.0
        assert circle_mean_mc(K, 0.5, 10, Seed(1)).mean == 1.0


def test_circle_average_needs_degree_at_radius_one():
    with pytest.raises(PreconditionError):
        circle_average_sample(8.0, 1.0, FixedStream([0.0] * 8))
    value = circle_average_sample(8.0, 1.0, Stream(Seed(5)), D=64)
    assert value > 0.0
    # the estimator takes no degree, so r = 1 is refused like any r outside (0, 1)
    for r in (1.0, 1.5, 0.0, -0.5, float("nan")):
        with pytest.raises(PreconditionError):
            circle_average_moment(8.0, r, 10, Seed(1))


def test_negative_degree_is_refused():
    # D = -1 divided by a zero exp width; D = -3 reached numpy's negative dimensions
    for D in (-1, -3):
        with pytest.raises(PreconditionError):
            circle_average_sample(8.0, 0.9, FixedStream([0.0] * 8), D=D)


def test_truncation_degree_controls_tail():
    r = 0.9
    D = truncation_degree(r)
    assert r ** (2 * D) / (1 - r * r) <= 1e-9


def test_circle_average_moment_matches_closed_form():
    est = circle_average_moment(8.0, 0.9, 10**4, Seed(301))
    target = circle_mean_closed_form(8.0, 0.9)
    assert abs(est.mean - target) <= 4.0 * est.std_error


def test_circle_average_against_quadrature():
    # one fixed sample vs direct quadrature of the exact |F_K|^2
    K, r = 8.0, 0.9
    x = Stream(Seed(88)).draw(8)
    value = circle_average_sample(K, r, FixedStream(x))
    angles = 2.0 * np.pi * np.arange(8192) / 8192
    k = np.arange(1, 9)
    z = r * np.exp(1j * angles)
    field = np.exp(np.sum(x[None, :] * z[:, None] ** k / np.sqrt(k), axis=1))
    quadrature = float(np.mean(np.abs(field) ** 2))
    assert abs(value - quadrature) / quadrature <= 1e-6


def test_decay_band_runs_and_validates():
    ests = fit_decay_band([4, 8], [200, 200], Seed(1))
    assert ests == [estimate_moment(n, 0.5, 200, split(Seed(1), i))
                    for i, n in enumerate([4, 8])]
    with pytest.raises(PreconditionError):
        fit_decay_band([8, 4], [10, 10], Seed(1))
    with pytest.raises(PreconditionError):
        fit_decay_band([1, 4], [10, 10], Seed(1))


def test_theorem_band_factor():
    assert theorem_band_factor(64, 1.0) == 1.0
    assert theorem_band_factor(64, 0.0) == 1.0
    expected = math.sqrt(0.5 * math.sqrt(math.log(64)) + 1.0)
    assert theorem_band_factor(64, 0.5) == pytest.approx(expected)


def test_gaussian_abs_moment():
    assert gaussian_abs_moment(0.0) == 1.0
    assert gaussian_abs_moment(1.0) == pytest.approx(1.0)
    assert gaussian_abs_moment(0.5) == pytest.approx(math.sqrt(math.pi) / 2.0)
    # MC cross-check on |Z|^{2q} for a unit complex Gaussian
    z = Stream(Seed(12321)).draw(200000)
    for q in (0.3, 0.5, 0.8):
        values = np.abs(z) ** (2.0 * q)
        se = np.std(values, ddof=1) / math.sqrt(values.size)
        assert abs(np.mean(values) - gaussian_abs_moment(q)) <= 4.0 * se
    # the lower-bound constant: Gamma(q+1) >= 2^{q-1} on [0, 1]
    for q in np.linspace(0.0, 1.0, 21):
        assert gaussian_abs_moment(float(q)) >= 2.0 ** (q - 1.0) - 1e-12


def test_estimates_are_deterministic_and_worker_independent():
    a = estimate_moment(32, 1.0, 600, Seed(77), workers=1)
    b = estimate_moment(32, 1.0, 600, Seed(77), workers=1)
    assert a == b
    c = estimate_moment(32, 1.0, 600, Seed(77), workers=2)
    assert a.mean == c.mean and a.std_error == c.std_error


@pytest.mark.parametrize("size", [mc.SPAN_BLOCK - 1, mc.SPAN_BLOCK, mc.SPAN_BLOCK + 1,
                                  3 * mc.SPAN_BLOCK + 5, 1, 0])
@pytest.mark.parametrize("r", [1.0, 0.999, math.exp(1.0 / 400.0)])
def test_walk_variances_in_slices_keep_the_whole_rows_bits(size, r):
    # the whole-row route: one 2k row, then r^{2k} / 2k over all of it
    lo = 7
    two_k = 2.0 * np.arange(lo, lo + size, dtype=float)
    ref = np.power(r, two_k) / two_k
    assert walk_variances(r, lo, lo + size - 1).tobytes() == ref.tobytes()
