import math

import numpy as np
import pytest

from conftest import FixedStream
from hmchaos.chaos import (circle_average_moment, circle_average_sample,
                           circle_mean_closed_form, circle_mean_mc,
                           coefficient_values, estimate_moment, fit_decay_band,
                           gaussian_abs_moment, sample_A, theorem_band_factor,
                           truncation_degree)
from hmchaos.errors import PreconditionError
from hmchaos.rng import GaussianStream, Seed
from hmchaos.series import exp_array


def test_sample_basics():
    stream = GaussianStream(Seed(100))
    draw = sample_A(16, 16.0, stream)
    assert draw.coefficient(0) == 1.0
    assert stream.position == 16


def test_first_coefficient_is_first_gaussian():
    x1 = 0.25 - 1.5j
    draw = sample_A(1, 1.0, FixedStream([x1]))
    assert draw.coefficient(1) == pytest.approx(x1)


def test_forced_stream_quadratic_coefficient():
    # X(1) = 1, X(2) = 0 makes A(2) = 1/2
    draw = sample_A(2, 2.0, FixedStream([1.0, 0.0]))
    assert draw.coefficient(2) == pytest.approx(0.5, abs=1e-15)


def test_sample_validation():
    with pytest.raises(PreconditionError):
        sample_A(-1, 4.0, FixedStream([0.0]))
    with pytest.raises(PreconditionError):
        sample_A(4, 0.5, FixedStream([0.0]))
    with pytest.raises(PreconditionError):
        sample_A(4, float("nan"), FixedStream([0.0]))


def test_coefficients_depend_only_on_prefix():
    # enlarging K beyond N must not change A(0..N)
    small = sample_A(12, 12.0, GaussianStream(Seed(7)))
    large = sample_A(12, 60.0, GaussianStream(Seed(7)))
    assert np.array_equal(small.coeffs.coeffs, large.coeffs.coeffs)


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
        coefficient_values(-1, 100, Seed(1))


def test_mean_coefficient_vanishes():
    values = coefficient_values(16, 20000, Seed(63))
    n = values.size
    se = np.hypot(np.std(values.real), np.std(values.imag)) / math.sqrt(n)
    assert abs(np.mean(values)) <= 4.0 * se


def test_holder_between_moments():
    # E|A|^{2q} <= (E|A|^2)^q up to propagated MC error, shared draws
    values = np.abs(coefficient_values(64, 8000, Seed(17)))
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
    x = GaussianStream(Seed(97)).draw(512)
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


def test_circle_mean_mc_matches_closed_form():
    est = circle_mean_mc(8.0, 1.0, 10**5, Seed(202))
    target = circle_mean_closed_form(8.0, 1.0)
    assert abs(est.mean - target) <= 5.0 * est.std_error


def test_circle_average_constant_function():
    assert circle_average_sample(0.5, 0.9, FixedStream([])) == pytest.approx(1.0)


def test_circle_average_needs_degree_at_radius_one():
    with pytest.raises(PreconditionError):
        circle_average_sample(8.0, 1.0, FixedStream([0.0] * 8))
    value = circle_average_sample(8.0, 1.0, GaussianStream(Seed(5)), D=64)
    assert value > 0.0


def test_truncation_degree_controls_tail():
    r = 0.9
    D = truncation_degree(8.0, r)
    assert r ** (2 * D) / (1 - r * r) <= 1e-9


def test_circle_average_moment_matches_closed_form():
    est = circle_average_moment(8.0, 0.9, 10**4, Seed(301), D=400)
    target = circle_mean_closed_form(8.0, 0.9)
    assert abs(est.mean - target) <= 4.0 * est.std_error


def test_circle_average_against_quadrature():
    # one fixed sample vs direct quadrature of the exact |F_K|^2
    K, r = 8.0, 0.9
    x = GaussianStream(Seed(88)).draw(8)
    value = circle_average_sample(K, r, FixedStream(x))
    angles = 2.0 * np.pi * np.arange(8192) / 8192
    k = np.arange(1, 9)
    z = r * np.exp(1j * angles)
    field = np.exp(np.sum(x[None, :] * z[:, None] ** k / np.sqrt(k), axis=1))
    quadrature = float(np.mean(np.abs(field) ** 2))
    assert abs(value - quadrature) / quadrature <= 1e-6


def test_decay_band_runs_and_validates():
    rows, ratio = fit_decay_band([4, 8], [200, 200], Seed(1))
    assert len(rows) == 2 and ratio >= 1.0
    assert rows[0].compensated == pytest.approx(rows[0].mean * math.log(4) ** 0.25)
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
    z = GaussianStream(Seed(12321)).draw(200000)
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
