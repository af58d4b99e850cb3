import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hmchaos.errors import PreconditionError
from hmchaos.rng import GaussianStream, Seed
from hmchaos.series import (EXP_LEAF, ComplexSeries, exp_array, exp_series, multiply,
                            parseval_power_sum, rankin_bound,
                            smooth_partition_weight)


def random_series(seed, degree, scale=1.0):
    coeffs = GaussianStream(Seed(seed)).draw(degree + 1) * scale
    return coeffs


def chaos_series(seed, degree):
    # the model's input scale: coefficient k damped by 1/sqrt(k)
    coeffs = GaussianStream(Seed(seed)).draw(degree + 1)
    coeffs[0] = 0.0
    coeffs[1:] /= np.sqrt(np.arange(1, degree + 1))
    return coeffs


def schoolbook(a, b):
    out = np.zeros(len(a) + len(b) - 1, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_multiply_simple_algebra():
    one_plus = ComplexSeries([1, 1])
    one_minus = ComplexSeries([1, -1])
    prod = multiply(one_plus, one_minus, 2)
    assert np.allclose(prod.coeffs, [1, 0, -1], atol=0)


def test_multiply_identity():
    a = ComplexSeries(random_series(1, 9))
    prod = multiply(a, ComplexSeries([1]), 9)
    assert np.array_equal(prod.coeffs, a.coeffs)


def test_multiply_matches_schoolbook():
    a = random_series(2, 8)
    b = random_series(3, 8)
    prod = multiply(ComplexSeries(a), ComplexSeries(b), 16)
    assert np.max(np.abs(prod.coeffs - schoolbook(a, b))) < 1e-12


def test_multiply_fft_path_matches_schoolbook():
    a = random_series(4, 200)
    b = random_series(5, 200)
    prod = multiply(ComplexSeries(a), ComplexSeries(b), 400)
    assert np.max(np.abs(prod.coeffs - schoolbook(a, b))) < 1e-10


@pytest.mark.parametrize("engine", ["recurrence", "auto"])
def test_exp_of_z(engine):
    s = np.zeros(5, dtype=complex)
    s[1] = 1.0
    out = exp_array(s, 4, engine)
    assert np.max(np.abs(out - [1, 1, 0.5, 1 / 6, 1 / 24])) < 1e-15


@pytest.mark.parametrize("engine", ["recurrence", "auto"])
def test_exp_quadratic_coefficient_closed_form(engine):
    # With input x1*z + (x2/sqrt(2))*z^2 the z^2 coefficient is x1^2/2 + x2/sqrt(2)
    x1, x2 = 0.3 - 0.7j, -1.1 + 0.2j
    s = np.array([0.0, x1, x2 / math.sqrt(2.0)])
    out = exp_array(s, 2, engine)
    assert abs(out[2] - (x1**2 / 2.0 + x2 / math.sqrt(2.0))) < 1e-14


def taylor_exp(s, degree):
    # exp via sum_j s^j / j!, valuation of s^j is >= j so j <= degree suffices
    total = np.zeros(degree + 1, dtype=complex)
    total[0] = 1.0
    power = np.zeros(degree + 1, dtype=complex)
    power[0] = 1.0
    fact = 1.0
    for j in range(1, degree + 1):
        power = schoolbook(power, s[: degree + 1])[: degree + 1]
        fact *= j
        total += power / fact
    return total


def compound_limit_exp(s, degree, doublings=45):
    # (1 + s/2^m)^{2^m}: repeated squaring; formal error decays like 2^-m
    base = np.array(s[: degree + 1] / 2.0**doublings, dtype=complex)
    base[0] += 1.0
    for _ in range(doublings):
        base = schoolbook(base, base)[: degree + 1]
    return base


def test_exp_engines_vs_independent_oracles():
    s = random_series(12, 12)
    s[0] = 0.0
    oracle_taylor = taylor_exp(s, 12)
    oracle_limit = compound_limit_exp(s, 12)
    for engine in ("recurrence", "auto"):
        out = exp_array(s, 12, engine)
        assert np.max(np.abs(out - oracle_taylor)) < 1e-9
        assert np.max(np.abs(out - oracle_limit)) < 1e-9


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(PreconditionError):
        exp_series(ComplexSeries([1.0, 2.0]), 4)


@pytest.mark.parametrize("engine", ["recurrence", "auto"])
def test_exp_is_a_homomorphism(engine):
    for seed in (21, 22, 23):
        s = random_series(seed, 12)
        t = random_series(seed + 100, 12)
        s[0] = t[0] = 0.0
        lhs = exp_array(s + t, 12, engine)
        rhs = multiply(ComplexSeries(exp_array(s, 12, engine)),
                       ComplexSeries(exp_array(t, 12, engine)), 12).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_truncation_consistency():
    s = chaos_series(31, 300)
    full = exp_array(s, 300, "recurrence")
    part = exp_array(s, 120, "recurrence")
    assert np.array_equal(full[:121], part)
    full_n = exp_array(s, 300, "auto")
    part_n = exp_array(s, 120, "auto")
    assert np.max(np.abs(full_n[:121] - part_n)) < 1e-10


def test_engines_agree_at_moderate_degree():
    for degree in (256, 1024):
        s = chaos_series(degree, degree)
        slow = exp_array(s, degree, "recurrence")
        fast = exp_array(s, degree, "auto")
        assert np.max(np.abs(slow - fast)) < 1e-9


def test_relaxed_engine_is_the_recurrence_below_the_leaf():
    s = chaos_series(7, EXP_LEAF)
    for values in (s, s.real.copy()):
        for degree in range(EXP_LEAF):
            fast = exp_array(values, degree)
            assert fast.dtype == values.dtype
            assert np.array_equal(fast, exp_array(values, degree, "recurrence"))


@pytest.mark.parametrize("degree", [3 * EXP_LEAF + 5, 16384])
def test_relaxed_engine_above_the_leaf(degree):
    s = chaos_series(degree, degree)
    for values in (s, s.real.copy()):
        fast = exp_array(values, degree)
        assert fast.dtype == values.dtype
        assert np.max(np.abs(fast - exp_array(values, degree, "recurrence"))) < 1e-12


def test_exp_rejects_unknown_engine():
    with pytest.raises(ValueError):
        exp_array(chaos_series(1, 8), 8, "newton")


def test_parseval_constants():
    assert parseval_power_sum(ComplexSeries([1.0]), 0.5) == 1.0
    assert parseval_power_sum(ComplexSeries([1.0, 1.0]), 1.0) == 2.0


def test_parseval_matches_quadrature():
    coeffs = random_series(16, 16)
    f = ComplexSeries(coeffs)
    r = 0.8
    direct = parseval_power_sum(f, r)
    angles = 2.0 * np.pi * np.arange(4096) / 4096
    values = np.polyval(coeffs[::-1], r * np.exp(1j * angles))
    quadrature = np.mean(np.abs(values) ** 2)
    assert abs(direct - quadrature) / quadrature < 1e-9


def test_parseval_monotone_in_r():
    f = ComplexSeries(random_series(40, 24))
    values = [parseval_power_sum(f, r) for r in np.linspace(0.1, 1.0, 10)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def brute_smooth_weight(total, max_part):
    # independent oracle: enumerate bounded-part partitions directly
    def weights(remaining, cap):
        if remaining == 0:
            yield {}
            return
        for part in range(1, min(cap, remaining) + 1):
            for rest in weights(remaining - part, part):
                out = dict(rest)
                out[part] = out.get(part, 0) + 1
                yield out
    total_mass = Fraction(0)
    for mult in weights(total, max_part):
        term = Fraction(1)
        for k, m in mult.items():
            term /= math.factorial(m) * k**m
        total_mass += term
    return total_mass


def test_smooth_weight_totals():
    assert smooth_partition_weight(6, 6) == pytest.approx(1.0, abs=1e-12)
    assert smooth_partition_weight(6, 99) == pytest.approx(1.0, abs=1e-12)
    assert smooth_partition_weight(0, 3) == 1.0


def test_smooth_weight_known_values():
    assert smooth_partition_weight(4, 2) == pytest.approx(10.0 / 24.0, abs=1e-12)
    oracle = brute_smooth_weight(7, 3)
    assert smooth_partition_weight(7, 3) == pytest.approx(float(oracle), abs=1e-12)


def test_smooth_weight_monotone_in_max_part():
    for total in (5, 9, 14):
        values = [smooth_partition_weight(total, m) for m in range(1, total + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_rankin_trivial_value():
    assert rankin_bound(1, 1, 1.0) == pytest.approx(math.e, rel=1e-15)


def test_rankin_dominates_smooth_weight_on_grid():
    for total in range(1, 31):
        for max_part in range(1, total + 1):
            weight = smooth_partition_weight(total, max_part)
            for r in (1.0, math.exp(1.0 / max_part)):
                assert rankin_bound(total, max_part, r) >= weight - 1e-12


def test_rankin_against_extended_precision():
    value = rankin_bound(20, 5, math.exp(4.0 / 20.0))
    with mpmath.workdps(50):
        r = mpmath.exp(mpmath.mpf(4) / 20)
        oracle = r**-20 * mpmath.exp(sum(r**k / k for k in range(1, 6)))
        assert abs(value - float(oracle)) / float(oracle) < 1e-12
