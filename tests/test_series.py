import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmchaos import series
from hmchaos.errors import BudgetError, PreconditionError
from hmchaos.rng import Seed, Stream
from hmchaos.series import (EXP_LEAF, EXP_TOLERANCE, exp_array, parseval_power_sum,
                            rankin_bound, smooth_partition_weight)


def random_series(seed, degree, scale=1.0):
    coeffs = Stream(Seed(seed)).draw(degree + 1) * scale
    return coeffs


def chaos_series(seed, degree):
    # the model's input scale: coefficient k damped by 1/sqrt(k)
    coeffs = Stream(Seed(seed)).draw(degree + 1)
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
    prod = np.convolve([1, 1], [1, -1])[:3]
    assert np.allclose(prod, [1, 0, -1], atol=0)


def test_multiply_identity():
    a = random_series(1, 9)
    prod = np.convolve(a, [1])[:10]
    assert np.array_equal(prod, a)


def test_multiply_matches_schoolbook():
    a = random_series(2, 8)
    b = random_series(3, 8)
    prod = np.convolve(a, b)[:17]
    assert np.max(np.abs(prod - schoolbook(a, b))) < 1e-12


def test_multiply_long_matches_schoolbook():
    a = random_series(4, 200)
    b = random_series(5, 200)
    prod = np.convolve(a, b)[:401]
    assert np.max(np.abs(prod - schoolbook(a, b))) < 1e-10


@pytest.mark.parametrize("engine", ["recurrence", "auto"])
def test_exp_of_z(engine):
    s = np.zeros(5, dtype=complex)
    s[1] = 1.0
    out = exp_array(s, 4, engine)
    assert np.max(np.abs(out - [1, 1, 0.5, 1 / 6, 1 / 24])) < 1e-15


@pytest.mark.parametrize("engine", ["recurrence", "auto"])
def test_exp_of_integer_input_is_not_truncated(engine):
    out = exp_array(np.array([0, 1]), 4, engine)
    assert out.dtype == np.float64
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
        exp_array(np.array([1.0, 2.0]), 4)


@pytest.mark.parametrize("engine", ["recurrence", "auto"])
def test_exp_is_a_homomorphism(engine):
    for seed in (21, 22, 23):
        s = random_series(seed, 12)
        t = random_series(seed + 100, 12)
        s[0] = t[0] = 0.0
        lhs = exp_array(s + t, 12, engine)
        rhs = np.convolve(exp_array(s, 12, engine), exp_array(t, 12, engine))[:13]
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


def test_auto_engine_is_the_recurrence_below_the_leaf():
    s = chaos_series(7, EXP_LEAF)
    for values in (s, s.real.copy()):
        for degree in range(EXP_LEAF):
            fast = exp_array(values, degree)
            assert fast.dtype == values.dtype
            assert np.array_equal(fast, exp_array(values, degree, "recurrence"))


@pytest.mark.parametrize("degree", [3 * EXP_LEAF + 5, 16384])
def test_auto_engine_above_the_leaf(degree):
    s = chaos_series(degree, degree)
    for values in (s, s.real.copy()):
        fast = exp_array(values, degree)
        assert fast.dtype == values.dtype
        assert np.max(np.abs(fast - exp_array(values, degree, "recurrence"))) < 1e-12


_RECURRENCE_BYTES = """
import hashlib
import numpy as np
from hmchaos.rng import Seed, Stream
from hmchaos.series import exp_array
degree = 12000
stack = Stream(Seed(5)).draw(3 * (degree + 1)).reshape(3, degree + 1)
stack[:, 0] = 0.0
stack /= np.sqrt(np.maximum(np.arange(degree + 1), 1))
for values in (stack, stack.real.copy()):
    for rows in (values[0], values):
        out = exp_array(rows, degree, "recurrence")
        print(out.dtype, out.shape, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_recurrence_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10000 terms across its threads; at
    # degree 12000 the recurrence's sums run past DOT_BLOCK, so it adds
    # shorter dots and gives the same bytes with one thread and with two
    assert series.DOT_BLOCK < 12000
    src = str(Path(series.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        outputs.append(subprocess.run([sys.executable, "-c", _RECURRENCE_BYTES], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("degree", [0, 1, 383, 384, 1000, 4096])
def test_stacked_exp_equals_row_by_row(rows, degree):
    stack = np.stack([chaos_series(1000 * degree + i, degree) for i in range(rows)])
    engines = ("auto", "recurrence") if degree <= 1000 else ("auto",)
    for values in (stack, stack.real.copy()):
        for engine in engines:
            out = exp_array(values, degree, engine)
            assert out.shape == values.shape and out.dtype == values.dtype
            ones = [exp_array(row, degree, engine) for row in values]
            assert out.tobytes() == np.stack(ones).tobytes()
            # any sub-batch gives the same rows
            for part in (slice(1, 3), slice(None, None, 7)):
                if values[part].size:
                    assert (exp_array(values[part], degree, engine).tobytes()
                            == out[part].tobytes())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(degree=st.integers(0, EXP_LEAF - 1) | st.integers(EXP_LEAF, 3 * EXP_LEAF),
       rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), real=st.booleans())
@example(degree=EXP_LEAF - 1, rows=4, seed=0, real=False)
@example(degree=EXP_LEAF, rows=4, seed=0, real=True)
@example(degree=3 * EXP_LEAF, rows=3, seed=1, real=False)
def test_exp_stacks_and_agrees_with_the_recurrence(degree, rows, seed, real):
    stack = np.stack([chaos_series(seed + i, degree) for i in range(rows)])
    if real:
        stack = stack.real.copy()
    out = exp_array(stack, degree)
    assert out.dtype == stack.dtype
    assert out.tobytes() == np.stack([exp_array(row, degree) for row in stack]).tobytes()
    oracle = exp_array(stack, degree, "recurrence")
    assert np.max(np.abs(out - oracle)) < 1e-12


def circle(row, degree, times=1):
    # exp of row on times * M points, and its error estimate
    size = times * series._circle_size(degree)
    return series._circle_row(row, degree, np.empty(size, dtype=complex))


def test_circle_row_over_the_bound_is_redone_by_the_recurrence_or_a_wider_circle(monkeypatch):
    # a chaos row scaled by 1.6 has more RMS on the circle than the size rule
    # assumes: its estimate fails on M points. Below RECURRENCE_REDO the row
    # is the oracle's; past it (here at 0) it is the 2M circle's, which meets
    # the bound, and a row after it in the stack runs on a prefix of the
    # wider buffer and keeps its bits
    degree = EXP_LEAF
    row, other = 1.6 * chaos_series(5, degree), chaos_series(6, degree)
    narrow, err = circle(row, degree)
    assert err > EXP_TOLERANCE
    oracle = exp_array(row, degree, "recurrence")
    assert exp_array(row, degree).tobytes() == oracle.tobytes() != narrow.tobytes()
    stack = np.stack([other, row, other])
    assert exp_array(stack, degree)[1].tobytes() == oracle.tobytes()
    monkeypatch.setattr(series, "RECURRENCE_REDO", 0)
    wide, err = circle(row, degree, 2)
    assert err <= EXP_TOLERANCE
    out = exp_array(row, degree)
    assert out.tobytes() == wide.tobytes() != narrow.tobytes()
    assert np.max(np.abs(out - oracle)) < 1e-12
    alone = exp_array(other, degree)
    assert exp_array(stack, degree).tobytes() == np.stack([alone, out, alone]).tobytes()


@pytest.mark.parametrize("degree", [EXP_LEAF, 2047, 4095])
def test_chaos_rows_mostly_stay_on_the_circle(degree):
    # the size rule's M is where the error model meets the bound at the
    # chaos input's mean RMS, so few rows need a wider circle (1-3% measured
    # at M/N = 8); at 2047 and 4095 that is twice the least power of two
    # >= 4(degree+1)
    size = series._circle_size(degree)
    buf = np.empty(size, dtype=complex)
    errors = [series._circle_row(chaos_series(900 + i, degree), degree, buf)[1]
              for i in range(40)]
    assert sum(err > EXP_TOLERANCE for err in errors) <= 4


def test_circle_rounding_estimate_counts(monkeypatch):
    # exp(6 z): RMS|exp S| on the circle is about 137, so the rounding part
    # alone exceeds the bound on M points, while the coefficients in
    # [M/4, M/2) vanish; on 2M points r^{-D} is 8 times smaller
    s = np.zeros(EXP_LEAF + 1)
    s[1] = 6.0
    assert circle(s, EXP_LEAF)[1] > EXP_TOLERANCE
    oracle = exp_array(s, EXP_LEAF, "recurrence")
    assert exp_array(s, EXP_LEAF).tobytes() == oracle.tobytes()
    monkeypatch.setattr(series, "RECURRENCE_REDO", 0)
    wide, err = circle(s, EXP_LEAF, 2)
    assert err <= EXP_TOLERANCE
    out = exp_array(s, EXP_LEAF)  # real in, real out
    assert out.tobytes() == wide.real.tobytes()
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_circle_aliasing_estimate_counts(monkeypatch):
    # exp(4.5 z^D) has coefficients 4.5^m/m! at z^{mD}, largest at m = 3..4:
    # the ones in [M/4, M/2) push the row's estimate over the bound on M and
    # on 2M points, though its rounding part alone (RMS about 33) stays
    # under it; on 4M points [M, 2M) holds only m >= 8
    degree = EXP_LEAF
    s = np.zeros(degree + 1)
    s[degree] = 4.5
    assert circle(s, degree)[1] > EXP_TOLERANCE
    oracle = exp_array(s, degree, "recurrence")
    assert exp_array(s, degree).tobytes() == oracle.tobytes()
    monkeypatch.setattr(series, "RECURRENCE_REDO", 0)
    assert circle(s, degree, 2)[1] > EXP_TOLERANCE
    wide, err = circle(s, degree, 4)
    assert err <= EXP_TOLERANCE
    out = exp_array(s, degree)
    assert out.tobytes() == wide.real.tobytes()
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_circle_row_over_the_bound_is_refused_past_the_recurrence_budget(monkeypatch):
    # exp(40 z): |exp S| reaches e^40 on the circle, so no circle of M, 2M or
    # 4M points meets the bound; the recurrence redoes the row, and past its
    # budget the row is refused, never returned
    s = np.zeros(EXP_LEAF + 1)
    s[1] = 40.0
    assert all(circle(s, EXP_LEAF, times)[1] > EXP_TOLERANCE for times in (1, 2, 4))
    monkeypatch.setattr(series, "RECURRENCE_REDO", 0)
    assert exp_array(s, EXP_LEAF).tobytes() == exp_array(s, EXP_LEAF, "recurrence").tobytes()
    monkeypatch.setattr(series, "RECURRENCE_BUDGET", 0)
    with pytest.raises(BudgetError):
        exp_array(np.stack([chaos_series(1, EXP_LEAF), s]), EXP_LEAF)
    exp_array(chaos_series(1, EXP_LEAF), EXP_LEAF)  # a row within the bound runs


@pytest.mark.parametrize("panels", [1, 2, 8, 64])
def test_four_step_is_the_fft_in_panel_order(panels):
    # spectrum index p + P q sits at grid[p, q]; the inverse undoes it. At 64
    # panels, twiddles from one running product over all rows were 47 eps
    # sqrt(M) off; taken afresh every TWIDDLE_RUN rows they stay near 16
    size = panels * series.CIRCLE_PANEL
    x = random_series(50 + panels, size - 1)
    buf = x.copy()
    series._four_step(buf)
    spectrum = np.fft.fft(x).reshape(-1, panels).T
    eps = np.finfo(float).eps
    assert np.max(np.abs(buf.reshape(panels, -1) - spectrum)) < 24 * eps * np.sqrt(size)
    series._four_step(buf, inverse=True)
    assert np.max(np.abs(buf - x)) < 1e-14


def test_exp_refuses_a_negative_degree_and_over_budget_work():
    for engine in ("auto", "recurrence"):
        with pytest.raises(PreconditionError):
            exp_array(chaos_series(1, 8), -1, engine)
    with pytest.raises(BudgetError):
        exp_array(np.zeros(2), 200_000, "recurrence")
    with pytest.raises(BudgetError):
        exp_array(np.zeros(2), 5_000_000)


def test_exp_rejects_nonzero_constant_term_in_any_row():
    stack = np.stack([chaos_series(1, 8), chaos_series(2, 8)])
    stack[1, 0] = 0.5
    with pytest.raises(PreconditionError):
        exp_array(stack, 8)


def test_exp_rejects_unknown_engine():
    with pytest.raises(ValueError):
        exp_array(chaos_series(1, 8), 8, "newton")


def test_parseval_constants():
    assert parseval_power_sum(np.array([1.0]), 0.5) == 1.0
    assert parseval_power_sum(np.array([1.0, 1.0]), 1.0) == 2.0


def test_parseval_matches_quadrature():
    coeffs = random_series(16, 16)
    r = 0.8
    direct = parseval_power_sum(coeffs, r)
    angles = 2.0 * np.pi * np.arange(4096) / 4096
    values = np.polyval(coeffs[::-1], r * np.exp(1j * angles))
    quadrature = np.mean(np.abs(values) ** 2)
    assert abs(direct - quadrature) / quadrature < 1e-9


def test_parseval_monotone_in_r():
    f = random_series(40, 24)
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


def test_rankin_refuses_non_finite_radius():
    # r = inf and NaN returned nan
    for r in (math.inf, math.nan, 0.0):
        with pytest.raises(PreconditionError):
            rankin_bound(3, 2, r)


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
