import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import ks_critical
from hmchaos import mc, numbermodels
from hmchaos.errors import BudgetError, PreconditionError
from hmchaos.numbermodels import (FFModel, SteinhausModel, count_irreducibles,
                                  ff_second_moment, irreducibles_by_degree,
                                  steinhaus_abs_moment, _integer_tree, _sieve,
                                  _structure)
from hmchaos.rng import Seed, Stream, split


def _circle(root):
    return Stream(Seed(root))


def test_steinhaus_at_one():
    assert SteinhausModel(1.0, _circle(4)).partial_sum() == 1.0


def test_steinhaus_complete_multiplicativity():
    model = SteinhausModel(300.0, _circle(19))
    # f(0..300) with f(0) = 0, from f on the rows of the integer tree, whose
    # sum in row order is the model's S(x)
    tree, norm = _integer_tree(300)
    rows = numbermodels._tree_values(model.prime_values[None], tree,
                                     np.empty((norm.size, 1), dtype=np.complex128))[:, 0]
    assert model.partial_sum() == complex(np.sum(rows))
    f = np.zeros(norm.size + 1, dtype=np.complex128)
    f[norm] = rows
    assert f[0] == 0.0 and f[1] == 1.0
    assert f[6] == pytest.approx(f[2] * f[3], rel=1e-12)
    assert f[4] == pytest.approx(f[2] ** 2, rel=1e-12)
    assert f[12] == pytest.approx(f[2] ** 2 * f[3], rel=1e-12)
    assert np.allclose(np.abs(f[1:]), 1.0)
    # the definitional product prod f(p)^e, with n factored by trial division
    primes = [p for p in range(2, 301) if all(p % d for d in range(2, p))]
    f_p = dict(zip(primes, model.prime_values))
    for n in range(1, 301):
        expected, rest = 1.0 + 0.0j, n
        for p in primes:
            while rest % p == 0:
                expected *= f_p[p]
                rest //= p
        assert f[n] == pytest.approx(expected, rel=1e-12)


def test_steinhaus_variance_matches_cutoff():
    est = steinhaus_abs_moment(100.0, 2.0, 10000, Seed(42))
    assert abs(est.mean - 100.0) <= 4.0 * est.std_error


def test_steinhaus_worker_count_is_invisible():
    serial = steinhaus_abs_moment(50.0, 2.0, 600, Seed(77), workers=1)
    pooled = steinhaus_abs_moment(50.0, 2.0, 600, Seed(77), workers=3)
    assert serial.mean == pooled.mean and serial.std_error == pooled.std_error


def test_steinhaus_validation():
    with pytest.raises(PreconditionError):
        SteinhausModel(0.5, _circle(1))
    for x in (math.nan, -math.inf):
        with pytest.raises(PreconditionError):
            steinhaus_abs_moment(x, 2.0, 10, Seed(1))
    # refused before the sieve allocates
    for x in (math.inf, 1e12, 10**6 + 1):
        with pytest.raises(BudgetError):
            steinhaus_abs_moment(x, 2.0, 10, Seed(1))
    for power in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            steinhaus_abs_moment(100.0, power, 10, Seed(1))


def test_sieve_lists_the_primes():
    # sizes on both sides of perfect squares, where the marking loop stops
    for n in (1, 2, 3, 4, 8, 9, 10, 48, 49, 50, 960, 961, 962):
        primes = _sieve(n)
        assert list(primes) == [m for m in range(2, n + 1)
                                if all(m % d for d in range(2, m))]


def test_integer_tree_lists_every_integer_once():
    for n in (1, 2, 3, 4, 8, 9, 10, 48, 49, 50, 960, 961, 962):
        (parent, factor, levels), norm = _integer_tree(n)
        primes = _sieve(n)
        assert sorted(norm.tolist()) == list(range(1, n + 1))
        assert norm[0] == 1 and levels[0] == 0 and levels[-1] == n
        assert np.array_equal(norm[1:], norm[parent[1:]] * primes[factor[1:]])
        # Omega order: row r is its parent times one prime, one level down
        level = np.searchsorted(levels, np.arange(n), "right") - 1
        assert np.array_equal(level[parent[1:]], level[1:] - 1)


def test_count_irreducibles_known_values():
    assert count_irreducibles(2, 1) == 2
    assert count_irreducibles(2, 3) == 2  # t^3+t+1 and t^3+t^2+1
    assert count_irreducibles(3, 4) == 18  # (3^4 - 3^2)/4
    assert count_irreducibles(4, 2) == 6  # prime powers go through the formula


def test_count_irreducibles_validation():
    with pytest.raises(PreconditionError):
        count_irreducibles(6, 2)
    with pytest.raises(PreconditionError):
        count_irreducibles(1, 2)
    with pytest.raises(PreconditionError):
        count_irreducibles(5, 0)


def test_counts_match_brute_force():
    for q, n_max in ((2, 6), (3, 5)):
        for n in range(1, n_max + 1):
            assert count_irreducibles(q, n) == len(irreducibles_by_degree(q, n)[n])


def _poly_mod(f, g, p):
    """Remainder of f modulo the monic polynomial g (ascending coefficients)."""
    out = list(f)
    dg = len(g) - 1
    for i in range(len(out) - 1, dg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(dg):
                out[i - dg + j] = (out[i - dg + j] - c * g[j]) % p
    return tuple(out[:dg])


def _trial_division_irreducibles(p, max_degree):
    # the oracle: every monic f of degree d, in code order sum c_i p^i, kept
    # when no listed irreducible of degree <= d/2 divides it
    table = {1: tuple((a, 1) for a in range(p))}
    for d in range(2, max_degree + 1):
        divisors = [g for e in range(1, d // 2 + 1) for g in table[e]]
        found = []
        for code in range(p**d):
            f = tuple(code // p**i % p for i in range(d)) + (1,)
            if all(any(_poly_mod(f, g, p)) for g in divisors):
                found.append(f)
        table[d] = tuple(found)
    return {d: table[d] for d in range(1, max_degree + 1)}


@pytest.mark.parametrize("p, d", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_sieve_equals_trial_division(p, d):
    sieved = irreducibles_by_degree(p, d)
    assert sieved == _trial_division_irreducibles(p, d)
    assert all(type(c) is int for polys in sieved.values() for f in polys for c in f)


@pytest.mark.parametrize("p, d", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_no_product_of_irreducibles_is_listed(p, d):
    table = irreducibles_by_degree(p, d)
    listed = {f for polys in table.values() for f in polys}
    for e in range(1, d // 2 + 1):
        for g in table[e]:
            for k in range(e, d - e + 1):
                for h in table[k]:
                    product = tuple(int(c) for c in np.convolve(g, h) % p)
                    assert product[-1] == 1 and len(product) == e + k + 1
                    assert product not in listed


ADMITTED = [(2, 13), (3, 9), (5, 6), (7, 5), (11, 4), (97, 2), (101, 1)]


@pytest.mark.parametrize("p, d", ADMITTED)
def test_irreducible_budget_boundary(p, d):
    assert [len(polys) for polys in irreducibles_by_degree(p, d).values()] == \
        [count_irreducibles(p, n) for n in range(1, d + 1)]
    with pytest.raises(BudgetError, match=r"^trial-division budget 1000000 exceeded$"):
        irreducibles_by_degree(p, d + 1)


def test_gauss_degree_identity():
    # sum over d | n of d * |P_d| = q^n
    for q in (2, 3, 5):
        for n in range(1, 11):
            total = sum(d * count_irreducibles(q, d)
                        for d in range(1, n + 1) if n % d == 0)
            assert total == q**n


def test_structure_enumerates_every_monic():
    for q, top in ((3, 5), (4, 4), (2, 6)):
        degrees, (parent, factor, levels), norm = _structure(q, top)
        for n in range(top + 1):
            assert np.count_nonzero(norm == q**n) == q**n
        # each row adds an irreducible no earlier than its parent's last one,
        # so every multiset of irreducibles appears once
        assert np.all(factor[parent] <= factor)
        assert np.array_equal(norm[1:], norm[parent[1:]] * q ** degrees[factor[1:]])
        level = np.searchsorted(levels, np.arange(norm.size), "right") - 1
        assert np.array_equal(level[parent[1:]], level[1:] - 1)
    # the Mobius-built degrees match the explicitly listed irreducibles
    degrees = _structure(3, 5)[0]
    listed = [d for d, polys in irreducibles_by_degree(3, 5).items() for _ in polys]
    assert degrees.tolist() == listed


def test_ff_A_trivial_degree():
    assert FFModel(5, 0, _circle(2)).A(0) == 1.0


def test_ff_A_degree_one_closed_form():
    # only monic polynomials of degree 1 are the irreducibles t + a
    model = FFModel(3, 1, _circle(31))
    values = model.prime_values
    assert model.A(1) == pytest.approx(values.sum() / math.sqrt(3.0))


def test_ff_X_degree_one_closed_form():
    model = FFModel(2, 1, _circle(77))
    values = model.prime_values
    assert model.X(1) == pytest.approx((values[0] + values[1]) / math.sqrt(2.0))


def test_models_keep_the_stream_draws():
    # f on the primes is the stream's draws, bit for bit
    model = FFModel(3, 4, _circle(12))
    drawn = _circle(12).draw_unit(model.degrees.size)
    assert model.prime_values.tobytes() == drawn.tobytes()
    model = SteinhausModel(100.0, _circle(13))
    drawn = _circle(13).draw_unit(25)  # the 25 primes up to 100
    assert model.prime_values.tobytes() == drawn.tobytes()


def test_ff_X_matches_the_angle_definition():
    # f(P)^(k/d) against exp(i (k/d) arg f(P)), at k with divisors d > 1
    for q, N in ((2, 8), (3, 6), (5, 4), (7, 4)):
        model = FFModel(q, N, _circle(40 + q))
        for k in range(4, N + 1):
            mask = k % model.degrees == 0
            rep = k // model.degrees[mask]
            total = np.sum(np.exp(1j * rep * np.angle(model.prime_values[mask])) / rep)
            expected = math.sqrt(k) / q ** (k / 2.0) * total
            assert abs(model.X(k) - expected) <= 1e-12 * abs(expected)


def _ff_X(q, k, samples, seed):
    # X(k) of replicate i: the model on its own stream split(seed, i)
    return np.array([FFModel(q, k, Stream(split(seed, i))).X(k)
                     for i in range(samples)])


def test_ff_X_mean_zero():
    values = _ff_X(5, 3, 10000, Seed(50))
    se = np.hypot(np.std(values.real), np.std(values.imag)) / math.sqrt(values.size)
    assert abs(np.mean(values)) <= 4.0 * se


def test_ff_X_variance_near_one():
    values = _ff_X(7, 3, 10000, Seed(50))
    variance = float(np.mean(np.abs(values - values.mean()) ** 2))
    assert abs(variance - 1.0) <= 0.05


def test_ff_second_moment_is_one():
    est = ff_second_moment(5, 3, 500, Seed(60))
    assert abs(est.mean - 1.0) <= 4.0 * est.std_error
    # A(0) = 1: the empty product
    est = ff_second_moment(5, 0, 10, Seed(60))
    assert est.mean == 1.0 and est.std_error == 0.0


def test_ff_worker_count_is_invisible():
    serial = ff_second_moment(3, 4, 600, Seed(77), workers=1)
    pooled = ff_second_moment(3, 4, 600, Seed(77), workers=3)
    assert serial.mean == pooled.mean and serial.std_error == pooled.std_error


def test_ff_replicate_validation():
    with pytest.raises(PreconditionError):
        ff_second_moment(7, -1, 10, Seed(1))
    with pytest.raises(PreconditionError):
        FFModel(7, 0, _circle(1)).X(0)
    with pytest.raises(PreconditionError):
        FFModel(7, -1, _circle(1))


def test_ff_degrees_must_be_ints():
    # a float degree passed the range check and matched no row or degree: 0j
    model = FFModel(3, 3, _circle(1))
    for n in (1.5, True):
        with pytest.raises(PreconditionError):
            model.A(n)
    for k in (2.5, True):
        with pytest.raises(PreconditionError):
            model.X(k)
    for degree in (1.5, True):
        with pytest.raises(PreconditionError):
            model.euler_product_series(degree)
        with pytest.raises(PreconditionError):
            model.gaussian_exp_series(degree)


def test_ff_second_moment_sizes_must_be_ints():
    # a float N raised TypeError from range() in _structure; True ran as N = 1
    for q, N in ((3, 2.5), (3.0, 2), (3, True)):
        with pytest.raises(PreconditionError):
            ff_second_moment(q, N, 10, Seed(1))


def test_ff_model_sizes_must_be_ints():
    # q = 3.0 raised TypeError from the prime-power test; N = True ran as 1
    FFModel(3, 2, _circle(1))  # cached (3, 2) must not admit (3.0, 2)
    for q, N in ((3.0, 2), (3, 2.0), (True, 2), (3, True)):
        with pytest.raises(PreconditionError):
            FFModel(q, N, _circle(1))


def test_irreducible_counts_and_lists_sizes_must_be_ints():
    irreducibles_by_degree(3, 2)  # cached (3, 2) must not admit (3, 2.0)
    for q, n in ((3.0, 2), (3, 2.0), (3, True)):
        with pytest.raises(PreconditionError):
            count_irreducibles(q, n)
        with pytest.raises(PreconditionError):
            irreducibles_by_degree(q, n)


def test_euler_product_series_degree_validation():
    # degree -1 reached numpy's IndexError
    model = FFModel(3, 2, _circle(1))
    for degree in (-1, 3):
        with pytest.raises(PreconditionError):
            model.euler_product_series(degree)
    assert model.euler_product_series(0).tolist() == [1.0]


def test_generating_function_routes_agree():
    for q in (2, 3, 5):
        model = FFModel(q, 6, _circle(123 + q))
        direct = np.array([model.A(n) for n in range(7)])
        euler = model.euler_product_series(6)
        gauss = model.gaussian_exp_series(6)
        assert np.max(np.abs(euler - direct)) < 1e-9
        assert np.max(np.abs(gauss - direct)) < 1e-9


def test_ff_reseeding_preserves_distribution():
    a, b = (np.array([abs(FFModel(5, 4, Stream(split(Seed(root), i))).A(4))
                      for i in range(400)]) for root in (1, 2))
    stat = ks_2samp(a, b).statistic
    assert stat < ks_critical(400, 400, 0.01)


def test_ff_budget_and_field_validation():
    # the rows of every degree <= N are budgeted: q^N alone admits (5, 10)
    # and (2, 23)
    for q, N in ((5, 12), (5, 10), (2, 23)):
        with pytest.raises(BudgetError):
            FFModel(q, N, _circle(1))
    with pytest.raises(PreconditionError):
        FFModel(6, 3, _circle(1))
    with pytest.raises(PreconditionError):
        FFModel(6, 0, _circle(1))
    with pytest.raises(PreconditionError):
        FFModel(5, -1, _circle(1))
    # refused before trial division up to sqrt(q)
    with pytest.raises(BudgetError):
        FFModel(10**18 + 3, 0, _circle(1))


def test_ff_prime_power_via_external_counts():
    # F_4 runs directly: only the Mobius counts (degree -> count) and
    # unit-modulus values enter the model
    q, top = 4, 4
    model = FFModel(q, top, _circle(404))
    direct = np.array([model.A(n) for n in range(top + 1)])
    assert direct[0] == 1.0
    assert np.max(np.abs(model.euler_product_series(top) - direct)) < 1e-9
    assert np.max(np.abs(model.gaussian_exp_series(top) - direct)) < 1e-9
    with pytest.raises(PreconditionError):
        FFModel(6, 2, _circle(1))



def test_replicate_i_is_the_model_on_its_own_stream():
    # replicate i of each estimator is the model built directly on
    # Stream(split(seed, i)), bit for bit: S(x) for the Steinhaus
    # model, the power-sum route gaussian_exp_series(N)[N] for F_q[t]; the
    # samples cross a span and several blocks of each
    samples, seed = mc.REPLICATE_SPAN + 3, Seed(90)

    def models(model, *size):
        return [model(*size, Stream(split(seed, i))) for i in range(samples)]

    def same(est, values):
        ref = mc.from_values(values, seed)
        return (est.mean, est.std_error) == (ref.mean, ref.std_error)

    for x in (30.0, 3000.0):  # 3000: a block holds 10 replicates
        sums = [m.partial_sum() for m in models(SteinhausModel, x)]
        assert same(steinhaus_abs_moment(x, 1.5, samples, seed),
                    [abs(v) ** 1.5 for v in sums])
    for q, N in ((3, 4), (7, 5)):  # (7, 5): 4088 irreducibles, 8 replicates a block
        coeffs = [m.gaussian_exp_series(N)[N] for m in models(FFModel, q, N)]
        assert same(ff_second_moment(q, N, samples, seed), [abs(v) ** 2 for v in coeffs])


@pytest.mark.parametrize("q, N", [(2, 0), (5, 0), (2, 6), (3, 4), (4, 3), (7, 3)])
def test_ff_replicates_match_the_enumeration(q, N):
    # each replicate of the power-sum route against the tree's A(N)
    seed = Seed(92)
    values = numbermodels._ff_coefficients(
        (Stream(split(seed, i)) for i in range(40)), q, N, 1)
    for i, value in enumerate(values):
        model = FFModel(q, N, Stream(split(seed, i)))
        assert abs(value - abs(model.A(N))) <= 1e-12
        assert abs(model.gaussian_exp_series(N)[N] - model.A(N)) <= 1e-12


def test_power_sums_are_X_over_sqrt_k():
    for q, N in ((2, 8), (3, 6), (5, 4), (7, 4), (4, 4)):
        models = [FFModel(q, N, _circle(70 + i)) for i in range(3)]
        block = np.stack([m.prime_values for m in models])
        s = numbermodels._power_sums(block, models[0].degrees, q, N)
        assert s.shape == (3, N + 1) and not s[:, 0].any()
        for row, model in zip(s, models):
            for k in range(1, N + 1):
                assert abs(row[k] - model.X(k) / math.sqrt(k)) <= 1e-12


def test_steinhaus_span_fills_one_tree_buffer(monkeypatch):
    # the blocks of a span take turns in one buffer of f on the tree, rather
    # than allocating one each; x = 3000 puts 10 replicates in a block
    buffers = []
    fill = numbermodels._tree_values

    def recording(prime_values, tree, values):
        buffers.append(values)
        return fill(prime_values, tree, values)

    monkeypatch.setattr(numbermodels, "_tree_values", recording)
    steinhaus_abs_moment(3000.0, 2.0, 25, Seed(91))
    assert [values.shape for values in buffers] == [(3000, 10), (3000, 10), (3000, 5)]
    assert all(np.shares_memory(values, buffers[0]) for values in buffers)


_DISPATCH_BYTES = """
import hashlib
from hmchaos import cli
from hmchaos.rng import Seed, Stream
print(hashlib.sha256(Stream(Seed(9)).draw_unit(100003).tobytes()).hexdigest())
cli.main(["steinhaus", "--x", "1000", "--samples", "300", "--seed", "3"])
cli.main(["ff", "--mode", "moment", "--q", "3", "--N", "6", "--samples", "300", "--seed", "3"])
"""


def test_number_model_bytes_do_not_depend_on_numpy_simd_dispatch():
    # numpy's complex multiply fuses a multiply-add on FMA targets (AVX2 and
    # up) and its exp and log1p differ by target; the unit transform, the
    # tree pass and the power sums use none of them, so a run with those
    # targets disabled prints the bytes of a plain run (numpy reads the
    # comma-separated list at import)
    src = str(Path(numbermodels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    outputs = []
    for disabled in (None, "AVX512_SPR,AVX512_ICL,X86_V4,X86_V3"):
        run_env = {**env, "PYTHONPATH": path}
        if disabled:
            run_env["NPY_DISABLE_CPU_FEATURES"] = disabled
        outputs.append(subprocess.run([sys.executable, "-c", _DISPATCH_BYTES], env=run_env,
                                      capture_output=True, text=True, check=True,
                                      timeout=300).stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]
