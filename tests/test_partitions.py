import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import FixedStream
from hmchaos.chaos import sample_A
from hmchaos.errors import BudgetError, PreconditionError
from hmchaos import chaos, mc, partitions
from hmchaos.partitions import (_centralizer_order, _multiplicities, a_of_partition,
                                enumerate_partitions, exact_total_mass, partition_count,
                                reconstruct_A_by_largest_part)
from hmchaos.rng import Seed, Stream


def test_enumerate_empty_partition():
    assert list(enumerate_partitions(0)) == [()]


def test_enumerate_counts():
    assert len(list(enumerate_partitions(5))) == 7
    for n in range(0, 26):
        assert len(list(enumerate_partitions(n))) == partition_count(n)


def test_enumeration_order_is_stable():
    order = list(enumerate_partitions(4))
    assert order == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_enumeration_cap():
    with pytest.raises(BudgetError):
        list(enumerate_partitions(41))


def _recursive_partitions(total):
    # the recursive enumerator, kept as the order's oracle
    def rec(remaining, largest_allowed):
        if remaining == 0:
            yield ()
            return
        for head in range(1, min(largest_allowed, remaining) + 1):
            for tail in rec(remaining - head, head):
                yield (head,) + tail

    return list(rec(total, total))


def test_enumeration_matches_the_recursive_order():
    for total in range(17):
        assert list(enumerate_partitions(total)) == _recursive_partitions(total), total


def test_enumeration_stays_lazy():
    # a generator function, so callers (and the benchmark's counting hook)
    # see each partition as it is made
    assert inspect.isgeneratorfunction(enumerate_partitions)
    first = next(enumerate_partitions(40))
    assert first == (1,) * 40


def test_partition_views_agree():
    # the one multiplicity walk, largest part first
    pairs = list(_multiplicities((3, 3, 2, 1)))
    assert pairs == [(3, 2), (2, 1), (1, 1)]
    assert sum(k * m for k, m in pairs) == 9
    assert list(_multiplicities(())) == []


def test_a_of_partition_values():
    assert a_of_partition((), {}) == 1.0
    x = 0.4 + 0.9j
    assert a_of_partition((1, 1), {1: x}) == pytest.approx(x**2 / 2.0)
    y = -1.2 + 0.3j
    assert a_of_partition((2,), {2: y}) == pytest.approx(y / math.sqrt(2.0))


def test_a_of_partition_missing_value():
    with pytest.raises(PreconditionError):
        a_of_partition((2, 1), {1: 1.0})


def test_diagonal_second_moment_values():
    # E[|a(lambda)|^2] = 1/z_lambda
    assert Fraction(1, _centralizer_order((7,))) == Fraction(1, 7)
    assert Fraction(1, _centralizer_order((2, 1))) == Fraction(1, 2)
    assert Fraction(1, _centralizer_order((1, 1, 1))) == Fraction(1, 6)
    assert Fraction(1, _centralizer_order(())) == Fraction(1)


@pytest.mark.parametrize("parts", [(2.5,), (True,), (2, 1.0), (1, 2), (1, 3), (0,),
                                   (2, -1)])
def test_entry_points_refuse_non_partitions(parts):
    # ints only (bools refused), each >= 1, nonincreasing
    with pytest.raises(PreconditionError) as refused:
        a_of_partition(parts, {1: 1, 2: 1})
    assert isinstance(refused.value, ValueError)  # callers catching ValueError still work


def test_class_sizes_are_n_factorial_times_the_diagonal_weight():
    for n in range(13):
        for p in enumerate_partitions(n):
            size, rest = divmod(math.factorial(n), _centralizer_order(p))
            assert rest == 0
            assert size == math.factorial(n) * Fraction(1, _centralizer_order(p))


def test_exact_total_mass_refuses_like_the_enumeration():
    with pytest.raises(PreconditionError):
        exact_total_mass(-1)
    for total in (41, 10**9):
        with pytest.raises(BudgetError):
            exact_total_mass(total)


def test_exact_total_mass_small():
    assert exact_total_mass(1) == 1
    # the three partitions of 3 contribute 1/3 + 1/2 + 1/6
    assert exact_total_mass(3) == Fraction(1, 3) + Fraction(1, 2) + Fraction(1, 6)
    assert exact_total_mass(3) == 1
    assert exact_total_mass(20) == 1


def _draw_x_map(seed, kmax):
    values = Stream(Seed(seed)).draw(kmax)
    return {k: values[k - 1] for k in range(1, kmax + 1)}, values


def test_partition_sum_equals_sampler():
    for n in range(1, 11):
        x_map, values = _draw_x_map(500 + n, n)
        by_partitions = sum(a_of_partition(p, x_map) for p in enumerate_partitions(n))
        draw = sample_A(n, float(n), FixedStream(values))
        assert abs(by_partitions - draw[n]) < 1e-10


@pytest.mark.parametrize("n", [4, 6, 10])
def test_partition_sum_second_moment_mc(n):
    # mean over draws of |sum_lambda a(lambda)|^2 should be 1
    samples = 10000
    x = Stream(Seed(321 + n)).draw(samples * n).reshape(samples, n)
    total = np.zeros(samples, dtype=complex)
    for p in enumerate_partitions(n):
        total += partitions._a_values(x, p)
    sq = np.abs(total) ** 2
    se = np.std(sq, ddof=1) / math.sqrt(samples)
    assert abs(np.mean(sq) - 1.0) <= 4.0 * se


def test_reconstruct_by_largest_part_sums_to_A():
    x_map, values = _draw_x_map(77, 10)
    bands, smooth_rest, total = reconstruct_A_by_largest_part(10, 3, x_map)
    assert len(bands) == 3
    direct = sample_A(10, 10.0, FixedStream(values))[10]
    assert abs(total - direct) < 1e-10


def test_reconstruct_single_part():
    x_map = {1: 0.7 - 0.2j}
    bands, smooth_rest, total = reconstruct_A_by_largest_part(1, 1, x_map)
    assert bands[0] == pytest.approx(x_map[1])
    assert smooth_rest == 0.0
    assert total == pytest.approx(x_map[1])


def test_bands_match_the_float_definition():
    # band j holds total/2^j < largest <= total/2^{j-1}; the rest is smooth
    for total in range(21):
        x_map, _ = _draw_x_map(900 + total, max(total, 1))
        for depth in range(1, 7):
            bands = [complex(0.0)] * depth
            smooth_rest = complex(0.0)
            for p in enumerate_partitions(total):
                value = a_of_partition(p, x_map)
                largest = p[0] if p else 0
                if largest <= total / 2**depth:
                    smooth_rest += value
                    continue
                for j in range(1, depth + 1):
                    if total / 2**j < largest <= total / 2 ** (j - 1):
                        bands[j - 1] += value
                        break
            got_bands, got_rest, _ = reconstruct_A_by_largest_part(total, depth, x_map)
            assert (got_bands, got_rest) == (bands, smooth_rest), (total, depth)


def test_smooth_rest_second_moment_matches_bounded_weight():
    # E|A~_J(N)|^2 equals the bounded-largest-part weight; N=12, J=2
    from hmchaos.series import smooth_partition_weight

    n, depth, samples = 12, 2, 10000
    x = Stream(Seed(555)).draw(samples * n).reshape(samples, n)
    values = np.zeros(samples, dtype=complex)
    for p in enumerate_partitions(n):
        if p[0] <= n // 2**depth:
            values += partitions._a_values(x, p)
    sq = np.abs(values) ** 2
    se = np.std(sq, ddof=1) / math.sqrt(samples)
    target = smooth_partition_weight(n, n // 2**depth)
    assert abs(np.mean(sq) - target) <= 4.0 * se


def _paired_product(stream, count, parts_a, parts_b):
    x = chaos.field_rows(stream, count, 1.0, 1, max(parts_a + parts_b))[0]
    return partitions._a_values(x, parts_a) * np.conj(partitions._a_values(x, parts_b))


def test_orthogonality_distinct_partitions():
    # E[a(first) conj(a(second))] = 0 for distinct partitions: the modulus of
    # the complex sample mean against the complex dispersion / sqrt(samples)
    for pair, samples in ((((2,), (1, 1)), 10**5),
                          (((1,), (2,)), 10**4),
                          (((3, 1), (2, 2)), 10**5)):
        values = mc.map_chunks(_paired_product, pair, Seed(9000 + samples), samples)
        n = values.size
        mean = complex(np.sum(values) / n)
        spread = float(np.sqrt(np.sum(np.abs(values - mean) ** 2) / (n - 1)))
        assert abs(mean) <= 4.0 * spread / math.sqrt(n)
