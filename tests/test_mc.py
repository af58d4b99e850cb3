"""The replicate-span contract of mc.map_replicates and its batched kernels."""

import math
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest

from conftest import circle_average_sample
from hmchaos import barrier, chaos, mc, numbermodels, series
from hmchaos.chaos import circle_average_moment, estimate_moment
from hmchaos.errors import BudgetError, PreconditionError
from hmchaos.rng import Seed, Stream, split
from hmchaos.series import EXP_LEAF, exp_array, exp_width

SPANS = []


def _first_draws(streams, offset):
    # records each span's size; value i is its own stream's first draw
    assert iter(streams) is streams  # a lazy iterator, not a built list
    values = [stream.draw_real(1)[0] + offset for stream in streams]
    SPANS.append(len(values))
    return values


def _replicates(seed, samples, offset):
    # the values of _first_draws when replicate i's stream is split(seed, i)
    return np.array([Stream(split(seed, i)).draw_real(1)[0] + offset for i in range(samples)])


def _one_short(streams):
    return [0.0 for _ in streams][1:]


def test_spans_are_fixed_and_values_follow_replicates():
    SPANS.clear()
    samples = 2 * mc.REPLICATE_SPAN + 7
    values = mc.map_replicates(_first_draws, (0.5,), Seed(3), samples)
    assert np.array_equal(values, _replicates(Seed(3), samples, 0.5))
    assert SPANS == [mc.REPLICATE_SPAN, mc.REPLICATE_SPAN, 7]


def test_kernel_returning_the_wrong_count_raises():
    with pytest.raises(RuntimeError):
        mc.map_replicates(_one_short, (), Seed(3), 10)


def _pairs(stream, count, width):
    return np.zeros((count + width - 2, 2))  # the right first axis at width 2 only


def test_chunk_kernels_return_one_row_per_replicate():
    samples = mc.CHUNK_SAMPLES + 5
    assert mc.map_chunks(_pairs, (2,), Seed(3), samples).shape == (samples, 2)
    for width in (1, 3):
        with pytest.raises(RuntimeError):
            mc.map_chunks(_pairs, (width,), Seed(3), samples)
    with pytest.raises(RuntimeError):  # a scalar has no replicate axis
        mc.map_chunks(lambda stream, count: 0.0, (), Seed(3), 4)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_pool_size_is_bounded_by_tasks_and_cores(monkeypatch):
    monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    samples = 3 * mc.REPLICATE_SPAN
    expected = _replicates(Seed(3), samples, 0.5)
    for workers, size in ((100000, 3), (3, 3), (2, 2)):
        _SerialPool.sizes.clear()
        values = mc.map_replicates(_first_draws, (0.5,), Seed(3), samples, workers)
        assert np.array_equal(values, expected)
        assert _SerialPool.sizes == [size]
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    _SerialPool.sizes.clear()
    mc.map_replicates(_first_draws, (0.5,), Seed(3), samples, 100000)
    assert _SerialPool.sizes == [2]
    # one task, one core, or one worker run in process
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    _SerialPool.sizes.clear()
    mc.map_replicates(_first_draws, (0.5,), Seed(3), samples, 100000)
    mc.map_replicates(_first_draws, (0.5,), Seed(3), 5, 100000)
    assert _SerialPool.sizes == []


# every estimator at a valid configuration, given its sample count
ESTIMATORS = {
    "estimate_moment": lambda n: chaos.estimate_moment(8, 0.5, n, Seed(1)),
    "circle_mean_mc": lambda n: chaos.circle_mean_mc(8.0, 1.0, n, Seed(1)),
    "circle_average_moment": lambda n: circle_average_moment(8.0, 0.5, n, Seed(1)),
    "steinhaus_abs_moment": lambda n: numbermodels.steinhaus_abs_moment(100.0, 2.0, n,
                                                                        Seed(1)),
    "ff_second_moment": lambda n: numbermodels.ff_second_moment(3, 2, n, Seed(1)),
    "ballot_probability_mc": lambda n: barrier.ballot_probability_mc([1.0], [1.0], n,
                                                                     Seed(1)),
    "event_probability_mc": lambda n: barrier.event_probability_mc("G", 20.0, 1.0, [2.0],
                                                                   n, Seed(1)),
    "event_G_all_angles_mc": lambda n: barrier.event_G_all_angles_mc(20.0, 1.0, [2.0], n,
                                                                     Seed(1)),
    "change_of_measure_left": lambda n: barrier.change_of_measure_check(20.0, 1.0, 2.0, n,
                                                                        100, Seed(1)),
    "change_of_measure_right": lambda n: barrier.change_of_measure_check(20.0, 1.0, 2.0,
                                                                         100, n, Seed(1)),
    # blocks 3..log K_r = 3 lie past M = 2
    "two_walk_blocks": lambda n: barrier.two_walk_tilted_expectation(0.99, 0.5, 1e6, 1.0,
                                                                     n, Seed(1)),
    # no block lies past M = 1 (log K_r = 0): the estimate needs no map
    "two_walk_no_blocks": lambda n: barrier.two_walk_tilted_expectation(0.9, 1.0, 10.0,
                                                                        1.0, n, Seed(1)),
}


@pytest.mark.parametrize("samples", [0, 1])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_every_estimator_refuses_fewer_than_two_samples_before_a_replicate(
        name, samples, monkeypatch):
    def no_tasks(*args):
        raise AssertionError("a replicate task ran before the sample count was refused")

    def no_setup(*args):
        raise AssertionError("the O(K) walk variances were built before the sample "
                             "count was refused")

    monkeypatch.setattr(mc, "_run_tasks", no_tasks)
    with monkeypatch.context() as setup:
        setup.setattr(chaos, "walk_variances", no_setup)
        with pytest.raises(PreconditionError):
            ESTIMATORS[name](samples)
    # the configuration is valid: at an allowed count the tasks are reached
    if name == "two_walk_no_blocks":
        assert ESTIMATORS[name](2).mean == 1.0
    else:
        with pytest.raises(AssertionError):
            ESTIMATORS[name](100 if name.startswith("ballot") else 2)


def test_the_maps_refuse_fewer_than_two_samples(monkeypatch):
    monkeypatch.setattr(mc, "_run_tasks", None)  # calling it would raise TypeError
    for samples in (-1, 0, 1):
        with pytest.raises(PreconditionError):
            mc.map_replicates(_first_draws, (0.5,), Seed(3), samples)
        with pytest.raises(PreconditionError):
            mc.map_chunks(_pairs, (2,), Seed(3), samples)
    # above the budget, before the task list is built; the budget itself is allowed
    with pytest.raises(BudgetError):
        mc.map_replicates(_first_draws, (0.5,), Seed(3), series.FIELD_BUDGET + 1)
    with pytest.raises(BudgetError):
        mc.map_chunks(_pairs, (2,), Seed(3), series.FIELD_BUDGET + 1)
    with pytest.raises(TypeError):
        mc.map_chunks(_pairs, (2,), Seed(3), series.FIELD_BUDGET)


@pytest.mark.parametrize("power", [0.0, 0.5, 1.0, 2.0, 3.7])
def test_abs_powers_is_abs_value_by_value(power):
    z = Stream(Seed(16)).draw(257)
    for values in (z, z.real, [complex(v) for v in z], [3.0, -0.0, 1e-310, -2.5]):
        ref = np.array([abs(v) ** power for v in values])
        assert np.array(mc.abs_powers(values, power)).tobytes() == ref.tobytes()


def test_abs_powers_refuses_an_overflowing_power():
    with pytest.raises(PreconditionError):
        mc.abs_powers([2.0], 1e4)
    with pytest.raises(PreconditionError):
        mc.abs_powers([0.5, 3.0 + 4.0j], 1e3)
    assert mc.abs_powers([], 1e4) == []


def _from_values_two_temporaries(values):
    # the reduction with a float copy and a deviations temporary
    values = np.asarray(values, dtype=float)
    mean = float(np.sum(values) / values.size)
    var = float(np.sum((values - mean) ** 2) / (values.size - 1))
    return mean, math.sqrt(var / values.size)


def test_from_values_keeps_the_two_temporaries_bits_and_its_input():
    draws = Stream(Seed(17)).draw_real(3 * 10001)
    table = draws.reshape(10001, 3)
    for values in (draws > 0.3, (draws * 100).astype(np.int64), list(draws[:999]),
                   draws, table[:, 1], [True, False, True]):
        before = np.array(values).tobytes()
        est = mc.from_values(values, Seed(1))
        mean, std_error = _from_values_two_temporaries(values)
        assert np.array([est.mean, est.std_error]).tobytes() == \
            np.array([mean, std_error]).tobytes()
        assert est.samples == np.size(values)
        assert np.array(values).tobytes() == before


@pytest.mark.parametrize("n", [mc.SPAN_BLOCK - 1, mc.SPAN_BLOCK, mc.SPAN_BLOCK + 1,
                               2 * mc.SPAN_BLOCK + 7, 10**6 + 3])
def test_the_leaf_tree_keeps_the_bits_of_one_float_copy(n):
    # every leaf boundary of numpy's pairwise tree, on values whose sums
    # round differently under any other order
    draws = Stream(Seed(19)).draw_real(3 * n)
    wide = draws * np.exp(8.0 * draws)
    table = wide.reshape(n, 3)
    for values in (draws[:n] > 0.3, (draws[:n] * 1e6).astype(np.int64),
                   wide[:n].tolist(), wide[:n], table[:, 1]):
        before = np.array(values).tobytes()
        est = mc.from_values(values, Seed(1))
        mean, std_error = _from_values_two_temporaries(values)
        assert np.array([est.mean, est.std_error]).tobytes() == \
            np.array([mean, std_error]).tobytes()
        assert est.samples == n
        assert np.array(values).tobytes() == before


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_values_holds_no_deviations_array():
    # 10^6 indicators (1 MiB); a float copy of them would be 7.6 MiB, and a
    # deviations array 7.6 MiB more
    flags = Stream(Seed(18)).draw_real(10**6) > 0.0
    assert _traced_peak(mc.from_values, flags, Seed(1)) < 10 * 2**20


def test_from_values_holds_one_float_leaf_at_a_time():
    # one leaf of mc.SPAN_BLOCK floats is 256 KiB
    flags = Stream(Seed(18)).draw_real(10**6) > 0.0
    assert _traced_peak(mc.from_values, flags, Seed(1)) < 2**20


def _concatenated_chunks(fn, args, seed, samples, chunk):
    # the maps' values as np.concatenate of every task's values
    return np.concatenate([fn(Stream(split(seed, index)), min(chunk, samples - start), *args)
                           for index, start in enumerate(range(0, samples, chunk))])


@pytest.mark.parametrize("workers", [1, 2])
def test_the_maps_write_the_bytes_of_the_concatenated_tasks(workers):
    heights = np.array([1.0, 2.0, 3.0])
    sigmas = np.sqrt(barrier._block_variances(1.0, 3))
    levels = barrier._levels(heights, 3, 10.0)
    seed, samples, chunk = Seed(46), 3 * 512 + 5, 512
    for fn, args in ((barrier._com_right_chunk, (sigmas, levels[:1])),  # bool (count,)
                     (barrier._event_chunk, (sigmas, levels))):         # bool (count, heights)
        values = mc.map_chunks(fn, args, seed, samples, workers, chunk=chunk)
        ref = _concatenated_chunks(fn, args, seed, samples, chunk)
        assert (values.dtype, values.shape) == (ref.dtype, ref.shape)
        assert values.tobytes() == ref.tobytes()
    samples = 2 * mc.REPLICATE_SPAN + 7  # float spans
    values = mc.map_replicates(_first_draws, (0.5,), seed, samples, workers)
    ref = _replicates(seed, samples, 0.5)
    assert (values.dtype, values.shape) == (ref.dtype, ref.shape)
    assert values.tobytes() == ref.tobytes()


def test_a_task_of_another_dtype_raises():
    def mixed(stream, count):
        return np.zeros(count, dtype=bool if count == 4 else float)

    with pytest.raises(RuntimeError):
        mc.map_chunks(mixed, (), Seed(3), 6, chunk=4)


def _input_row(N, seed, i):
    # replicate i's input series, drawn from its own stream
    return next(chaos._input_rows([Stream(split(seed, i))], N, float(N)))[0]


def _coefficients(N, samples, seed):
    # A(N) of every replicate, through the batched kernel of estimate_moment
    return mc.map_replicates(chaos._exp_rows, (N, float(N), itemgetter(N)), seed, samples)


def _scalar_coefficient(N, seed, i):
    # the per-replicate oracle: one 1-D exp on replicate i's own stream
    return exp_array(_input_row(N, seed, i), N)[N]


@pytest.mark.parametrize("N", [64, 400, EXP_LEAF + 48])
def test_batched_coefficients_equal_the_scalar_oracle(N):
    # samples cross a span boundary, and every block boundary inside it; the
    # last N runs on the circle, mc.SPAN_BLOCK // M rows per block
    rows = mc.SPAN_BLOCK // exp_width(N)
    assert 1 < rows < mc.REPLICATE_SPAN
    samples = mc.REPLICATE_SPAN + 9
    seed = Seed(N)
    oracle = np.array([_scalar_coefficient(N, seed, i) for i in range(samples)])
    assert _coefficients(N, samples, seed).tobytes() == oracle.tobytes()
    for q in (0.25, 0.5, 1.0):
        est = estimate_moment(N, q, samples, seed)
        ref = mc.from_values([abs(v) ** (2.0 * q) for v in oracle], seed)
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)


def test_chaos_rows_over_the_bound_are_redone_on_a_wider_circle(monkeypatch):
    # at N = 1536 the size rule leaves M/N at 5.3, and about one chaos row in
    # six fails its error estimate on M points. With the recurrence out of
    # reach (RECURRENCE_REDO and RECURRENCE_BUDGET at 0, as past degree
    # 65535) each such row is redone on 2M, so the estimate completes, every
    # value keeps the bits of its own 1-D call, and the values stay within
    # 1e-12 of the oracle's
    N, samples, seed = 1536, mc.REPLICATE_SPAN + 9, Seed(1536)
    assert N >= EXP_LEAF and mc.SPAN_BLOCK // exp_width(N) > 1
    row_exp, seen = series._circle_row, []

    def spy(row, degree, buf):
        coeffs, err = row_exp(row, degree, buf)
        seen.append((buf.size, err))
        return coeffs, err

    monkeypatch.setattr(series, "_circle_row", spy)
    monkeypatch.setattr(series, "RECURRENCE_REDO", 0)
    monkeypatch.setattr(series, "RECURRENCE_BUDGET", 0)
    values = _coefficients(N, samples, seed)
    est = estimate_moment(N, 0.5, samples, seed)
    retried = sum(err > series.EXP_TOLERANCE for _, err in seen)
    assert 0 < retried < len(seen) // 4
    assert {size for size, _ in seen} == {exp_width(N), 2 * exp_width(N)}
    scalar = np.array([_scalar_coefficient(N, seed, i) for i in range(samples)])
    assert values.tobytes() == scalar.tobytes()
    assert est.mean == mc.from_values([abs(v) for v in scalar], seed).mean
    monkeypatch.undo()
    oracle = [exp_array(_input_row(N, seed, i), N, "recurrence")[N] for i in range(samples)]
    assert np.max(np.abs(values - oracle)) < 1e-12


def test_batched_circle_averages_equal_the_scalar_oracle():
    K, r, samples = 8.0, 0.9, mc.REPLICATE_SPAN + 3
    seed = Seed(301)
    oracle = [circle_average_sample(K, r, Stream(split(seed, i))) for i in range(samples)]
    est = circle_average_moment(K, r, samples, seed)
    ref = mc.from_values(oracle, seed)
    assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
