"""The replicate-span contract of mc.map_replicates and its batched kernels."""

from operator import itemgetter

import numpy as np
import pytest

from conftest import circle_average_sample
from hmchaos import chaos, mc, series
from hmchaos.chaos import EXP_BLOCK, circle_average_moment, estimate_moment
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


def _input_row(N, seed, i):
    # replicate i's input series, drawn from its own stream
    return chaos._input_rows([Stream(split(seed, i))], N, float(N))[0]


def _coefficients(N, samples, seed):
    # A(N) of every replicate, through the batched kernel of estimate_moment
    return mc.map_replicates(chaos._exp_rows, (N, float(N), itemgetter(N)), seed, samples)


def _scalar_coefficient(N, seed, i):
    # the per-replicate oracle: one 1-D exp on replicate i's own stream
    return exp_array(_input_row(N, seed, i), N)[N]


@pytest.mark.parametrize("N", [64, 400, EXP_LEAF + 48])
def test_batched_coefficients_equal_the_scalar_oracle(N):
    # samples cross a span boundary, and every block boundary inside it; the
    # last N runs on the circle, EXP_BLOCK // M rows per block
    rows = EXP_BLOCK // exp_width(N)
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
    assert N >= EXP_LEAF and EXP_BLOCK // exp_width(N) > 1
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
    K, r, D, samples = 8.0, 0.9, 200, mc.REPLICATE_SPAN + 3
    seed = Seed(301)
    oracle = [circle_average_sample(K, r, Stream(split(seed, i)), D)
              for i in range(samples)]
    est = circle_average_moment(K, r, samples, seed, D=D)
    ref = mc.from_values(oracle, seed)
    assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
