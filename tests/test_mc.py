"""The replicate-span contract of mc.map_replicates and its batched kernels."""

import numpy as np
import pytest

from hmchaos import chaos, mc
from hmchaos.chaos import (EXP_BLOCK, circle_average_moment, circle_average_sample,
                           coefficient_values, estimate_moment)
from hmchaos.rng import GaussianStream, Seed, split
from hmchaos.series import exp_array

SPANS = []


def _indices(streams, offset):
    # records each span's size; value i is its own replicate index
    assert iter(streams) is streams  # a lazy iterator, not a built list
    values = [stream.seed.replicate_index + offset for stream in streams]
    SPANS.append(len(values))
    return values


def _one_short(streams):
    return [0.0 for _ in streams][1:]


def test_spans_are_fixed_and_values_follow_replicates():
    SPANS.clear()
    samples = 2 * mc.REPLICATE_SPAN + 7
    values = mc.map_replicates(_indices, (0.5,), Seed(3), samples)
    assert np.array_equal(values, np.arange(samples) + 0.5)
    assert SPANS == [mc.REPLICATE_SPAN, mc.REPLICATE_SPAN, 7]


def test_kernel_returning_the_wrong_count_raises():
    with pytest.raises(RuntimeError):
        mc.map_replicates(_one_short, (), Seed(3), 10)


def _scalar_coefficient(N, seed, i):
    # the per-replicate oracle: one 1-D exp on replicate i's own stream
    stream = GaussianStream(split(seed, i))
    return exp_array(chaos._input_series(stream, N, float(N)), N)[N]


@pytest.mark.parametrize("N", [64, 400])
def test_batched_coefficients_equal_the_scalar_oracle(N):
    # samples cross a span boundary, and every block boundary inside it
    rows = EXP_BLOCK // (N + 1)
    assert rows < mc.REPLICATE_SPAN
    samples = mc.REPLICATE_SPAN + 9
    seed = Seed(N)
    oracle = np.array([_scalar_coefficient(N, seed, i) for i in range(samples)])
    assert coefficient_values(N, samples, seed).tobytes() == oracle.tobytes()
    for q in (0.25, 0.5, 1.0):
        est = estimate_moment(N, q, samples, seed)
        ref = mc.from_values([abs(v) ** (2.0 * q) for v in oracle], q, seed)
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)


def test_batched_circle_averages_equal_the_scalar_oracle():
    K, r, D, samples = 8.0, 0.9, 200, mc.REPLICATE_SPAN + 3
    seed = Seed(301)
    oracle = [circle_average_sample(K, r, GaussianStream(split(seed, i)), D)
              for i in range(samples)]
    est = circle_average_moment(K, r, samples, seed, D=D)
    ref = mc.from_values(oracle, 1.0, seed)
    assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
