"""Deterministic Monte Carlo plumbing: replicate fan-out and reduction.

Replicate i of an estimator is a pure function of split(seed, i), and work
is cut into fixed-size spans of replicate indices, so the per-replicate
values are identical for any worker count. A span reaches its kernel as
one lazy iterator of streams (rng.Stream), so the kernel may stack its
replicates into one batch, as long as each value depends only on its own
stream: chaos's kernels draw their exp input blocks through
rng.draw_blocks, and the number models' kernels their values of f through
rng.draw_unit_blocks, each row with the bits its stream's own draw would
give, in blocks whose widest per-replicate array holds at most SPAN_BLOCK
values. A map_chunks kernel draws its whole chunk from one stream: the
barrier kernels lay the chunk's walks out step-major (barrier._walks), one
row of real draws per step, so walk i is column i. A stream is Philox
keyed directly by its seed, so creating one per replicate reads no OS
entropy. The maps write each task's values into one (samples, ...) array
as the results arrive. Reductions run over it in replicate order with
numpy's pairwise summation, making every estimate reproducible bit for bit;
from_values walks numpy's own summation tree down to leaves of at most
SPAN_BLOCK values and casts one leaf at a time to float, so it holds no
float copy of the values.
Both maps refuse a sample count below 2 or above FIELD_BUDGET before they
build a task (check_samples); an estimator with O(K) set-up calls
check_samples itself first.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError
from .rng import Seed, Stream, split
from .series import FIELD_BUDGET

REPLICATE_SPAN = 512   # replicates per task; fixed so task layout never varies
CHUNK_SAMPLES = 4096   # batch size for internally vectorized estimators
# Cap on the values of a span block's widest per-replicate array (chaos's
# exp_width(N), a Steinhaus tree's rows, the F_q[t] irreducibles). Chaos rows
# below EXP_LEAF share each recurrence step: at 2^15 chaos-mc ran 63% faster at
# +2.9% peak RSS (2-core Xeon). At x = 10^4 three Steinhaus replicates share each
# tree level's calls; 2**16 ran faster but raised the arith-exact peak RSS.
SPAN_BLOCK = 2**15


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo estimate with its provenance."""

    mean: float
    std_error: float
    samples: int
    seed: Seed


def _tree_sum(values, lo, hi, leaf_sum):
    """The sum of leaf_sum over the leaves of values[lo:hi], split as numpy's
    pairwise_sum splits above its 128-value block (n // 2 rounded down to a
    multiple of 8) down to at most SPAN_BLOCK values: with a leaf_sum that
    runs np.sum on its leaf, it has the bits of np.sum over all of them."""
    n = hi - lo
    if n <= SPAN_BLOCK:
        return leaf_sum(values[lo:hi])
    half = n // 2
    half -= half % 8
    return (_tree_sum(values, lo, lo + half, leaf_sum)
            + _tree_sum(values, lo + half, hi, leaf_sum))


def from_values(values: np.ndarray, seed: Seed) -> MomentEstimate:
    """Mean and standard error (sample sd / sqrt(n)) of replicate values.

    Both sums keep the bits of np.sum over a float copy of the values and
    of (values - mean) ** 2, but hold one float leaf of at most SPAN_BLOCK
    values at a time (_tree_sum); the caller's array is never written."""
    if isinstance(values, np.ndarray):
        values = values.ravel()
    else:
        values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise PreconditionError("an estimate needs at least 2 samples")
    mean = float(_tree_sum(values, 0, n, lambda leaf: np.sum(leaf.astype(float))) / n)

    def squared_deviations(leaf):
        leaf = leaf.astype(float)
        np.subtract(leaf, mean, out=leaf)
        return np.sum(np.square(leaf, out=leaf))

    var = float(_tree_sum(values, 0, n, squared_deviations) / (n - 1))
    return MomentEstimate(mean, math.sqrt(var / n), n, seed)


def check_samples(samples: int) -> None:
    """Refuse fewer than 2 replicates before any task runs: every estimator
    reduces the maps' values with from_values, which needs 2. More than
    FIELD_BUDGET replicates are refused too, before their task list and
    values are built."""
    if not samples >= 2:
        raise PreconditionError(f"need at least 2 samples, got {samples}")
    if samples > FIELD_BUDGET:
        raise BudgetError(f"{samples} samples exceed the budget of {FIELD_BUDGET}")


def abs_powers(values, power) -> list:
    """|value|**power of each value (abs one by one: np.abs over an array
    rounds differently), refusing a power that overflows."""
    try:
        return [abs(value) ** power for value in values]
    except OverflowError:
        raise PreconditionError(f"|value|**{power} overflows a float") from None


def _eval_span(task):
    fn, args, seed, start, stop = task
    streams = (Stream(split(seed, i)) for i in range(start, stop))
    values = np.asarray(fn(streams, *args))
    if values.shape != (stop - start,):
        raise RuntimeError(f"{fn.__name__} returned {values.shape} values for "
                           f"{stop - start} replicates")
    return values


def _eval_chunk(task):
    fn, args, seed, index, count = task
    values = np.asarray(fn(Stream(split(seed, index)), count, *args))
    if values.shape[:1] != (count,):
        raise RuntimeError(f"{fn.__name__} returned {values.shape} values for "
                           f"{count} replicates")
    return values


def _gather(results, samples):
    # one (samples, ...) array of the first result's dtype and trailing
    # shape, each task's values written in as they arrive
    out, start = None, 0
    for values in results:
        if out is None:
            out = np.empty((samples, *values.shape[1:]), dtype=values.dtype)
        elif values.dtype != out.dtype or values.shape[1:] != out.shape[1:]:
            raise RuntimeError(f"a task returned {values.dtype} values of shape "
                               f"{values.shape} after {out.dtype} rows of {out.shape[1:]}")
        out[start : start + len(values)] = values
        start += len(values)
    return out


def _run_tasks(runner, tasks, workers, samples):
    # a pool starts all its workers at once, so never more than there are
    # tasks or cores; results do not depend on the worker count
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return _gather(map(runner, tasks), samples)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _gather(pool.map(runner, tasks), samples)


def map_replicates(fn, args, seed: Seed, samples: int, workers: int = 1) -> np.ndarray:
    """values[start:stop] = fn(streams, *args) for each span [start, stop).

    streams lazily yields Stream(split(seed, i)) for i = start..stop-1,
    and fn returns exactly one value per stream, in order; value i must
    depend on stream i alone. Spans hold REPLICATE_SPAN replicates. fn must
    be a module-level callable (it is pickled when workers > 1).
    """
    check_samples(samples)
    tasks = [(fn, args, seed, start, min(start + REPLICATE_SPAN, samples))
             for start in range(0, samples, REPLICATE_SPAN)]
    return _run_tasks(_eval_span, tasks, workers, samples)


def map_chunks(fn, args, seed: Seed, samples: int, workers: int = 1,
               chunk: int = CHUNK_SAMPLES) -> np.ndarray:
    """fn(Stream(split(seed, c)), count_c, *args) of each chunk c, in order.

    For estimators that vectorize internally: chunk c owns replicates
    [c*chunk, c*chunk + count_c) and draws them all from one child stream.
    fn returns an array whose first axis has one entry per replicate, so a
    kernel that yields several values per replicate returns
    (count_c, values) and the result is (samples, values).
    The chunk size is fixed per call site, never derived from the worker
    count, so results are worker-count independent.
    """
    check_samples(samples)
    tasks = []
    for index, start in enumerate(range(0, samples, chunk)):
        tasks.append((fn, args, seed, index, min(chunk, samples - start)))
    return _run_tasks(_eval_chunk, tasks, workers, samples)
