"""Deterministic Monte Carlo plumbing: replicate fan-out and reduction.

Replicate i of an estimator is a pure function of split(seed, i), and work
is cut into fixed-size spans of replicate indices, so the per-replicate
values are identical for any worker count. A span reaches its kernel as
one lazy iterator of streams (rng.Stream), so the kernel may stack its
replicates into one batch, as long as each value depends only on its own
stream: chaos's kernels have rng.fill_rows let each stream write its
uniforms into its row of an exp input block, then run one Box-Muller pass
over the block, and the number models' kernels do the same with one
unit_circle pass, with the bits each stream's own draw would give. A
map_chunks kernel draws its whole chunk from one stream: the barrier
kernels lay the chunk's walks out step-major (chaos._walks), one row of
real draws per step, so walk i is column i. A stream is Philox keyed
directly by its seed, so creating one per replicate reads no OS entropy.
Reductions run over the gathered array in replicate order with numpy's
pairwise summation, making every estimate reproducible bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .rng import Seed, Stream, split

REPLICATE_SPAN = 512   # replicates per task; fixed so task layout never varies
CHUNK_SAMPLES = 4096   # batch size for internally vectorized estimators


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo estimate with its provenance."""

    mean: float
    std_error: float
    samples: int
    seed: Seed


def from_values(values: np.ndarray, seed: Seed) -> MomentEstimate:
    """Mean and standard error (sample sd / sqrt(n)) of replicate values."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise PreconditionError("an estimate needs at least 2 samples")
    mean = float(np.sum(values) / n)
    var = float(np.sum((values - mean) ** 2) / (n - 1))
    return MomentEstimate(mean, math.sqrt(var / n), n, seed)


def check_samples(samples: int, least: int = 2) -> None:
    """Refuse a replicate count below `least` before any replicate runs.

    Estimators reduced by from_values need 2; the maps need 1.
    """
    if not samples >= least:
        raise PreconditionError(f"need at least {least} samples, got {samples}")


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


def _run_tasks(runner, tasks, workers):
    # a pool starts all its workers at once, so never more than there are
    # tasks or cores; results do not depend on the worker count
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [runner(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(runner, tasks))


def map_replicates(fn, args, seed: Seed, samples: int, workers: int = 1) -> np.ndarray:
    """values[start:stop] = fn(streams, *args) for each span [start, stop).

    streams lazily yields Stream(split(seed, i)) for i = start..stop-1,
    and fn returns exactly one value per stream, in order; value i must
    depend on stream i alone. Spans hold REPLICATE_SPAN replicates. fn must
    be a module-level callable (it is pickled when workers > 1).
    """
    check_samples(samples, 1)
    tasks = [(fn, args, seed, start, min(start + REPLICATE_SPAN, samples))
             for start in range(0, samples, REPLICATE_SPAN)]
    return np.concatenate(_run_tasks(_eval_span, tasks, workers))


def map_chunks(fn, args, seed: Seed, samples: int, workers: int = 1,
               chunk: int = CHUNK_SAMPLES) -> np.ndarray:
    """Concatenate fn(Stream(split(seed, c)), count_c, *args) over chunks.

    For estimators that vectorize internally: chunk c owns replicates
    [c*chunk, c*chunk + count_c) and draws them all from one child stream.
    fn returns an array whose first axis has one entry per replicate, so a
    kernel that yields several values per replicate returns
    (count_c, values) and the result is (samples, values).
    The chunk size is fixed per call site, never derived from the worker
    count, so results are worker-count independent.
    """
    check_samples(samples, 1)
    tasks = []
    for index, start in enumerate(range(0, samples, chunk)):
        tasks.append((fn, args, seed, index, min(chunk, samples - start)))
    return np.concatenate(_run_tasks(_eval_chunk, tasks, workers))
