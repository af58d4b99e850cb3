"""Workload definitions: fixed lists of `hmchaos` CLI jobs.

A workload is one list of jobs; a pass runs the whole list in order through
`hmchaos.cli.main(argv)` at `--workers 1`. Job seeds are derived from the
benchmark's `--seed`, so the program only ever sees the generated argv.

Statistical verdicts are not requested with `--check` where the verdict's
false-failure rate at benchmark sample sizes is measurable (the 4-sigma and
5-sigma gates on heavy-tailed samples, and the 2-sigma monotone comparison
of neighbouring N in `decay`): with seed-derived inputs those would report
failures that are not defects. Their outputs are still checked byte for
byte against the first pass and against a `--workers 2` run. See
perfbench/README.md for the measured rates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

CHUNK = 4096          # mc.CHUNK_SAMPLES, the chunk of every vectorized kernel
GRID_CHUNK = 512      # chunk used by the all-angle grid event
MIB = float(1 << 20)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: subcommand, flags, and its setup-size variant."""

    sub: str
    flags: dict
    check: bool = False
    setup: dict = field(default_factory=dict)   # flag overrides for the setup run
    array: tuple = ("no array kernel", 0)       # (formula, bytes), computed from shape

    def argv(self, seed: int, workers: int = 1) -> list[str]:
        out = [self.sub] + _flags(self.flags)
        out += ["--seed", str(seed), "--workers", str(workers)]
        return out + (["--check"] if self.check else [])

    def setup_argv(self) -> list[str]:
        """Same tables and shapes as argv(), minimum work, no verdict."""
        return [self.sub] + _flags({**self.flags, **self.setup})


def _flags(flags: dict) -> list[str]:
    out = []
    for flag, value in flags.items():
        out += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    return out


def _kmax(n_max: int) -> int:
    """Last index of barrier block n_max: ceil(e^n_max) - 1."""
    return int(math.ceil(math.e ** n_max)) - 1


def _chaos(grid, samples):
    n = max(grid)
    batch = max(s for g, s in zip(grid, samples) if g == n)
    return (f"per replicate (N+1) x 16 B at N={n}; batched samples x (N+1) x 16 B "
            f"= {batch * (n + 1) * 16 / MIB:.2f} MiB", (n + 1) * 16)


def _event(K, chunk=CHUNK):
    n_max = int(math.floor(math.log(K) + 1e-9))
    return (f"chunk {chunk} x kmax {_kmax(n_max)} x 16 B", chunk * _kmax(n_max) * 16)


def _event_L(K, r):
    horizon = min(-1.0 / (4.0 * math.log(r)), K)
    n_max = int(math.floor(math.log(horizon) + 1e-9))
    return (f"chunk {CHUNK} x kmax {_kmax(n_max)} x 16 B", CHUNK * _kmax(n_max) * 16)


def _grid(K):
    n_max = int(math.floor(math.log(K) + 1e-9))
    points = int(math.ceil(n_max * math.e ** n_max))
    return (f"chunk {GRID_CHUNK} x grid {points} x 16 B", GRID_CHUNK * points * 16)


def _com(K):
    m = int(math.floor(K + 1e-9))
    return (f"chunk {CHUNK} x K {m} x 16 B (left route)", CHUNK * m * 16)


DECAY_GRID = (64, 512, 4096, 8192)
DECAY_SAMPLES = (1000, 200, 24, 12)

WORKLOADS = {
    "chaos-mc": [
        Job("decay", {"n-grid": ",".join(map(str, DECAY_GRID)),
                      "samples-per": ",".join(map(str, DECAY_SAMPLES))},
            setup={"samples-per": "2,2,2,2"}, array=_chaos(DECAY_GRID, DECAY_SAMPLES)),
        Job("moment", {"N": 512, "q": 1, "samples": 200}, setup={"samples": 2},
            array=_chaos((512,), (200,))),
        Job("series-selftest", {"degree": 2048}, check=True,
            array=("FFT length 8192 x 32 B (long-double refinement)", 8192 * 32)),
    ],
    "barrier-mc": [
        Job("ballot", {"a-grid": "1,2,4", "n-grid": "16,64,256", "samples": 10000},
            check=True, setup={"samples": 100},
            array=(f"chunk {CHUNK} x n 256 x 8 B", CHUNK * 256 * 8)),
        Job("event", {"kind": "G", "K": 1000, "r": 1, "samples": 8192},
            setup={"samples": 2}, array=_event(1000)),
        Job("event", {"kind": "L", "K": 10000, "r": 0.99, "samples": 20000},
            setup={"samples": 2}, array=_event_L(10000, 0.99)),
        Job("event", {"kind": "G", "all-angles": True, "K": 400, "r": 1, "samples": 1024},
            setup={"samples": 2}, array=_grid(400)),
        Job("com-check", {"K": 20, "r": 1, "A": 2, "samples-left": 100000,
                          "samples-right": 1000000},
            setup={"samples-left": 2, "samples-right": 2}, array=_com(20)),
        Job("blocks", {"r": 0.98, "theta": 0.5, "m-max": 8}, check=True),
        Job("bivariate", {}, check=True,
            array=("quadrature grid 400 x 400 x 8 B", 400 * 400 * 8)),
    ],
    "arith-exact": [
        Job("steinhaus", {"x": 100, "power": 2, "samples": 1000}, setup={"samples": 2},
            array=("f(0..x) (x+1) x 16 B", 101 * 16)),
        Job("steinhaus", {"x": 10000, "power": 2, "samples": 200}, setup={"samples": 2},
            array=("f(0..x) (x+1) x 16 B", 10001 * 16)),
        Job("ff", {"mode": "moment", "q": 7, "N": 5, "samples": 300},
            setup={"samples": 2}, array=("q^N rows x 16 B", 7**5 * 16)),
        Job("ff", {"mode": "moment", "q": 3, "N": 8, "samples": 400},
            setup={"samples": 2}, array=("q^N rows x 16 B", 3**8 * 16)),
        Job("ff", {"mode": "series", "q": 5, "N": 6}, check=True,
            array=("q^N rows x 16 B", 5**6 * 16)),
        Job("ff", {"mode": "counts", "q": 3, "n-max": 8}, check=True),
        Job("mass", {"N-max": 25}, check=True),
    ],
}

# One small job per shape that a per-layer metric names. A traced run takes
# a metric from this list only when its own workload does not exercise it.
PROBE = [
    Job("decay", {"n-grid": "64,512,4096,8192", "samples-per": "40,8,2,2"}),
    Job("moment", {"N": 512, "q": 1, "samples": 8}),
    Job("series-selftest", {"degree": 2048}),
    Job("ballot", {"a-grid": "1,2,4", "n-grid": "16,64,256", "samples": 512}),
    Job("event", {"kind": "G", "K": 1000, "r": 1, "samples": 512}),
    Job("event", {"kind": "G", "all-angles": True, "K": 400, "r": 1, "samples": 64}),
    Job("com-check", {"K": 20, "r": 1, "A": 2, "samples-left": 512,
                      "samples-right": 4096}),
    Job("blocks", {"r": 0.98, "theta": 0.5, "m-max": 8}),
    Job("bivariate", {}),
    Job("steinhaus", {"x": 100, "power": 2, "samples": 40}),
    Job("steinhaus", {"x": 10000, "power": 2, "samples": 4}),
    Job("ff", {"mode": "moment", "q": 7, "N": 5, "samples": 20}),
    Job("ff", {"mode": "moment", "q": 3, "N": 8, "samples": 20}),
    Job("mass", {"N-max": 12}),
]


def job_seed(seed: int, workload: str, index: int) -> int:
    """Job seed: a 63-bit hash of (benchmark seed, workload, job index)."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
