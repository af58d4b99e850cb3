"""Traced peak memory and seconds of each benchmark job, or of the large
inputs whose held memory the README quotes.

Usage (from the root of a checkout):

    python3 tools/peaks.py barrier-mc              # each job of one workload
    python3 tools/peaks.py large                   # the LARGE argvs below

Runs each argv once through `hmchaos.cli.main` in process (by
`bench_digest.run`), under tracemalloc, and prints one line per run: the
tracemalloc peak in MiB, the seconds of that traced run, the exit code and
the argv. A workload's jobs run with the benchmark's argv at benchmark seed
1 and --workers 1, as `bench_digest.runs` builds them. The tracemalloc peak
is what Python and numpy allocate, not the process's RSS. Copy this file
and bench_digest.py into another checkout's tools/ to compare the two.
perfbench/ is imported, never changed.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

import bench_digest

# Inputs far above the benchmark's sizes, each bounded by what one kernel
# or one row holds at once (the all-angle run at K = 30000 exits 3 on its
# budget; it is here to show that it does so before any draw).
LARGE = (
    ["ballot", "--n-grid", "4096", "--samples", "4096"],
    ["event", "--K", "1e7", "--r", "1"],
    ["com-check", "--K", "1e6"],
    ["com-check", "--K", "1e7", "--samples-left", "1000"],
    ["blocks", "--r", "0.98", "--theta", "0.5", "--m-max", "17"],
    ["event", "--all-angles", "--K", "162755", "--r", "1", "--samples", "8"],
    ["event", "--all-angles", "--K", "30000", "--r", "1", "--samples", "2048"],
    ["bivariate", "--grid-points", "8000000", "--rho-grid", "0.3,-0.05"],
)


def measure(argv) -> tuple[float, float, int]:
    """(tracemalloc peak in MiB, seconds, exit code) of one in-process run,
    its output dropped."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, _ = bench_digest.run(argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, seconds, code


def argvs(target: str):
    """The argvs of a workload's jobs at benchmark seed 1, or LARGE."""
    if target == "large":
        return list(LARGE)
    return [argv for workload, seed, _, argv in bench_digest.runs(workers=(1,))
            if workload == target and seed == 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("target", choices=[*bench_digest.jobs.WORKLOADS, "large"])
    args = parser.parse_args(argv)
    bench_digest.check_own_src("peaks")
    print("peak_mib seconds exit argv")
    for run in argvs(args.target):
        peak, seconds, code = measure(run)
        print(f"{peak:.2f} {seconds:.3f} {code} {' '.join(run)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
