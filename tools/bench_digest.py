"""Digest of every benchmark job's output, for byte-identity checks.

Usage (from the root of a checkout):

    python3 tools/bench_digest.py > digests.txt
    python3 tools/bench_digest.py > tools/bench_digests.txt   # rewrite the ledger

Runs each job of perfbench/jobs.py through `hmchaos.cli.main` in process,
at benchmark seeds 1 and 2 (job seeds from `jobs.job_seed`, as the benchmark
derives them) and at --workers 1 and 2, and prints one line per run: the
sha256 of its exit code and standard output, then the workload, seed,
worker count and argv. Then it runs the example commands of README.md as
written (workload `readme`, seed and worker count `-`), leaving out those
that write files (`--out`, `--plot`), so that the commands users copy are
pinned too. Two checkouts print the same lines exactly when every run exits
the same way and writes the same bytes, so comparing a change with its
parent is one diff of two outputs (copy this file into the parent's
checkout to run it there). perfbench/ is imported, never changed.

The first line is the fingerprint the bytes depend on (numpy's version,
its SIMD baseline and the dispatch targets this CPU runs, and the OpenBLAS
core type): tools/bench_digests.txt is the checked-in ledger, and
tests/test_bench_digests.py compares a fresh run with it on a machine of
the same fingerprint.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
import numpy as np  # noqa: E402
from numpy._core._multiarray_umath import (  # noqa: E402
    __cpu_baseline__, __cpu_dispatch__, __cpu_features__)

import hmchaos.cli  # noqa: E402

SEEDS = (1, 2)
WORKERS = (1, 2)


def run(argv) -> tuple[int, str]:
    """The exit code and standard output of one in-process run of
    `hmchaos.cli.main`, its standard error dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = hmchaos.cli.main(argv)
    return rc, out.getvalue()


def digest(argv) -> str:
    """sha256 of the exit code and standard output of one in-process run."""
    rc, out = run(argv)
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def _blas_core() -> str:
    """The kernel family OpenBLAS picked at load time ("unknown" off Linux)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def fingerprint() -> str:
    """The ledger's header line: what the digests' last bits depend on."""
    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return (f"# numpy {np.__version__}; SIMD baseline {' '.join(__cpu_baseline__)}, "
            f"dispatched {' '.join(dispatched) or 'none'}; BLAS core {_blas_core()}")


def readme_commands():
    """The argv of each `hmchaos` line in README.md's Examples block that
    writes no file (no --out or --plot)."""
    text = (ROOT / "README.md").read_text()
    if "Examples:\n\n```sh\n" not in text:
        raise SystemExit("bench_digest: README.md has no Examples block")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        program, *argv = shlex.split(line) or [None]
        if program == "hmchaos" and not {"--out", "--plot"} & set(argv):
            yield argv


def runs(workers=WORKERS):
    """(workload, seed, workers, argv) of every run, in the ledger's order:
    each job at SEEDS and at each worker count in `workers`, then each README
    command (seed and worker count `-`)."""
    for workload, job_list in jobs.WORKLOADS.items():
        for index, job in enumerate(job_list):
            for seed in SEEDS:
                for count in workers:
                    argv = job.argv(jobs.job_seed(seed, workload, index), count)
                    yield workload, seed, count, argv
    for argv in readme_commands():
        yield "readme", "-", "-", argv


def check_own_src(tool: str) -> None:
    """Exit unless hmchaos was imported from this checkout's src."""
    if not Path(hmchaos.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"{tool}: imported hmchaos from {hmchaos.__file__}")


def digest_lines():
    """One digest line per benchmark run and README command, in the ledger's
    order."""
    check_own_src("bench_digest")
    for workload, seed, workers, argv in runs():
        yield " ".join([digest(argv), workload, str(seed), str(workers), *argv])


def main() -> None:
    print(fingerprint(), flush=True)
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
