"""Digest of every benchmark job's output, for byte-identity checks.

Usage (from the root of a checkout):

    python3 tools/bench_digest.py > digests.txt

Runs each job of perfbench/jobs.py through `hmchaos.cli.main` in process,
at benchmark seeds 1 and 2 (job seeds from `jobs.job_seed`, as the benchmark
derives them) and at --workers 1 and 2, and prints one line per run: the
sha256 of its exit code and standard output, then the workload, seed,
worker count and argv. Two checkouts print the same lines exactly when
every run exits the same way and writes the same bytes, so comparing a
change with its parent is one diff of two outputs (copy this file into the
parent's checkout to run it there). perfbench/ is imported, never changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402

import hmchaos.cli  # noqa: E402

SEEDS = (1, 2)
WORKERS = (1, 2)


def digest(argv) -> str:
    """sha256 of the exit code and standard output of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = hmchaos.cli.main(argv)
    return hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()


def main() -> None:
    if not Path(hmchaos.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench_digest: imported hmchaos from {hmchaos.__file__}")
    for workload, job_list in jobs.WORKLOADS.items():
        for index, job in enumerate(job_list):
            for seed in SEEDS:
                for workers in WORKERS:
                    argv = job.argv(jobs.job_seed(seed, workload, index), workers)
                    print(digest(argv), workload, seed, workers, " ".join(argv),
                          flush=True)


if __name__ == "__main__":
    main()
