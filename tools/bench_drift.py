"""Largest differences between the benchmark outputs of two checkouts.

Usage (from the root of a checkout):

    python3 tools/bench_drift.py OTHER_CHECKOUT

Runs the ledger's run list, `bench_digest.runs`, at --workers 1 (each job
of this checkout's perfbench/jobs.py at benchmark seeds 1 and 2, then the
README.md example commands as workload `readme`, seed `-`) through
`bench_digest.run`, once on this checkout's src and once on
OTHER_CHECKOUT/src, each side in its own subprocess. perfbench/ is
imported, never changed.

For each run whose exit code or CSV differs, it prints the run, both exit
codes if they differ, and for every column of the table how many of its
cells differ; where a column's cells both parse as finite numbers it also
prints the largest absolute difference and the largest relative difference
|a - b| / max(|a|, |b|). Booleans print as 0 and 1, so a flipped verdict is
a numeric difference of 1. Text and non-finite cells are compared as text.
Runs that match print nothing; the last line counts the runs that differ.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_jobs(src: str) -> None:
    """Print [workload, seed, argv, exit code, stdout] of every run of
    bench_digest.runs at --workers 1 as JSON, with the hmchaos package
    imported from `src`: imported first, since bench_digest imports it from
    this checkout's src unless it is loaded already (and jobs from
    perfbench/)."""
    sys.path.insert(0, src)
    import hmchaos.cli
    from bench_digest import run, runs

    records = [[workload, seed, argv, *run(argv)]
               for workload, seed, _, argv in runs(workers=(1,))]
    # after the runs, so after bench_digest's own import of hmchaos.cli
    if not Path(hmchaos.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bench_drift: imported hmchaos from {hmchaos.__file__}")
    print(json.dumps(records))


def outputs(checkout: Path) -> list:
    command = [sys.executable, __file__, "--run", str(checkout / "src")]
    return json.loads(subprocess.run(command, check=True, capture_output=True,
                                     text=True).stdout)


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def column_drift(ours: str, theirs: str) -> list[str]:
    """One line per column: differing cells and the numeric cells' largest
    absolute and relative difference."""
    a, b = (list(csv.reader(io.StringIO(text))) for text in (ours, theirs))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return ["  the tables differ in their columns or row counts"]
    lines = []
    for j, name in enumerate(a[0]):
        pairs = [(x[j], y[j]) for x, y in zip(a[1:], b[1:])]
        differ = sum(x != y for x, y in pairs)
        line = f"  {name}: {differ} of {len(pairs)} cells differ"
        numbers = [(_number(x), _number(y)) for x, y in pairs]
        numbers = [(x, y) for x, y in numbers if x is not None and y is not None]
        if numbers:
            gap = max(abs(x - y) for x, y in numbers)
            rel = max(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
                      for x, y in numbers)
            line += f", max abs {gap:.3g}, max rel {rel:.3g}"
        lines.append(line)
    return lines


def main(argv: list[str]) -> None:
    if argv[:1] == ["--run"] and len(argv) == 2:
        return run_jobs(argv[1])
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "hmchaos").is_dir():
        raise SystemExit("usage: python3 tools/bench_drift.py OTHER_CHECKOUT "
                         "(a checkout with src/hmchaos)")
    here, there = outputs(ROOT), outputs(Path(argv[0]))
    differing = [(a, b) for a, b in zip(here, there) if a[2:] != b[2:]]
    for (workload, seed, args, rc, text), (*_, other_rc, other_text) in differing:
        print(f"{workload} seed {seed}: {' '.join(args)}")
        if rc != other_rc:
            print(f"  exit code {rc} here, {other_rc} there")
        print("\n".join(column_drift(text, other_text)))
    print(f"{len(differing)} of {len(here)} runs differ")


if __name__ == "__main__":
    main(sys.argv[1:])
