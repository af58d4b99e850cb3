"""One set-up measurement in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

Times `import hmchaos.cli` plus one minimum-size run of each job of the
workload, which builds every lazy table the jobs use on first call
(`_sieve`, `irreducibles_by_degree`, `_structure`). Prints one JSON line
with the raw times and a calibration taken right after them.
"""

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs      # noqa: E402
import machine   # noqa: E402


def main(workload: str) -> int:
    start = perf_counter()
    import hmchaos.cli
    imported = perf_counter()
    for job in jobs.WORKLOADS[workload]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hmchaos.cli.main(job.setup_argv())
        if rc != 0:
            print(f"setup job {job.setup_argv()} exited {rc}", file=sys.stderr)
            return 1
    done = perf_counter()
    machine.calibrate()
    cal = statistics.median(machine.calibrate() for _ in range(3))
    print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                      "cal_s": cal}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
