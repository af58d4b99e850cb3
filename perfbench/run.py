"""hmchaos benchmark: fixed lists of CLI jobs, run in process at --workers 1.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chaos-mc --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb) and
the failure count; --trace 1 prints the per-layer metrics from a traced run.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import jobs
import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 3


def median(values):
    return statistics.median(values) if values else 0.0


def _load_program():
    """Import hmchaos from this checkout's src/, never from elsewhere."""
    if not (SRC / "hmchaos" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hmchaos sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hmchaos.cli
    if not Path(hmchaos.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported hmchaos from {hmchaos.__file__}")
    return hmchaos


class Runner:
    """Runs CLI jobs through hmchaos.cli.main and checks their outputs."""

    def __init__(self, hmchaos):
        self.hmchaos = hmchaos
        self.attempted = 0
        self.failures: list[str] = []
        self.cals = [machine.calibrate()]

    def job(self, argv):
        """(exit code, CSV text, seconds) of one job; a raise counts as a failure."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.hmchaos.cli.main(argv)
        except Exception:   # a job that raises is a failed job, not a crash
            rc = "raised " + traceback.format_exc()
        seconds = perf_counter() - start
        if rc != 0:
            rc = f"{rc} {err.getvalue().strip()}"
        return rc, out.getvalue(), seconds

    def check(self, name, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {why}")

    def run(self, argvs, reference=None):
        """One pass; a job fails on a nonzero exit or CSV unlike the reference."""
        results = []
        for i, argv in enumerate(argvs):
            rc, text, seconds = self.job(argv)
            name = " ".join(argv)
            if rc != 0:
                self.check(name, False, f"exit {rc}")
            else:
                self.check(name, reference is None or text == reference[i],
                           "CSV differs from pass 1")
            results.append((text, seconds))
        return results

    def timed_pass(self, argvs, reference):
        """A pass with a calibration after every job.

        Returns the results and the pass time with each job scaled to the
        reference speed by the mean of the calibrations on either side of it.
        """
        results, normalised = [], 0.0
        for argv, ref in zip(argvs, reference):
            results += self.run([argv], [ref])
            before = self.cals[-1]
            self.cals.append(machine.calibrate())
            normalised += results[-1][1] * 2.0 * machine.CAL_REF_S / (before + self.cals[-1])
        return results, normalised


def setup_probes(workload: str) -> list[dict]:
    """Set-up times from fresh interpreters; the first run only compiles bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    probes = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=150)
        if out.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {out.stderr.strip()}")
        if i:
            probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return probes


def peak_rss_mib() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, hmchaos, runner, workload, argvs, pooled, probes):
    for job in workload:   # warm the lazy tables, as the probes did
        runner.job(job.setup_argv())
    reference = [text for text, _ in runner.run(argvs)]
    passes, raw, job_times = [], [], [[] for _ in argvs]
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        results, normalised = runner.timed_pass(argvs, reference)
        passes.append(normalised)
        raw.append(sum(seconds for _, seconds in results))
        for times, (_, seconds) in zip(job_times, results):
            times.append(seconds)
    runner.run(pooled, reference)

    setup_norm = [p["setup_s"] * machine.CAL_REF_S / p["cal_s"] for p in probes]
    own, children = peak_rss_mib()
    metrics = {
        "setup_s": _metric(median(setup_norm), "s"),
        "wall_s": _metric(median(passes), "s"),
        "peak_rss_mb": _metric(max(own, children), "MiB"),
    }
    lines = [
        f"setup_s {median(setup_norm):.4f} s (median of {len(probes)} fresh "
        f"interpreters, normalised; raw {median([p['setup_s'] for p in probes]):.4f} s, "
        f"of which import {median([p['import_s'] for p in probes]):.4f} s)",
        f"wall_s {median(passes):.4f} s (median of {len(passes)} warm passes, "
        f"normalised; raw {median(raw):.4f} s; calibration median "
        f"{median(runner.cals) * 1e3:.2f} ms vs {machine.CAL_REF_S * 1e3:.0f} ms reference)",
        f"peak_rss_mb {max(own, children):.1f} MiB (measured ru_maxrss: self "
        f"{own:.1f}, largest child {children:.1f})",
        "job  median_s  largest kernel array (computed from shape, not measured)",
    ]
    for job, argv, times in zip(workload, argvs, job_times):
        formula, size = job.array
        lines.append(f"  {' '.join(argv)}  {median(times):.4f} s  "
                     f"{size / 2**20:.2f} MiB computed: {formula}")
    record = {"passes_normalised_s": passes, "passes_raw_s": raw,
              "calibrations_s": runner.cals, "setup_probes": probes,
              "jobs": [{"argv": a, "seconds": t, "computed_array_bytes": j.array[1],
                        "computed_array_formula": j.array[0]}
                       for a, t, j in zip(argvs, job_times, workload)]}
    return metrics, lines, record


def _by_sub(workload, results):
    out = {}
    for job, (_, seconds) in zip(workload, results):
        out[job.sub] = out.get(job.sub, 0.0) + seconds
    return out


def _pool_starts(mc, runner, pooled, reference):
    """Runs the --workers 2 pass with each pool's start-up timed: construction
    plus a first no-op round trip, which starts the worker processes."""
    starts = []

    class TimedPool(mc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            start = perf_counter()
            super().__init__(*args, **kwargs)
            self.submit(int).result()
            starts.append(perf_counter() - start)

    saved, mc.ProcessPoolExecutor = mc.ProcessPoolExecutor, TimedPool
    try:
        runner.run(pooled, reference)
    finally:
        mc.ProcessPoolExecutor = saved
    return starts


def traced_run(args, hmchaos, runner, workload, argvs, pooled, probes):
    import tracer as tr

    tracer = tr.Tracer()
    spans = tracer.spans

    def mark():
        return len(spans), tracer.counts[tr.ENUMERATED]

    def values_since(start, results):
        lo, enumerated = start
        values = tr.pass_metrics(spans, lo, len(spans), tracer.kernels)
        values["partitions.enumerated"] = tracer.counts[tr.ENUMERATED] - enumerated
        values["report.bytes"] = sum(len(text.encode()) for text, _ in results)
        return values

    start = mark()
    with tracer.active():
        results = [runner.job(job.setup_argv())[1:] for job in workload]
    setup_values = values_since(start, results)
    reference = [text for text, _ in runner.run(argvs)]
    plain, traced, per_pass, sub_times = [], [], [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() < deadline:
        plain.append(runner.timed_pass(argvs, reference)[1])
        start = mark()
        with tracer.active():
            results, normalised = runner.timed_pass(argvs, reference)
        traced.append(normalised)
        per_pass.append(values_since(start, results))
        sub_times.append(_by_sub(workload, results))

    # the probe list supplies each metric the workload's own jobs leave empty
    probe_argvs = [job.argv(jobs.job_seed(args.seed, "probe", i))
                   for i, job in enumerate(jobs.PROBE)]
    start = mark()
    with tracer.active():
        results = [runner.job(job.setup_argv())[1:] for job in jobs.PROBE]
    probe_tables = values_since(start, results)["numbermodels.tables_s"]
    start = mark()
    with tracer.active():
        probe_results = runner.run(probe_argvs)
    probe_values = values_since(start, probe_results)
    probe_values["numbermodels.tables_s"] = probe_tables
    probe_values.update({f"cli.{s}_s": t
                         for s, t in _by_sub(jobs.PROBE, probe_results).items()})
    starts = _pool_starts(hmchaos.mc, runner, pooled, reference)

    counts = [{k: p[k] for k in tr.COUNTS} for p in per_pass]
    runner.check("exact counts", all(c == counts[0] for c in counts),
                 "differ between traced passes: " + json.dumps(counts))
    values = {**tr.merge_passes(per_pass), **counts[0],
              "numbermodels.tables_s": setup_values["numbermodels.tables_s"]}
    for sub in tr.SUBCOMMANDS:
        mine = [p[sub] for p in sub_times if sub in p]
        values[f"cli.{sub}_s"] = median(mine) if mine else None
    source = {}
    for key, value in values.items():
        if value is None and probe_values.get(key) is not None:
            values[key], source[key] = probe_values[key], "probe"
        else:
            source[key] = "workload"
    overhead = median(traced) - median(plain)
    values.update({"mc.pool_start_s": median(starts),
                   "cli.import_s": median([p["import_s"] for p in probes]),
                   "trace.overhead_s": overhead})
    source.update({"mc.pool_start_s": "--workers 2 pass",
                   "cli.import_s": "fresh interpreters",
                   "trace.overhead_s": "traced minus untraced passes, normalised"})

    lines = [f"wall_s untraced {median(plain):.4f} s ({len(plain)} passes), traced "
             f"{median(traced):.4f} s ({len(traced)} passes), normalised; tracing "
             f"overhead {overhead:.4f} s ({overhead / median(plain):+.1%})",
             "exact counts per pass " + json.dumps(counts[0], sort_keys=True)]
    metrics = {}
    for key, unit in tr.UNITS.items():
        value = values.get(key)
        if value is None:
            value, source[key] = 0.0, "absent"
        metrics[key] = _metric(value, unit)
        lines.append(f"  {key} {value:.6g} {unit}  [{source[key]}]")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    span_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "tag"],
                                     "spans": spans}))
    lines.append(f"spans {len(spans)} written to {span_file.relative_to(ROOT)}")
    record = {"counts": counts, "sources": source, "passes_traced_s": traced,
              "passes_untraced_s": plain, "calibrations_s": runner.cals,
              "setup_probes": probes, "pool_starts_s": starts}
    return metrics, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hmchaos = _load_program()
    env = machine.environment(ROOT, args.seed)
    workload = jobs.WORKLOADS[args.workload]
    seeds = [jobs.job_seed(args.seed, args.workload, i) for i in range(len(workload))]
    argvs = [job.argv(s) for job, s in zip(workload, seeds)]
    pooled = [job.argv(s, workers=2) for job, s in zip(workload, seeds)]
    probes = setup_probes(args.workload)
    runner = Runner(hmchaos)
    run = traced_run if args.trace else timed_run
    metrics, lines, record = run(args, hmchaos, runner, workload, argvs, pooled, probes)

    failed = len(runner.failures)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(f"fail_frac {failed / runner.attempted:.6g} ratio "
          f"({failed} failed / {runner.attempted} attempted)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "metrics": metrics,
                                "failures": runner.failures, **record}, indent=1) + "\n")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
