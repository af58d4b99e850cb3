"""In-memory span tracer for the traced run, and the per-layer metrics.

The tracer wraps hmchaos from the outside: every public function and method
of each module, plus the few private callables that a per-layer metric
names (PRIVATE), in every namespace that binds them. Several modules bind
names at import time (`chaos` holds `exp_array`, `mc` holds `split` and a
default `stream_cls=GaussianStream`), so one wrapper per function object is
installed under each name that refers to it, and methods are wrapped on the
class itself. The callable handed to `mc.map_replicates` / `mc.map_chunks`
is wrapped per call, which gives a span per kernel invocation.

A span is [name, start, end, parent, tag]; `parent` is the index of the
enclosing span (-1 at top level) and `tag` holds the arguments a metric
needs (TAGS). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

PRIVATE = {"rng._PhiloxStream.__init__", "mc._eval_span", "mc._eval_chunk",
           "numbermodels._sieve", "numbermodels._structure"}
KERNEL_HOSTS = {"mc.map_replicates", "mc.map_chunks"}
TABLES = {"numbermodels._sieve", "numbermodels.irreducibles_by_degree",
          "numbermodels._structure"}
DRAWS = {"rng.GaussianStream.draw", "rng.UnitCircleStream.draw"}
TASKS = {"mc._eval_span", "mc._eval_chunk"}
ENUMERATED = "partitions.enumerate_partitions"

TAGS = {
    "series.exp_array": lambda b: [int(b["degree"]), str(b["engine"])],
    "rng.GaussianStream.draw": lambda b: int(b["n"]),
    "rng.UnitCircleStream.draw": lambda b: int(b["n"]),
    "chaos.estimate_moment": lambda b: [int(b["N"]), int(b["samples"])],
    "numbermodels.steinhaus_abs_moment": lambda b: [float(b["x"]), int(b["samples"])],
    "numbermodels.ff_second_moment":
        lambda b: [int(b["q"]), int(b["N"]), int(b["samples"])],
    "mc._eval_span": lambda b: int(b["task"][4] - b["task"][3]),
    "mc._eval_chunk": lambda b: int(b["task"][4]),
}

CHAOS_N = (64, 512, 4096, 8192)
BARRIER_KERNELS = {"ballot": "_ballot_chunk", "event": "_event_chunk",
                   "grid": "_grid_event_chunk", "com_left": "_com_left_chunk",
                   "com_right": "_com_right_chunk"}
STEINHAUS_X = {"x1e2": 100.0, "x1e4": 10000.0}
FF_QN = {"q7N5": (7, 5), "q3N8": (3, 8)}
SUBCOMMANDS = ("decay", "moment", "series-selftest", "ballot", "event", "com-check",
               "blocks", "bivariate", "steinhaus", "ff", "mass")


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Installs span-recording wrappers into a package and removes them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kernels: set[str] = set()
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, kernel_count=None):
        spans, stack = self.spans, self._stack
        tag_of = TAGS.get(name)
        sig = inspect.signature(fn) if (tag_of or name in KERNEL_HOSTS) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if name in KERNEL_HOSTS:
                    bound.arguments["fn"] = self._kernel(bound.arguments["fn"],
                                                         name == "mc.map_chunks")
                    args, kwargs = bound.args, bound.kwargs
                else:
                    tag = tag_of(bound.arguments)
            elif kernel_count is not None:
                tag = int(args[1]) if kernel_count else 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tag]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _kernel(self, fn, chunked):
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        self.kernels.add(name)
        return self._wrap(name, fn, kernel_count=chunked)

    def _wrap_generator(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    # -- installation ----------------------------------------------------

    def _wrapper_for(self, name, fn):
        key = id(fn)
        if key not in self._wrappers:
            if inspect.isgeneratorfunction(fn):
                self._wrappers[key] = self._wrap_generator(name, fn)
            else:
                self._wrappers[key] = self._wrap(name, fn)
        return self._wrappers[key]

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "hmchaos") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        classes = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith(package):
                    continue
                if isinstance(obj, type):
                    classes[id(obj)] = obj
                elif isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    name = f"{_short(home)}.{obj.__name__}"
                    if not obj.__name__.startswith("_") or name in PRIVATE:
                        self._patch(module, attr, self._wrapper_for(name, obj))
        for cls in classes.values():
            for attr, member in list(vars(cls).items()):
                name = f"{_short(cls.__module__)}.{cls.__name__}.{attr}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                if isinstance(member, types.FunctionType):
                    self._patch(cls, attr, self._wrapper_for(name, member))
                elif isinstance(member, classmethod):
                    wrapped = self._wrapper_for(name, member.__func__)
                    self._patch(cls, attr, classmethod(wrapped))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    @contextlib.contextmanager
    def active(self, package: str = "hmchaos"):
        """Record spans for the duration of the block."""
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()


# -- per-layer metrics ------------------------------------------------------


def _totals(spans, lo, hi, kernels):
    """Aggregates of the spans in [lo, hi), one traced pass or phase."""
    t = defaultdict(float)
    by_name = defaultdict(lambda: [0, 0.0])
    child = defaultdict(float)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= lo:
            child[parent] += end - start
    for i in range(lo, hi):
        name, start, end, parent, tag = spans[i]
        dur = end - start
        entry = by_name[name]
        entry[0] += 1
        entry[1] += dur
        t["self." + name.split(".", 1)[0]] += dur - child[i]
        if name in DRAWS:
            t["draw_values"] += tag
        elif name in TASKS:
            t["replicates"] += tag
        elif name == "series.exp_array":
            t[f"exp_n{tag[0]}"] += 1
            t[f"exp_s_n{tag[0]}"] += dur
            if tag[1] == "newton":
                t["newton_s"] += dur
        elif name == "chaos.estimate_moment":
            t[f"chaos_reps_n{tag[0]}"] += tag[1]
            t[f"chaos_s_n{tag[0]}"] += dur
        elif name == "numbermodels.steinhaus_abs_moment":
            t[f"st_reps_{tag[0]}"] += tag[1]
            t[f"st_s_{tag[0]}"] += dur
        elif name == "numbermodels.ff_second_moment":
            t[f"ff_reps_{tag[0]}_{tag[1]}"] += tag[2]
            t[f"ff_s_{tag[0]}_{tag[1]}"] += dur
        elif name in kernels:
            t["kernel_s"] += dur
            t[f"kernel_reps_{name}"] += tag
            t[f"kernel_s_{name}"] += dur
        elif name in KERNEL_HOSTS:
            t["map_s"] += dur
        if name in TABLES and (parent < lo or spans[parent][0] not in TABLES):
            t["tables_s"] += dur
        if name == "cli.main":
            t["cli_parse_s"] += dur - child[i]
        elif name == "cli.build_parser":
            t["cli_parse_s"] += dur
    return t, by_name


def _ratio(num, den, scale):
    return num / den * scale if den else None


def pass_metrics(spans, lo, hi, kernels) -> dict:
    """Per-layer values of one traced pass; None where no span supplies one."""
    t, by_name = _totals(spans, lo, hi, kernels)

    def total(*names):
        found = [by_name[n] for n in names if n in by_name]
        return sum(e[1] for e in found) if found else None

    def count(*names):
        return sum(by_name[n][0] for n in names if n in by_name)

    draw_s = total(*DRAWS)
    m = {
        "rng.streams": count("rng._PhiloxStream.__init__"),
        "rng.values": int(t["draw_values"]),
        "rng.stream_new_s": total("rng._PhiloxStream.__init__"),
        "rng.draw_s": draw_s,
        "rng.ns_per_value": _ratio(draw_s or 0.0, t["draw_values"], 1e9),
        "series.exp_calls": count("series.exp_array"),
        "series.exp_s": total("series.exp_array"),
        "series.newton_s": t["newton_s"] if "newton_s" in t else None,
        "mc.tasks": count(*TASKS),
        "mc.replicates": int(t["replicates"]),
        "mc.self_s": t["map_s"] - t["kernel_s"] if "map_s" in t else None,
        "numbermodels.tables_s": t["tables_s"] if "tables_s" in t else None,
        "partitions.mass_s": total("partitions.exact_total_mass"),
        "report.write_s": total("report.write_table", "report.build_manifest"),
        "cli.parse_s": t["cli_parse_s"] if "cli.main" in by_name else None,
    }
    for n in CHAOS_N:
        m[f"series.exp_ms_N{n}"] = _ratio(t[f"exp_s_n{n}"], t[f"exp_n{n}"], 1e3)
        m[f"chaos.ms_per_rep_N{n}"] = _ratio(t[f"chaos_s_n{n}"],
                                             t[f"chaos_reps_n{n}"], 1e3)
    for key, fn in BARRIER_KERNELS.items():
        name = f"barrier.{fn}"
        m[f"barrier.{key}_us_per_rep"] = _ratio(t[f"kernel_s_{name}"],
                                                t[f"kernel_reps_{name}"], 1e6)
    for key, x in STEINHAUS_X.items():
        m[f"numbermodels.steinhaus_ms_per_rep_{key}"] = _ratio(
            t[f"st_s_{x}"], t[f"st_reps_{x}"], 1e3)
    for key, (q, n) in FF_QN.items():
        m[f"numbermodels.ff_ms_per_rep_{key}"] = _ratio(
            t[f"ff_s_{q}_{n}"], t[f"ff_reps_{q}_{n}"], 1e3)
    for layer in ("chaos", "barrier"):
        m[f"{layer}.self_s"] = t[f"self.{layer}"] if f"self.{layer}" in t else None
    return m


def merge_passes(per_pass: list[dict]) -> dict:
    """Median over passes of each value that every pass supplies."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = None if None in values else statistics.median(values)
    return out


COUNTS = ("rng.streams", "rng.values", "series.exp_calls", "mc.tasks",
          "mc.replicates", "partitions.enumerated", "report.bytes")

# every per-layer metric with its unit, in the order BENCHMARK.json lists them
UNITS = {
    "rng.streams": "count", "rng.values": "count", "rng.stream_new_s": "s",
    "rng.draw_s": "s", "rng.ns_per_value": "ns",
    "series.exp_calls": "count", "series.exp_s": "s",
    **{f"series.exp_ms_N{n}": "ms" for n in CHAOS_N}, "series.newton_s": "s",
    "mc.tasks": "count", "mc.replicates": "count", "mc.self_s": "s",
    "mc.pool_start_s": "s",
    **{f"chaos.ms_per_rep_N{n}": "ms" for n in CHAOS_N}, "chaos.self_s": "s",
    **{f"barrier.{k}_us_per_rep": "us" for k in BARRIER_KERNELS}, "barrier.self_s": "s",
    **{f"numbermodels.steinhaus_ms_per_rep_{k}": "ms" for k in STEINHAUS_X},
    **{f"numbermodels.ff_ms_per_rep_{k}": "ms" for k in FF_QN},
    "numbermodels.tables_s": "s",
    "partitions.enumerated": "count", "partitions.mass_s": "s",
    "report.write_s": "s", "report.bytes": "B",
    "cli.parse_s": "s", **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}
