"""Every name that perfbench/tracer.py traces or reads resolves in hmchaos.

The tracer finds its spans by name, so a renamed or deleted function makes
its per-layer metrics read 0 without any error. This test resolves each
name of the tracer's tables (and the few that its metrics read by string)
against hmchaos, and checks the parameters its tags read. STALE lists the
names known to be dead; it must match exactly, so a name that goes dead
fails here, and so does a stale entry that resolves again.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

STALE = {"rng._PhiloxStream.__init__", "rng.GaussianStream.draw",
         "rng.UnitCircleStream.draw"}

# read by string in the per-layer metrics, outside the tables
METRIC_NAMES = {"cli.main", "cli.build_parser", "partitions.exact_total_mass",
                "report.write_table", "report.build_manifest"}

# the parameters that each live tag reads from its call's bound arguments
TAG_PARAMETERS = {
    "series.exp_array": {"degree", "engine"},
    "chaos.estimate_moment": {"N", "samples"},
    "numbermodels.steinhaus_abs_moment": {"x", "samples"},
    "numbermodels.ff_second_moment": {"q", "N", "samples"},
    "mc._eval_span": {"task"},
    "mc._eval_chunk": {"task"},
    "mc.map_replicates": {"fn"},
    "mc.map_chunks": {"fn"},
}


def _traced_names():
    return (set(tracer.PRIVATE) | set(tracer.KERNEL_HOSTS) | set(tracer.TABLES)
            | set(tracer.DRAWS) | set(tracer.TASKS) | {tracer.ENUMERATED}
            | set(tracer.TAGS)
            | {f"barrier.{name}" for name in tracer.BARRIER_KERNELS.values()}
            | METRIC_NAMES)


def _resolve(name):
    """The callable that `module.attr[.attr]` names in hmchaos, or None."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"hmchaos.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


def test_every_traced_name_resolves_except_the_stale_ones():
    dead = {name for name in _traced_names() if _resolve(name) is None}
    assert dead == STALE, sorted(dead ^ STALE)


def test_every_live_tag_is_listed_with_its_parameters():
    assert set(tracer.TAGS) - STALE == set(TAG_PARAMETERS) - tracer.KERNEL_HOSTS
    assert tracer.KERNEL_HOSTS <= set(TAG_PARAMETERS)


@pytest.mark.parametrize("name", sorted(TAG_PARAMETERS))
def test_tagged_parameters_exist(name):
    parameters = inspect.signature(_resolve(name)).parameters
    assert TAG_PARAMETERS[name] <= set(parameters), sorted(parameters)
