"""src keeps only what the program or an acceptance criterion reaches.

A public top-level function or class of hmchaos that no src module other
than __init__ names, and that tests/test_acceptance.py does not name either,
is library code that only tests reach: it gets a route, moves into the tests
as an oracle, or goes. KEPT names the exceptions, each with its reason.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hmchaos"

KEPT = {
    "SteinhausModel": "the README's one-instance sampler, and the reference that "
                      "the batched Steinhaus replicates are tested against",
    "two_walk_tilted_expectation": "the lower bound's two-point estimate; its CLI "
                                   "route is still open",
    "two_walk_shape_scale": "the shape of the two-point estimate's upper bound",
    "smooth_partition_weight": "the smooth tail of the largest-part bands",
    "rankin_bound": "the Rankin bound on that smooth tail",
}


def _names_read(path):
    """Every name and attribute that the module at `path` reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_definitions():
    """(module, name) of each public top-level function and class of hmchaos."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def test_every_public_name_is_reached_or_kept():
    readers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    reached = set().union(*map(_names_read, readers + [TESTS / "test_acceptance.py"]))
    unreached = {(module, name) for module, name in _public_definitions()
                 if name not in reached}
    # a stale KEPT entry fails too: a kept name that gains a route leaves the set
    assert {name for _, name in unreached} == set(KEPT), sorted(unreached)
