"""rng is the one module that turns uniforms into draws.

Every draw of a kind takes one route, rng.draw_blocks or
rng.draw_unit_blocks, so no src module other than rng.py calls unit_circle
or fill_uniforms. A second copy of the fill-then-transform loop fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmchaos"
ALLOWED = {"unit_circle": set(), "fill_uniforms": set()}


def _calls(path):
    """(callee, enclosing top-level function) of each call in the module
    whose callee's name or attribute is one of ALLOWED's."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ALLOWED:
                    yield name, getattr(top, "name", None)


def test_only_rng_turns_uniforms_into_draws():
    stray = [(path.name, caller, name)
             for path in sorted(SRC.glob("*.py")) if path.name != "rng.py"
             for name, caller in _calls(path)
             if (path.name, caller) not in ALLOWED[name]]
    assert stray == []


def test_the_guard_sees_the_calls_it_allows():
    # rng's own calls of both are found, so the guard is not blind
    assert {name for name, _ in _calls(SRC / "rng.py")} == {"unit_circle", "fill_uniforms"}
