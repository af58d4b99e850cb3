"""src keeps only what the program or an acceptance criterion reaches, and
reads everything it takes.

The readers are the src modules other than __init__ and
tests/test_acceptance.py. Four guards hold over src/hmchaos:

* a public top-level function or class that no reader names is library code
  that only tests reach: it gets a route, moves into the tests as an oracle,
  or goes. KEPT names the exceptions, each with its reason;
* each parameter with a default of a top-level function or of a method of a
  top-level class is passed by a call in a reader, by position or by
  keyword, or listed in KEPT_PARAMETERS with its reason;
* each public method and property of a top-level class is read by attribute
  name in a reader, or listed in KEPT_METHODS with its reason;
* each parameter of those functions and methods but self is loaded in its
  body other than as an argument of a _check or _require call, which only
  validates it. This one has no exceptions.
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


# parameters with a default that neither src nor the acceptance criteria pass,
# each with its reason
KEPT_PARAMETERS = {
    (name, "workers"): "every Monte Carlo estimator ends in (samples, seed, "
                       "workers); dropping it would save no line"
    for name in ("circle_mean_mc", "circle_average_moment", "two_walk_tilted_expectation")
}


def _functions():
    """(name, node) of each top-level function and each method of a top-level
    class of hmchaos, a method named Class.method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        yield f"{node.name}.{method.name}", method


def _optional_parameters():
    """(callee, position, name) of each parameter with a default of every
    top-level function and every method of a top-level class of hmchaos. A
    method is called by its own name, __init__ by its class's; position is
    None for a keyword-only parameter, and self is not counted."""
    for name, node in _functions():
        cls, _, method = name.rpartition(".")
        callee = cls if method == "__init__" else method
        yield from _defaulted(node, callee, 1 if cls else 0)


def _defaulted(node, callee, skip):
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)  # the defaults are the last ones
    for index, arg in enumerate(positional[first:], first - skip):
        yield callee, index, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, None, arg.arg


def _passed(path):
    """(callee, position) and (callee, keyword) of every argument that a call
    in the module at `path` passes, the callee named as _optional_parameters
    names it."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((callee, index) for index in range(len(node.args)))
            passed.update((callee, keyword.arg) for keyword in node.keywords)
    return passed


def test_every_optional_parameter_is_passed_or_kept():
    readers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    passed = set().union(*map(_passed, readers + [TESTS / "test_acceptance.py"]))
    unpassed = {(callee, name) for callee, position, name in _optional_parameters()
                if not {(callee, position), (callee, name)} & passed}
    # a stale entry fails too: a kept parameter that gains a caller leaves the set
    assert unpassed == set(KEPT_PARAMETERS), sorted(unpassed)


def _loads(node):
    """The names loaded under `node`, skipping the arguments of a call whose
    callee's name starts with _check or _require."""
    if isinstance(node, ast.Call):
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if callee.startswith(("_check", "_require")):
            return _loads(func)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    return set().union(*map(_loads, ast.iter_child_nodes(node)))


def test_every_parameter_is_read():
    unread = set()
    for name, node in _functions():
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if arg is not None]
        loaded = set().union(*map(_loads, node.body))
        unread |= {(name, param) for param in params
                   if param != "self" and param not in loaded}
    assert not unread, sorted(unread)


# public methods and properties that neither src nor the acceptance criteria
# read, each with its reason
KEPT_METHODS = {
    "FFModel.X": "the per-k formula that _power_sums is tested against, and the "
                 "README's X(k)",
    "SteinhausModel.partial_sum": "the README's one-instance S(x), and the reference "
                                  "of the batched replicates",
}


def _attributes_read(path):
    """Every attribute name that the module at `path` reads."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_every_public_method_is_read_or_kept():
    readers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    read = set().union(*map(_attributes_read, readers + [TESTS / "test_acceptance.py"]))
    unread = {name for name, _ in _functions()
              if "." in name and not name.split(".")[1].startswith("_")
              and name.split(".")[1] not in read}
    # a stale entry fails too: a kept method that gains a reader leaves the set
    assert unread == set(KEPT_METHODS), sorted(unread)
