"""The benchmark's hooks into the package still resolve and bind.

``perfbench/`` drives the package from outside: ``spans.TRACED`` names
the functions a traced pass wraps, and the workloads call public
functions with keywords.  A renamed function or a removed keyword would
otherwise only show in a bench pass.  These tests read ``perfbench/``
and change nothing in it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import rbgroups as rb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _package_calls(path):
    """(line, dotted name, positional count, keyword names) of every
    ``rb.<...>(...)`` call in a perfbench file."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None and name.startswith("rb."):
                calls.append((node.lineno, name[3:], len(node.args),
                              [k.arg for k in node.keywords]))
    return calls


def test_traced_functions_resolve():
    for mod_name, attr, _ in _load("spans").TRACED:
        module = importlib.import_module(f"rbgroups.{mod_name}")
        assert callable(_resolve(module, attr)), (mod_name, attr)


@pytest.mark.parametrize("name", ["workloads", "inputs"])
def test_workload_calls_bind(name):
    calls = _package_calls(PERFBENCH / f"{name}.py")
    assert calls
    for line, dotted, n_args, keywords in calls:
        sig = inspect.signature(_resolve(rb, dotted))
        try:
            sig.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perfbench/{name}.py:{line}: rb.{dotted}: {exc}")


def test_keyword_calls_are_seen():
    # the scan above must cover the keyword calls the workloads depend on
    seen = {(dotted, tuple(kw)) for name in ("workloads", "inputs")
            for _, dotted, _, kw in _package_calls(PERFBENCH / f"{name}.py")}
    assert {("classify_splitting", ("subs",)),
            ("nonsplitting_obstruction", ("subs",)),
            ("classify_equivalence", ("verify_invariants",)),
            ("FiniteGroup.from_table", ("name", "gens"))} <= seen
