"""The benchmark tracer (apbench/tracer.py) looks apcone functions up by name;
a renamed or deleted function must fail here, not inside a benchmark run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "apbench" / "tracer.py"


def _literal(name):
    """Value of the module-level literal assignment ``name = ...``."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} has no {name}")


def test_traced_functions_resolve():
    pairs = [(mod, fn) for mod, fns in _literal("TRACED").items()
             for fn in fns]
    pairs += [tuple(q.split(".")) for q in _literal("_EIG_CALLERS")]
    assert pairs
    missing = [f"{mod}.{fn}" for mod, fn in pairs
               if not callable(getattr(importlib.import_module(
                   f"apcone.{mod}"), fn, None))]
    assert not missing, f"traced names missing from apcone: {missing}"
