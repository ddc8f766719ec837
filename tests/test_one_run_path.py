"""``apcone example`` and ``apcone run`` share one run-and-report path:
exactly one function of ``cli.py`` calls ``run_ap``, ``trace_csv`` and
``_summarize`` (read from the source with ``ast``, so a second copy of the
run code fails here)."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "apcone" / "cli.py"
RUN_PATH = ("run_ap", "trace_csv", "_summarize")


def _callers(tree, name):
    """Names of the functions whose bodies call ``name``."""
    return {func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == name
                or getattr(node.func, "attr", None) == name)}


def test_one_function_runs_and_reports():
    tree = ast.parse(CLI.read_text())
    callers = {name: _callers(tree, name) for name in RUN_PATH}
    assert all(len(found) == 1 for found in callers.values()), callers
    assert len(set().union(*callers.values())) == 1, callers
