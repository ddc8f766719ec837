"""apcone never loads ``numpy.random``: the verify suites draw through
``verify._Draws`` on the standard library's Mersenne Twister.  Read from the
source with ``ast`` (so a new ``np.random`` use fails here rather than
drifting in unnoticed) and checked in a fresh process after every suite."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import apcone
from apcone.verify import SUITES

SRC = Path(__file__).resolve().parents[1] / "src" / "apcone"
NUMPY = {"np", "numpy"}


class _Finder(ast.NodeVisitor):
    """Qualified names of the functions that name ``numpy.random`` (as an
    attribute of ``np``/``numpy`` or an import); module level reads as
    ``<module>``."""

    def __init__(self, module):
        self.scope = [module]
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _hit(self):
        where = self.scope if len(self.scope) > 1 else [*self.scope,
                                                        "<module>"]
        self.found.add(".".join(where))

    def visit_Attribute(self, node):
        if (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in NUMPY):
            self._hit()
        self.generic_visit(node)

    def visit_Import(self, node):
        if any(a.name.startswith("numpy.random") for a in node.names):
            self._hit()

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random"
                                          for a in node.names)):
            self._hit()


def _found(source, module="m"):
    finder = _Finder(module)
    finder.visit(ast.parse(source))
    return finder.found


def test_finder_sees_each_way_of_naming_numpy_random():
    assert _found("def f():\n    return np.random.RandomState(0)\n") == \
        {"m.f"}
    assert _found("import numpy.random as npr\n") == {"m.<module>"}
    assert _found("class C:\n    from numpy import random\n") == {"m.C"}
    assert _found("from numpy.random import RandomState\n") == \
        {"m.<module>"}
    assert _found("import random\nrandom.Random()\n") == set()


def test_no_function_in_apcone_names_numpy_random():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _found(path.read_text(), path.stem)
    assert found == set()


def test_ten_suites_run_without_loading_numpy_random():
    src = str(Path(apcone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = (
        "import os, sys\n"
        "import apcone, apcone.cli\n"
        "from apcone.verify import SUITES\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "codes = [apcone.cli.main(['verify', s]) for s in SUITES]\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(SUITES)} False"
