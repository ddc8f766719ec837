"""Every array raised to a power in apcone goes through ``symcore._power``:
no other function may name a NumPy power ufunc (read from the source with
``ast``, so a second one fails here rather than drifting unnoticed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apcone"
POWERS = {"float_power", "power"}


class _Finder(ast.NodeVisitor):
    """Qualified names of the functions that name a power ufunc (as an
    attribute or an import); module level reads as ``<module>``.  A bare
    name is not flagged: ``power`` is also a plain variable name."""

    def __init__(self, module):
        self.scope = [module]
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _hit(self, name):
        if name in POWERS:
            where = self.scope if len(self.scope) > 1 else [*self.scope,
                                                            "<module>"]
            self.found.add(".".join(where))

    def visit_Attribute(self, node):
        self._hit(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "numpy":
            for alias in node.names:
                self._hit(alias.name)


def test_symcore_power_is_the_only_power_ufunc_call():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text()))
        found |= finder.found
    assert found == {"symcore._power"}
