"""Every eigendecomposition in apcone goes through ``symcore._eigh``: no
other function may name a NumPy eigensolver (read from the source with
``ast``, so a second one fails here rather than drifting unnoticed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apcone"
EIGENSOLVERS = {"eig", "eigh", "eigh_lo", "eigh_up", "eigvals", "eigvalsh"}


class _Finder(ast.NodeVisitor):
    """Qualified names of the functions that name an eigensolver (as an
    attribute, a bare name or an import); module level reads as ``<module>``."""

    def __init__(self, module):
        self.scope = [module]
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _hit(self, name):
        if name in EIGENSOLVERS:
            where = self.scope if len(self.scope) > 1 else [*self.scope,
                                                            "<module>"]
            self.found.add(".".join(where))

    def visit_Attribute(self, node):
        self._hit(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._hit(node.id)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._hit(alias.name)


def test_symcore_eigh_is_the_only_eigensolver_call():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text()))
        found |= finder.found
    assert found == {"symcore._eigh"}
