"""The slowest curve's formulas are written once, in
``slowcurve._curve_parts``: no other function may assign the nested
denominators of w (read from the source with ``ast``, so a second copy of
the formulas fails here rather than drifting unnoticed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apcone"
DENOMINATORS = {"d_inner", "d_mid", "d_q"}


class _Finder(ast.NodeVisitor):
    """Qualified names of the functions that assign a denominator name
    (plain, unpacked, augmented or annotated assignment, a loop target or
    a walrus); module level reads as ``<module>``."""

    def __init__(self, module):
        self.scope = [module]
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store) and node.id in DENOMINATORS:
            where = self.scope if len(self.scope) > 1 else [*self.scope,
                                                            "<module>"]
            self.found.add(".".join(where))


def test_curve_denominators_are_assigned_only_in_curve_parts():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text()))
        found |= finder.found
    assert found == {"slowcurve._curve_parts"}
