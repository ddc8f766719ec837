"""Every affine projection in apcone goes through ``AffineSubspace._project``
and every coefficient read-out through ``AffineSubspace._coefficients``: no
other function may read the stored projector or coefficient map (read from
the source with ``ast``, so a second projection fails here rather than
drifting unnoticed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apcone"
READERS = {"aug": "symcore.AffineSubspace._project",
           "coef_map": "symcore.AffineSubspace._coefficients",
           "coef_offset": "symcore.AffineSubspace._coefficients"}


class _Reads(ast.NodeVisitor):
    """(attribute, qualified function) for every attribute read of a name in
    ``READERS``; module level reads as ``<module>``."""

    def __init__(self, module):
        self.scope = [module]
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Attribute(self, node):
        if node.attr in READERS:
            where = self.scope if len(self.scope) > 1 else [*self.scope,
                                                            "<module>"]
            self.found.add((node.attr, ".".join(where)))
        self.generic_visit(node)


def test_stored_projector_and_coefficient_map_have_one_reader_each():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        reads = _Reads(path.stem)
        reads.visit(ast.parse(path.read_text()))
        found |= reads.found
    assert found == set(READERS.items())
