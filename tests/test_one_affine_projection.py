"""Every affine projection in apcone goes through ``AffineSubspace._project``
and every coefficient read-out through ``AffineSubspace._coefficients``: no
other function may read the stored projector or coefficient map.  Likewise
R^-1 is made once, by ``AffineSubspace.from_basis``, and read back only by
the one Gram-Schmidt, ``symcore._gram_schmidt``.  (Read from the source with
``ast``, so a second projection or Gram-Schmidt fails here rather than
drifting unnoticed.)"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apcone"
READERS = {"aug": "symcore.AffineSubspace._project",
           "coef_map": "symcore.AffineSubspace._coefficients",
           "coef_offset": "symcore.AffineSubspace._coefficients"}


class _Reads(ast.NodeVisitor):
    """(name, qualified function) for every attribute read of a name in
    ``names`` and, with ``bare``, every read of it as a variable; module
    level reads as ``<module>``."""

    def __init__(self, module, names, bare=False):
        self.scope = [module]
        self.names, self.bare = names, bare
        self.found = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _add(self, name):
        where = self.scope if len(self.scope) > 1 else [*self.scope,
                                                        "<module>"]
        self.found.add((name, ".".join(where)))

    def visit_Attribute(self, node):
        if node.attr in self.names:
            self._add(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        if (self.bare and node.id in self.names
                and isinstance(node.ctx, ast.Load)):
            self._add(node.id)


def _reads(names, bare=False):
    found = set()
    for path in sorted(SRC.glob("*.py")):
        reads = _Reads(path.stem, names, bare)
        reads.visit(ast.parse(path.read_text()))
        found |= reads.found
    return found


def test_stored_projector_and_coefficient_map_have_one_reader_each():
    assert _reads(set(READERS)) == set(READERS.items())


def test_inverse_r_factor_is_read_by_from_basis_and_gram_schmidt_only():
    assert _reads({"R_inv"}, bare=True) == {
        ("R_inv", "symcore.AffineSubspace.from_basis"),
        ("R_inv", "symcore._gram_schmidt")}
