"""Every public name of apcone has a user.  Each name in ``apcone.__all__``,
each public module-level function or class of ``src/apcone`` and each
public method of such a class must be named in code (read with ``ast``;
strings and imports do not count) somewhere other than its own definition
and ``__init__.py``: in the package itself, in ``apbench/``, in the
README's library example, or in the acceptance criteria
(``tests/test_acceptance.py``).  A name that only other tests reach fails
here; it belongs in those tests, or nowhere.  Methods are matched by
attribute name alone, so the check on them is a coarse one."""

import ast
import re
from pathlib import Path

import apcone

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "apcone"


def _is_public_def(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _names(tree, own=False):
    """Names read as code in ``tree``: bare names and attribute names.
    With ``own``, a top-level function or class naming itself in its own
    body does not count."""
    found = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        if own and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def _readme_example():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S)
    assert block, "README.md has no library example"
    return ast.parse(block.group(1))


def _public_definitions():
    """{qualified name: the name a user writes} of each public top-level
    function or class of the package and each public method of such a
    class."""
    out = {}
    for path in SRC.glob("*.py"):
        for stmt in filter(_is_public_def, ast.parse(path.read_text()).body):
            out[f"{path.stem}.{stmt.name}"] = stmt.name
            if isinstance(stmt, ast.ClassDef):
                for item in filter(_is_public_def, stmt.body):
                    out[f"{path.stem}.{stmt.name}.{item.name}"] = item.name
    return out


def _used_names():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names(ast.parse(path.read_text()), own=True)
    for path in (ROOT / "apbench").glob("*.py"):
        used |= _names(ast.parse(path.read_text()))
    used |= _names(ast.parse((ROOT / "tests" / "test_acceptance.py")
                             .read_text()))
    return used | _names(_readme_example())


def test_every_public_name_has_a_user():
    used = _used_names()
    public = {f"apcone.{name}": name for name in apcone.__all__}
    public |= _public_definitions()
    missing = sorted(q for q, name in public.items() if name not in used)
    assert not missing, f"public names with no user: {missing}"
