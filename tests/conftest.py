"""Load every test module when pytest starts, whatever the selection.

hypothesis draws part of its examples from a pool of the constants it finds
in the loaded local modules, also under ``derandomize=True``.  With every
``tests/test_*.py`` imported up front, that pool, and so each property
test's examples, is the same whether one file, a few or the whole suite
runs.  A module that fails to import is passed over here: pytest's
collection imports it again and reports the error against that file, and
the other modules' tests still run."""

import contextlib
import importlib
import pathlib


def pytest_configure(config):
    # pytest imports each test module under its file stem, with this
    # directory on sys.path, and then finds the same module object here
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        with contextlib.suppress(Exception):
            importlib.import_module(path.stem)
