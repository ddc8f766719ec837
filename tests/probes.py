"""Probes shared by the tests: the CLI in-process and in a subprocess, and
tracemalloc's peak over a call."""

import os
import tracemalloc
from pathlib import Path

import apcone
from apcone.cli import main


def run_cli(capsys, *argv):
    """``apcone argv`` in-process: (exit code, stdout, stderr)."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env():
    """The environment of a subprocess that imports this checkout's
    apcone: its ``src`` put first on ``PYTHONPATH``."""
    src = str(Path(apcone.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def peak_bytes(run, warm_up=False):
    """tracemalloc's peak over ``run()``; with ``warm_up``, after one
    untraced ``run()`` that keeps caches and lazy set-up outside the
    measurement."""
    if warm_up:
        run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
