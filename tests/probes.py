"""Probes shared by the tests: the CLI in-process and in a subprocess, and
tracemalloc's peak over a call."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import apcone
from apcone.cli import main


def run_cli(capsys, *argv):
    """``apcone argv`` in-process: (exit code, stdout, stderr).  When
    argparse itself exits (a usage error it finds), the code is its
    ``SystemExit``'s."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_warnings_as_errors(*argv):
    """``python -W error -m apcone.cli argv``: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "apcone.cli", *argv],
        capture_output=True, text=True, env=cli_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


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
