"""apcone never loads ``numpy.random``: the verify suites draw through
``verify._Draws`` on the standard library's Mersenne Twister.  Checked in a
fresh process after every suite; the ``numpy_random`` rule of
``test_design_rules.py`` reads the same from the source."""

import subprocess
import sys

from apcone.verify import SUITES
from probes import cli_env


def test_ten_suites_run_without_loading_numpy_random():
    script = (
        "import os, sys\n"
        "import apcone, apcone.cli\n"
        "from apcone.verify import SUITES\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "codes = [apcone.cli.main(['verify', s]) for s in SUITES]\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(SUITES)} False"
