import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import apcone
from apcone.apengine import run_ap
from apcone.catalog import get_example
from apcone.cli import _summarize, main, trace_csv
from apcone.rates import parse_trace_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_example_neg_branch_summary(capsys, tmp_path):
    out_file = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "example", "ex3.3", "--variant", "neg",
                           "--out", str(out_file))
    assert code == 0
    assert "geometric fit" in out and "ratio=0.200" in out
    cols = parse_trace_csv(out_file.read_text())
    assert cols["k"][0] == 0 and len(cols["dist"]) == 41
    assert set(np.unique(cols["psd_rank"])).issubset({0.0, 1.0, 2.0})


def test_example_csv_on_stdout_round_trips(capsys):
    code, out, _ = run_cli(capsys, "example", "ex3.2", "--variant", "neg",
                           "--iters", "30")
    assert code == 0
    cols = parse_trace_csv(out)       # summary lines are '#'-prefixed
    assert len(cols["dist"]) == 31
    k = int(cols["k"][5])
    assert cols["inv2"][5] == pytest.approx(cols["dist"][5] ** -2.0, rel=1e-15)


def test_example_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, *_ = run_cli(capsys, "example", "ex3.4", "--iters", "25",
                           "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_example_slowest_curve_start(capsys):
    code, out, _ = run_cli(capsys, "example", "ex6.1", "--iters", "50",
                           "--start", "slowest-curve:0.05")
    assert code == 0
    first = out.splitlines()[1]
    dist0 = float(first.split(",")[1])
    assert dist0 == pytest.approx(np.sqrt(6 * 0.05 ** 2 + 6 * (0.05 ** 2 / 1.8) ** 2),
                                  rel=1e-2)


def test_example_unknown_id_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "ex9.9"])
    assert exc.value.code == 2


def test_example_bad_start_reports_error(capsys):
    code, out, err = run_cli(capsys, "example", "ex3.4", "--start", "0.3")
    assert code == 2
    assert "comma triple" in err


def test_example_slowest_curve_start_outside_domain(capsys):
    # w's inner denominator 1 - 2t vanishes at t = 0.5 for ex6.1
    code, _, err = run_cli(capsys, "example", "ex6.1", "--iters", "5",
                           "--start", "slowest-curve:0.5")
    assert code == 2
    assert "t0=0.5" in err and "domain" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_example_slowest_curve_non_finite_t0(capsys, bad):
    code, _, err = run_cli(capsys, "example", "ex6.1", "--iters", "5",
                           "--start", f"slowest-curve:{bad}")
    assert code == 2
    assert "slowest-curve t0 must be finite" in err


def test_example_trace_csv_emits_no_overflow_warning(capsys, tmp_path):
    # ex3.4 decays geometrically, so dist^-6 overflows after a few hundred
    # iterations; the CSV carries inf and nothing reaches stderr
    out_file = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "example", "ex3.4", "--iters", "1000",
                               "--out", str(out_file))
    assert code == 0 and err == ""
    cols = parse_trace_csv(out_file.read_text())
    assert np.any((cols["dist"] > 0.0) & np.isinf(cols["inv6"]))


def _numpy_trace_csv(trace):
    # the CSV writer as it was over NumPy scalars: the byte reference
    lines = ["k,dist,psd_rank,inv2,inv6"]
    with np.errstate(over="ignore"):
        for k, (d, r) in enumerate(zip(trace.dists, trace.psd_ranks)):
            inv2 = d ** -2.0 if d > 0 else float("inf")
            inv6 = d ** -6.0 if d > 0 else float("inf")
            lines.append(f"{k},{d:.17g},{int(r)},{inv2:.17g},{inv6:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("ident, iters", [("ex6.1", 10 ** 4), ("ex3.4", 1000)])
def test_trace_csv_bytes_match_numpy_scalar_writer(ident, iters):
    # ex3.4 reaches dist = 0 and dist^-6 overflow (inf cells); ex6.1 does not
    inst = get_example(ident)
    trace = run_ap(inst.plane, inst.start, max_iter=iters, tol=0.0,
                   target=inst.target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = trace_csv(trace)
    assert text == _numpy_trace_csv(trace)
    if ident == "ex3.4":
        assert ",inf," in text and text.count("inf\n") > text.count(",inf,")


def test_geometric_summary_stops_at_the_noise_floor():
    # 0.2^k down to ~1e-8, then rounding-level noise that a fit through it
    # would pull off 0.2
    k = np.arange(41)
    dists = 0.2 ** k
    noisy = dists < 1.49e-8
    dists[noisy] = np.random.RandomState(5).uniform(1e-17, 1e-15,
                                                    noisy.sum())
    trace = SimpleNamespace(dists=dists)
    line = _summarize(trace, "geometric", None)
    last = int(np.nonzero(~noisy)[0][-1])
    assert f"on k in (4, {last}): ratio=0.200000" in line
    assert "rmse=" in line


def test_verify_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma67", "--seed", "7")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 11
    assert all(ln.startswith("[pass]") for ln in lines)


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_run_config_type2(capsys, tmp_path):
    cfg = {"plane": {"kind": "type2", "c": [1.0, 0.0, 0.0, 1.0, 0.0],
                     "theta": 0.0, "reflect": False},
           "start": "slowest-curve:0.05",
           "max_iter": 200, "tol": 0.0,
           "out": str(tmp_path / "t.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    assert "singularity degree: 2" in out
    assert "1/dist^6 fit" in out
    cols = parse_trace_csv((tmp_path / "t.csv").read_text())
    assert len(cols["k"]) == 201


def test_run_config_degree_one_plane(capsys, tmp_path):
    cfg = {"plane": {"kind": "type2", "c": [1.0, 0.0, 0.0, 0.0, 0.5]},
           "start": [0.01, 0.0, 0.0], "max_iter": 60}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    assert "singularity degree: 1" in out
    assert "geometric fit" in out


def test_run_zero_iterations(capsys, tmp_path):
    cfg = {"plane": "ex3.4", "start": [0.1, 0.0], "max_iter": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2
    assert "max_iter must be >= 1" in err
    assert out == ""


def test_run_bad_config_is_usage_error(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_run_non_finite_start_usage_error(capsys, tmp_path, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"plane": {"kind": "type2", "c": [1.0, 0.0, 0.0, 1.0, 0.0]}, '
        f'"start": [{bad}, 0, 0], "max_iter": 10}}')
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2
    assert "start coefficients must be finite" in err


def test_run_slowest_curve_start_outside_domain(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": "ex6.1",
                                    "start": "slowest-curve:0.5",
                                    "max_iter": 5}))
    code, _, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2
    assert "t0=0.5" in err and "domain" in err


def test_run_unknown_config_key_usage_error(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    for key in ("max_iters", "stride"):
        cfg_path.write_text(json.dumps({"plane": "ex3.4",
                                        "start": [0.1, 0.0], key: 5}))
        code, out, err = run_cli(capsys, "run", str(cfg_path))
        assert code == 2
        assert f"'{key}'" in err and out == ""


def test_run_builtin_with_variant(capsys, tmp_path):
    cfg = {"plane": "ex3.3", "variant": "pos", "start": [0.5], "max_iter": 30}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    assert "geometric fit" in out and "ratio=0.800" in out


def test_verify_suites_deterministic_per_seed():
    from apcone.verify import run_suite

    first = run_suite("lemma67", seed=5)
    second = run_suite("lemma67", seed=5)
    assert [(r.label, r.passed, r.detail) for r in first] == \
           [(r.label, r.passed, r.detail) for r in second]


def test_run_degenerate_trace_still_succeeds(capsys, tmp_path):
    # a run that starts (and stays) at the anchor has all-zero distances;
    # the command must still exit 0 with a CSV and note the unusable fit
    cfg = {"plane": {"kind": "type2", "c": [1.0, 0.0, 0.0, 1.0, 0.0]},
           "start": [0.0, 0.0, 0.0], "max_iter": 500}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    assert "fit unavailable" in out


def test_closed_stdout_pipe_exits_1_without_error_line():
    # like `apcone example ex6.1 --iters 3000 | head -1`: the 3000-row trace
    # overflows the pipe buffer, so writing goes on after the reader closed
    src = str(Path(apcone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "apcone.cli", "example", "ex6.1", "--iters",
         "3000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert first == b"k,dist,psd_rank,inv2,inv6\n"
    assert code == 1
    assert err == ""


def test_broken_pipe_on_trace_file_is_an_error(capsys, monkeypatch):
    # a closed pipe behind --out (e.g. a FIFO whose reader went away) is not
    # stdout's reader leaving: it is reported like any other OSError
    class ClosedPipeFile:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    from apcone import cli
    monkeypatch.setattr(cli, "open", lambda *a, **k: ClosedPipeFile(),
                        raising=False)
    code, out, err = run_cli(capsys, "example", "ex3.2", "--variant", "neg",
                             "--iters", "5", "--out", "trace.csv")
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert out == ""
