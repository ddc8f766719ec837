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


def test_trace_csv_bytes_on_zero_overflowing_and_ordinary_distances():
    # 0 and 1e-160 give inf in both power columns, 1e-60 only in inv6
    dists = np.array([0.5, 1e-3, 1e-60, 1e-160, 0.0, 3.0, 0.1])
    trace = SimpleNamespace(dists=dists,
                            psd_ranks=np.array([1, 2, 1, 0, 0, 3, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = trace_csv(trace)
    assert text == _numpy_trace_csv(trace)
    powers = [line.split(",")[3:] for line in text.splitlines()[1:]]
    assert [[x == "inf" for x in row] for row in powers[2:5]] == [
        [False, True], [True, True], [True, True]]


@pytest.mark.parametrize("ident, variant, ratio, rel", [
    ("ex3.2", "neg", 1.0 / 3.0, 1e-4), ("ex3.3", "neg", 0.2, 1e-4),
    ("ex3.4", None, 0.75, 1e-2)])
def test_geometric_window_spans_the_clean_range_of_a_long_run(
        capsys, ident, variant, ratio, rel):
    # these runs reach the noise floor within the first tenth of 2000
    # iterations; the window then starts at a tenth of the clean range
    argv = ["example", ident, "--iters", "2000", "--out", os.devnull]
    if variant:
        argv += ["--variant", variant]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    fit = out.splitlines()[-1]
    start, last = map(int, fit.split("k in (")[1].split(")")[0].split(", "))
    assert start == max(2, last // 10) and last - start >= 8, fit
    assert float(fit.split("ratio=")[1].split()[0]) == pytest.approx(
        ratio, rel=rel)


def test_geometric_summary_stops_at_the_noise_floor():
    # 0.2^k down to ~1e-8, then rounding-level noise that a fit through it
    # would pull off 0.2
    k = np.arange(41)
    dists = 0.2 ** k
    noisy = dists < 1.49e-8
    dists[noisy] = np.random.RandomState(5).uniform(1e-17, 1e-15,
                                                    noisy.sum())
    trace = SimpleNamespace(dists=dists)
    line = _summarize(trace, None)
    last = int(np.nonzero(~noisy)[0][-1])
    assert f"on k in (4, {last}): ratio=0.200000" in line
    assert "rmse=" in line


def test_verify_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma67", "--seed", "7")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 12
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


def test_example_nan_tol_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "example", "ex3.2", "--variant", "neg",
                             "--tol", "nan", "--iters", "50")
    assert code == 2
    assert "tol must be >= 0" in err and out == ""


_SPEC61_PLANE = {"kind": "type2", "c": [1.0, 0.0, 0.0, 1.0, 0.0]}


@pytest.mark.parametrize("body, key", [
    ({"plane": 5}, "plane"),
    ({"plane": [1, 2]}, "plane"),
    ({"plane": "ex3.4", "max_iter": None}, "max_iter"),
    ({"plane": "ex3.4", "max_iter": 2.7}, "max_iter"),
    ({"plane": "ex3.4", "max_iter": True}, "max_iter"),
    ({"plane": "ex3.4", "tol": None}, "tol"),
    ({"plane": "ex3.4", "tol": "nan"}, "tol"),
    ({"plane": "ex3.4", "start": {"a": 1}}, "start"),
    ({"plane": "ex3.4", "start": [0.1, None]}, "start"),
    ({"plane": "ex3.4", "out": 5}, "out"),
    ({"plane": {**_SPEC61_PLANE, "theta": float("nan")}, "start": "0,0,0"},
     "theta"),
    ({"plane": {**_SPEC61_PLANE, "c": 5}, "start": "0,0,0"}, "c"),
    ({"plane": {**_SPEC61_PLANE, "reflect": "false"}, "start": "0,0,0"},
     "reflect"),
])
def test_run_config_wrong_type_is_usage_error(capsys, tmp_path, body, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    code, out, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2
    assert f"'{key}' must" in err and out == ""


@pytest.mark.parametrize("plane, message", [
    ({**_SPEC61_PLANE, "thetta": 0.3, "reflected": True},
     "unknown plane key 'reflected'; known: c, kind, mu, reflect, theta"),
    ({**_SPEC61_PLANE, "thetta": 0.3},
     "unknown plane key 'thetta'; known: c, kind, mu, reflect, theta"),
    ({"c": _SPEC61_PLANE["c"]}, "plane key 'kind' is required"),
    ({"kind": "type2"}, "plane key 'c' is required"),
])
def test_run_unknown_or_missing_plane_key_is_usage_error(capsys, tmp_path,
                                                          plane, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": plane, "start": "0,0,0"}))
    code, out, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("ident, variant", [
    ("ex3.2", "pos"), ("ex3.2", "neg"), ("ex3.3", "neg"), ("ex3.3", "pos"),
    ("ex3.4", "default"), ("ex4.4", "default"), ("ex6.1", "default")])
def test_example_and_run_agree(capsys, tmp_path, ident, variant):
    # the same instance, start and iteration count through both commands:
    # the same CSV bytes and the same summary, fit included
    ex_csv, run_csv = tmp_path / "example.csv", tmp_path / "run.csv"
    code, ex_out, _ = run_cli(capsys, "example", ident, "--variant", variant,
                              "--iters", "300", "--out", str(ex_csv))
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": ident, "variant": variant,
                                    "max_iter": 300, "out": str(run_csv)}))
    code, run_out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    assert run_csv.read_bytes() == ex_csv.read_bytes()
    assert run_out == ex_out
    assert ex_out.startswith(f"# {ident} ({variant}): iterations=")
    fit = ("1/dist^2" if (ident, variant) == ("ex3.2", "pos") else
           "1/dist^6" if ident in ("ex4.4", "ex6.1") else "geometric")
    assert f"# {fit} fit on k in" in ex_out


def test_run_plane_object_summary(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": _SPEC61_PLANE,
                                    "start": "slowest-curve:0.1",
                                    "max_iter": 50, "out": os.devnull}))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["# plane (type2): iterations=50 stop=max_iter",
                         "# singularity degree: 2"]
    assert lines[2].startswith("# 1/dist^6 fit on k in (5, 50): ")


def test_run_builtin_without_start_uses_its_default(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": "ex3.2", "variant": "neg",
                                    "max_iter": 30}))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    cols = parse_trace_csv(out)
    inst = get_example("ex3.2", "neg")
    assert cols["dist"][0] == run_ap(inst.plane, inst.start, 1, 0.0).dists[0]
    assert cols["dist"][0] > 0.0
    assert "geometric fit" in out and "ratio=0.333" in out


def test_run_spec_plane_without_start_is_usage_error(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": _SPEC61_PLANE}))
    code, out, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2
    assert "config key 'start' is required" in err and out == ""


def test_run_builtin_with_variant(capsys, tmp_path):
    cfg = {"plane": "ex3.3", "variant": "pos", "start": [0.5], "max_iter": 30}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert code == 0
    assert "geometric fit" in out and "ratio=0.800" in out


@pytest.mark.parametrize("ident", ["ex3.4", "ex4.4", "ex6.1"])
def test_example_unknown_variant_is_usage_error(capsys, ident):
    code, out, err = run_cli(capsys, "example", ident, "--variant", "bogus",
                             "--iters", "5", "--out", os.devnull)
    assert code == 2
    assert f"{ident} has one variant: default" in err and out == ""
    code, out, _ = run_cli(capsys, "example", ident, "--variant", "default",
                           "--iters", "5", "--out", os.devnull)
    assert code == 0
    assert f"# {ident} (default): iterations=5 " in out


@pytest.mark.parametrize("plane, message", [
    ("ex6.1", "ex6.1 has one variant"),
    (_SPEC61_PLANE, "'variant' applies to a built-in plane id only"),
])
def test_run_variant_the_plane_lacks_is_usage_error(capsys, tmp_path, plane,
                                                    message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plane": plane, "variant": "bogus",
                                    "start": "slowest-curve:0.1",
                                    "max_iter": 5}))
    code, out, err = run_cli(capsys, "run", str(cfg_path))
    assert code == 2
    assert message in err and out == ""


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


def _cli_env():
    src = str(Path(apcone.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _run_cli_warnings_as_errors(*argv):
    """``python -W error -m apcone.cli argv``: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "apcone.cli", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_example_overflowing_start_distance_is_usage_error():
    code, _, err = _run_cli_warnings_as_errors(
        "example", "ex6.1", "--start", "slowest-curve:1.8e38", "--iters", "3")
    assert code == 2
    assert err.startswith("error: ") and "squared distance overflows" in err
    assert "Warning" not in err


def test_example_fit_overflow_is_reported_as_unavailable():
    code, out, err = _run_cli_warnings_as_errors(
        "example", "ex6.1", "--start", "slowest-curve:3e-60", "--iters", "3")
    assert code == 0 and err == ""
    assert "iterations=3 stop=max_iter" in out
    assert "# fit unavailable (dist^-6 or its square overflows" in out


def test_example_huge_iteration_count_allocates_per_step():
    # memory grows with the steps taken, so a max_iter far beyond memory
    # still runs: this start reaches the tolerance at k = 5
    code, out, err = _run_cli_warnings_as_errors(
        "example", "ex3.2", "--variant", "neg", "--iters", "100000000000",
        "--tol", "1e-3")
    assert code == 0 and err == ""
    assert "iterations=5 stop=tol" in out
    assert len(parse_trace_csv(out)["dist"]) == 6


def test_closed_stdout_pipe_exits_1_without_error_line():
    # like `apcone example ex6.1 --iters 3000 | head -1`: the 3000-row trace
    # overflows the pipe buffer, so writing goes on after the reader closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "apcone.cli", "example", "ex6.1", "--iters",
         "3000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_cli_env())
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
