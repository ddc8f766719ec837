import json
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apcone.apengine import run_ap
from apcone.catalog import BUILTIN_IDS, get_example
from apcone.cli import CONFIG_KEYS, _summarize, trace_csv
from apcone.rates import _line_fit, fit_inverse_power, parse_trace_csv
from apcone.verify import SUITES
from probes import cli_env, run_cli, run_cli_warnings_as_errors

_SPEC61_PLANE = {"kind": "type2", "c": [1, 0, 0, 1, 0]}


def check_cli(capsys, tmp_path, argv, code=None, message=None):
    """Run ``apcone argv`` and assert the CLI's contract; returns stdout.

    ``argv`` runs in process with warnings as errors, or under ``python
    -Werror`` when it starts with "-Werror".  After ``run`` comes the
    config body (a dict, or JSON text), written to ``tmp_path`` and passed
    as its path.  No output holds a traceback.  On exit 0 stderr is empty
    and the CSV on stdout (a run without ``--out``) has a row for the
    start and one for each iteration the summary's first line counts.  On
    exit 1 or 2 stdout is empty and stderr is the one line ``error:
    <message>``, or argparse's usage and its one ``apcone <cmd>: error:
    <message>`` line.  ``code`` and ``message`` (on exit 0, the summary's
    first line) are asserted when given.
    """
    argv = list(argv)
    strict = argv[0] == "-Werror"
    cmd = argv[strict]
    if cmd == "run":
        body = argv[strict + 1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body if isinstance(body, str) else json.dumps(body))
        argv[strict + 1] = str(cfg)
    if strict:
        got, out, err = run_cli_warnings_as_errors(*argv[1:])
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(capsys, *argv)
    assert "Traceback" not in out + err
    assert got in ((0, 1, 2) if code is None else (code,))
    if got == 0:
        assert err == ""
        said = next(ln for ln in out.splitlines() if ln.startswith("# "))
        iterations = int(said.split("iterations=")[1].split()[0])
        assert len(parse_trace_csv(out)["k"]) == iterations + 1
    else:
        assert out == ""
        if err.startswith("usage: "):
            *usage, said = err.splitlines()
            head = f"apcone {cmd}: error: "
            assert said.startswith(head) and "error:" not in "".join(usage)
            said = said[len(head):]
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            said = err[len("error: "):-1]
    assert message is None or said == message
    return out


_NAN, _INF = float("nan"), float("inf")
_IDS = ", ".join(map(repr, BUILTIN_IDS))
_SUITES = ", ".join(map(repr, SUITES))
_ONE_VARIANT = ("ex3.4", "ex4.4", "ex6.1")
_MUST = {"plane": "a built-in id or a plane object", "max_iter": "an integer",
         "tol": "a number", "start": "a number, a list of numbers or a string",
         "out": "a string", "variant": "a string"}
_PLANE_KEYS = "known: c, kind, mu, reflect, theta"
_OVERFLOWS = "the start is too large: its matrix overflows"
_NO_CURVE = "the slowest curve needs a type2 plane with c4 != 0"
_NO_FLOAT_CURVE = ("the slowest curve's constants are not finite nonzero "
                   "floats on this plane")

# (argv, exit code, message): the message of the one error line, or on
# exit 0 the summary's first line; a new bad input is one more row
CONTRACT = [
    (("example", "ex9.9"), 2,
     f"argument id: invalid choice: 'ex9.9' (choose from {_IDS})"),
    (("example", "ex6.1", "--iters", "x"), 2,
     "argument --iters: invalid int value: 'x'"),
    (("example", "ex3.4", "--start", "0.3"), 2, "expected 2 coefficients"),
    (("example", "ex3.2", "--start", "slowest-curve:0.1"), 2, _NO_CURVE),
    # w's inner denominator 1 - 2t vanishes at t = 0.5 for ex6.1
    (("example", "ex6.1", "--iters", "5", "--start", "slowest-curve:0.5"), 2,
     "slowest-curve t0=0.5 is outside the curve's domain"),
    *[(("example", "ex6.1", "--start", f"slowest-curve:{t0}"), 2,
       "the curve parameter t must be finite")
      for t0 in ("nan", "inf", "-inf")],
    (("example", "ex3.2", "--variant", "neg", "--tol", "nan"), 2,
     "tol must be >= 0"),
    *[(("example", ident, "--variant", "bogus"), 2,
       f"{ident} has one variant: default") for ident in _ONE_VARIANT],
    *[(("example", ident, "--variant", "default", "--iters", "5"), 0,
       f"# {ident} (default): iterations=5 stop=max_iter")
      for ident in _ONE_VARIANT],
    (("-Werror", "example", "ex6.1", "--start", "slowest-curve:1.8e38",
      "--iters", "3"), 2,
     "the start is too far from the target: its squared distance overflows"),
    (("-Werror", "example", "ex6.1", "--iters", "3", "--start",
      "1e308,1e308,1e308"), 2, _OVERFLOWS),
    # odd input that runs
    (("example", "ex6.1", "--tol", "inf", "--iters", "3"), 0,
     "# ex6.1 (default): iterations=0 stop=tol"),
    *[(("example", "ex6.1", "--start", start, "--iters", "3"), 0,
       "# ex6.1 (default): iterations=3 stop=max_iter")
      for start in ("slowest-curve:-0.1", "slowest-curve:1e-320", "0,0,0")],
    (("example", "ex3.2", "--variant", "neg", "--iters", "100000000000",
      "--tol", "1e-3"), 0, "# ex3.2 (neg): iterations=5 stop=tol"),
    (("verify", "nonsense"), 2,
     f"argument suite: invalid choice: 'nonsense' (choose from {_SUITES})"),
    # prop31 draws and prop76 does not: both refuse the seed before running
    *[(("verify", suite, "--seed", seed), 2,
       "Seed must be between 0 and 2**32 - 1")
      for suite in ("prop31", "prop76") for seed in ("-1", "4294967296")],
    (("run", "{not json"), 2, "Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (("run", {"plane": "ex3.4", "start": [0.1, 0.0], "max_iter": 0}), 2,
     "max_iter must be an integer >= 1"),
    *[(("run", {"plane": _SPEC61_PLANE, "start": [bad, 0, 0], "max_iter": 10}),
       2, "start coefficients must be finite") for bad in (_NAN, _INF, -_INF)],
    (("run", {"plane": "ex6.1", "start": "slowest-curve:0.5", "max_iter": 5}),
     2, "slowest-curve t0=0.5 is outside the curve's domain"),
    *[(("run", {"plane": "ex3.4", "start": [0.1, 0.0], key: 5}), 2,
       f"unknown config key {key!r}; known: {', '.join(sorted(CONFIG_KEYS))}")
      for key in ("max_iters", "stride")],
    *[(("run", {"plane": "ex3.4", key: value}), 2,
       f"config key {key!r} must be {_MUST[key]}") for key, value in [
        ("plane", 5), ("plane", [1, 2]), ("max_iter", None), ("max_iter", 2.7),
        ("max_iter", True), ("tol", None), ("tol", "nan"), ("start", {"a": 1}),
        ("start", [0.1, None]), ("out", 5), ("variant", ["a"]),
        ("variant", {"a": 1}), ("variant", 1)]],
    *[(("run", {"plane": {**_SPEC61_PLANE, **field}, "start": "0,0,0"}), 2,
       message) for field, message in [
        ({"theta": _NAN}, "plane field 'theta' must be a finite number"),
        ({"theta": True}, "plane field 'theta' must be a finite number"),
        ({"c": 5}, "plane field 'c' must list finite numbers"),
        ({"reflect": "false"}, "plane field 'reflect' must be true or false"),
        ({"thetta": 0.3, "reflected": True},
         f"unknown plane key 'reflected'; {_PLANE_KEYS}"),
        ({"thetta": 0.3}, f"unknown plane key 'thetta'; {_PLANE_KEYS}")]],
    (("run", {"plane": {"c": _SPEC61_PLANE["c"]}, "start": "0,0,0"}), 2,
     "plane key 'kind' is required"),
    (("run", {"plane": {"kind": "type2"}, "start": "0,0,0"}), 2,
     "plane key 'c' is required"),
    (("run", {"plane": _SPEC61_PLANE}), 2,
     "config key 'start' is required with a plane object"),
    (("run", {"plane": {"kind": "type1", "c": [1, 0, 0, 0, 1, 0, 0, 2],
                        "mu": 0.5}, "start": "slowest-curve:0.1"}), 2,
     _NO_CURVE),
    # c4^5 underflows to 0; ||B1||^2 = 4 c1^2 + 2 overflows, and with it the
    # plane's basis entry -2 c1: the curve is refused before the plane
    *[(("run", {"plane": {**_SPEC61_PLANE, "c": c},
                "start": "slowest-curve:0.01"}), 2, _NO_FLOAT_CURVE)
      for c in ([0.3, 0.2, 0.1, 1e-200, 0.4], [1e308, 0.2, 0.1, 1, 0.4])],
    (("run", {"plane": "ex6.1", "variant": "bogus", "max_iter": 5}), 2,
     "ex6.1 has one variant: default"),
    (("run", {"plane": _SPEC61_PLANE, "variant": "bogus", "max_iter": 5}), 2,
     "config key 'variant' applies to a built-in plane id only"),
    (("run", {"plane": "ex9.9"}), 2,
     f"unknown example id 'ex9.9'; known: {', '.join(BUILTIN_IDS)}"),
    (("-Werror", "run", {"plane": "ex6.1", "max_iter": 3,
                         "start": [1e308, 1e308, 1e308]}), 2, _OVERFLOWS),
    # the basis entry -2 c1 overflows to -inf
    (("-Werror", "run", {"plane": {**_SPEC61_PLANE, "c": [1e308, 0, 0, 1, 0]},
                         "start": "0,0,0"}), 2, "matrix has non-finite entries"),
]


@pytest.mark.parametrize("argv, code, message", CONTRACT, ids=[
    " ".join(a if isinstance(a, str) else json.dumps(a, separators=",:")
             for a in row[0]) for row in CONTRACT])
def test_cli_contract(capsys, tmp_path, argv, code, message):
    check_cli(capsys, tmp_path, argv, code, message)


@pytest.mark.parametrize("ident, variant", [
    ("ex3.2", "pos"), ("ex3.2", "neg"), ("ex3.3", "pos"), ("ex3.3", "neg"),
    ("ex3.4", None), ("ex4.4", None), ("ex6.1", None)])
def test_example_target_is_the_plane_anchor(ident, variant):
    inst = get_example(ident, variant)
    assert inst.target is inst.plane.anchor
    with pytest.raises(AttributeError):
        inst.target = np.zeros((inst.plane.n, inst.plane.n))


def test_example_neg_branch_summary(capsys):
    out = check_cli(capsys, None, ("example", "ex3.3", "--variant", "neg"), 0)
    assert "geometric fit" in out and "ratio=0.200" in out
    cols = parse_trace_csv(out)
    assert cols["k"][0] == 0 and len(cols["dist"]) == 41
    assert set(np.unique(cols["psd_rank"])).issubset({0.0, 1.0, 2.0})


def test_example_csv_on_stdout_round_trips(capsys):
    out = check_cli(capsys, None, ("example", "ex3.2", "--variant", "neg",
                                   "--iters", "30"), 0)
    cols = parse_trace_csv(out)       # summary lines are '#'-prefixed
    assert len(cols["dist"]) == 31
    k = int(cols["k"][5])
    assert cols["inv2"][5] == pytest.approx(cols["dist"][5] ** -2.0, rel=1e-15)


def test_example_deterministic_output(capsys):
    argv = ("example", "ex3.4", "--iters", "25")
    assert check_cli(capsys, None, argv, 0) == check_cli(capsys, None, argv, 0)


def test_example_slowest_curve_start(capsys):
    out = check_cli(capsys, None, ("example", "ex6.1", "--iters", "50",
                                   "--start", "slowest-curve:0.05"), 0)
    first = out.splitlines()[1]
    dist0 = float(first.split(",")[1])
    assert dist0 == pytest.approx(np.sqrt(6 * 0.05 ** 2 + 6 * (0.05 ** 2 / 1.8) ** 2),
                                  rel=1e-2)


def test_example_trace_csv_emits_no_overflow_warning(capsys):
    # ex3.4 decays geometrically, so dist^-6 overflows after a few hundred
    # iterations; the CSV carries inf and nothing reaches stderr
    cols = parse_trace_csv(check_cli(
        capsys, None, ("example", "ex3.4", "--iters", "1000"), 0))
    assert np.any((cols["dist"] > 0.0) & np.isinf(cols["inv6"]))


def _numpy_trace_csv(dists, ranks):
    # the CSV writer as it was over NumPy scalars: the byte reference
    lines = ["k,dist,psd_rank,inv2,inv6"]
    with np.errstate(over="ignore"):
        for k, (d, r) in enumerate(zip(dists, ranks)):
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
        text = trace_csv(trace.dists, trace.psd_ranks)
    assert text == _numpy_trace_csv(trace.dists, trace.psd_ranks)
    if ident == "ex3.4":
        assert ",inf," in text and text.count("inf\n") > text.count(",inf,")


def test_trace_csv_bytes_on_zero_overflowing_and_ordinary_distances():
    # 0 and 1e-160 give inf in both power columns, 1e-60 only in inv6
    dists = np.array([0.5, 1e-3, 1e-60, 1e-160, 0.0, 3.0, 0.1])
    ranks = np.array([1, 2, 1, 0, 0, 3, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = trace_csv(dists, ranks)
    assert text == _numpy_trace_csv(dists, ranks)
    powers = [line.split(",")[3:] for line in text.splitlines()[1:]]
    assert [[x == "inf" for x in row] for row in powers[2:5]] == [
        [False, True], [True, True], [True, True]]


def test_inverse_power_fit_reads_the_csv_inv6_column_bit_for_bit(
        capsys, tmp_path):
    # the summary's fit and the CSV column it summarizes take dist^-6 the
    # same way, so a fit of the parsed column is the fit of the trace
    out_file = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "example", "ex6.1", "--start",
                         "slowest-curve:0.1", "--iters", "10000", "--out",
                         str(out_file))
    assert code == 0
    inst = get_example("ex6.1")
    trace = run_ap(inst.plane, inst.start, max_iter=10 ** 4, tol=0.0)
    fit = fit_inverse_power(trace, 6, (1000, 10000))
    inv6 = parse_trace_csv(out_file.read_text())["inv6"][1000:]
    assert (fit.intercept, fit.slope, fit.rmse) == _line_fit(
        np.arange(1000, 10001), inv6)


@pytest.mark.parametrize("ident, variant, ratio, rel", [
    ("ex3.2", "neg", 1.0 / 3.0, 1e-4), ("ex3.3", "neg", 0.2, 1e-4),
    ("ex3.4", None, 0.75, 1e-2)])
def test_geometric_window_spans_the_clean_range_of_a_long_run(
        capsys, ident, variant, ratio, rel):
    # these runs reach the noise floor within the first tenth of 2000
    # iterations; the window then starts at a tenth of the clean range
    argv = ("example", ident, "--iters", "2000") + (
        ("--variant", variant) if variant else ())
    fit = check_cli(capsys, None, argv, 0).splitlines()[-1]
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


def test_verify_largest_seed_runs(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop31", "--seed", "4294967295")
    assert code == 0
    assert out.endswith("# suite prop31: all checks passed\n")


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
    out = check_cli(capsys, tmp_path, ("run", {
        "plane": {"kind": "type2", "c": [1.0, 0.0, 0.0, 0.0, 0.5]},
        "start": [0.01, 0.0, 0.0], "max_iter": 60}), 0)
    assert "singularity degree: 1" in out
    assert "geometric fit" in out



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
    out = check_cli(capsys, tmp_path, ("run", {
        "plane": _SPEC61_PLANE, "start": "slowest-curve:0.1", "max_iter": 50}),
        0)
    lines = out.splitlines()[-3:]
    assert lines[:2] == ["# plane (type2): iterations=50 stop=max_iter",
                         "# singularity degree: 2"]
    assert lines[2].startswith("# 1/dist^6 fit on k in (5, 50): ")


def test_run_builtin_without_start_uses_its_default(capsys, tmp_path):
    out = check_cli(capsys, tmp_path, ("run", {
        "plane": "ex3.2", "variant": "neg", "max_iter": 30}), 0)
    cols = parse_trace_csv(out)
    inst = get_example("ex3.2", "neg")
    assert cols["dist"][0] == run_ap(inst.plane, inst.start, 1, 0.0).dists[0]
    assert cols["dist"][0] > 0.0
    assert "geometric fit" in out and "ratio=0.333" in out


def test_run_builtin_with_variant(capsys, tmp_path):
    out = check_cli(capsys, tmp_path, ("run", {
        "plane": "ex3.3", "variant": "pos", "start": [0.5], "max_iter": 30}),
        0)
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
    out = check_cli(capsys, tmp_path, ("run", {
        "plane": _SPEC61_PLANE, "start": [0.0, 0.0, 0.0], "max_iter": 500}), 0)
    assert "fit unavailable" in out


def test_eigensolver_failure_mid_run_is_a_failed_run(capsys, monkeypatch):
    # a step that fails after the run has started exits 1, the failed-run
    # code, with one error line and no traceback
    from apcone import symcore
    eigh, calls = symcore._eigh, [0]

    def eigh_then_nan(a, out=None):
        calls[0] += 1
        return eigh(np.full_like(a, np.nan) if calls[0] > 5 else a, out)

    monkeypatch.setattr(symcore, "_eigh", eigh_then_nan)
    with np.errstate(invalid="ignore"):
        check_cli(capsys, None, ("example", "ex6.1", "--iters", "20"), 1,
                  "LAPACK eigh failed: NaN eigenvalues")
    assert calls[0] == 6


def test_example_fit_overflow_is_reported_as_unavailable():
    code, out, err = run_cli_warnings_as_errors(
        "example", "ex6.1", "--start", "slowest-curve:3e-60", "--iters", "3")
    assert code == 0 and err == ""
    assert "iterations=3 stop=max_iter" in out
    assert "# fit unavailable (dist^-6 or its square overflows" in out


def test_example_huge_iteration_count_allocates_per_step():
    # memory grows with the steps taken, so a max_iter far beyond memory
    # still runs: this start reaches the tolerance at k = 5
    code, out, err = run_cli_warnings_as_errors(
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
        env=cli_env())
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
    check_cli(capsys, None, ("example", "ex3.2", "--variant", "neg",
                             "--iters", "5", "--out", "trace.csv"), 2,
              "[Errno 32] Broken pipe")


# --- the contract on generated input ---------------------------------------------

# each input is valid but for one odd part at most, so that odd values
# reach the run as well as the checks before it
_ODD = st.floats() | st.sampled_from(
    [1e308, -1e308, 1e160, 1e-320, 5e-324, -5e-324, -0.1, -0.0])
_NUMBERS = st.floats(-1.0, 1.0) | _ODD
_STARTS = (st.lists(_NUMBERS, min_size=1, max_size=4).map(
    lambda xs: ",".join(map(repr, xs)))
    | _NUMBERS.map(lambda t: f"slowest-curve:{t!r}"))
_EXAMPLE_ARGV = st.tuples(
    st.sampled_from([*BUILTIN_IDS, "ex6.1", "ex6.1", "ex9.9"]),
    st.sampled_from([(), (), (), ("--variant=neg",), ("--variant=bogus",)]),
    st.sampled_from([(), (), ("--tol=inf",), ("--tol=nan",),
                     ("--tol=-0.0",)]),
    st.none() | _STARTS.map(lambda text: f"--start={text}"),
    st.integers(0, 20),
).map(lambda a: ("example", a[0], *a[1], *a[2], *filter(None, [a[3]]),
                 f"--iters={a[4]}"))


def _plane_object(kind, size, **fields):
    c = st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)
    odd_c = st.lists(_NUMBERS, min_size=size, max_size=size)
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "c": c | odd_c, **fields},
        optional={"theta": _NUMBERS, "reflect": st.booleans()})


# a value of the wrong JSON type for some key, or of the right one; a
# string "out" would write a file
_KEY_VALUES = st.tuples(
    st.sampled_from(sorted(CONFIG_KEYS)),
    st.sampled_from([None, True, 1, 2.5, "x", [1.0], [None], {"a": 1}]),
).filter(lambda kv: kv != ("out", "x"))
_RUN_ARGV = st.tuples(
    st.sampled_from(["ex3.2", "ex6.1", "ex9.9"]).map(lambda p: {"plane": p})
    | st.fixed_dictionaries({
        "plane": _plane_object("type2", 5)
        | _plane_object("type1", 8, mu=st.floats(0.1, 2.0) | _ODD),
        "start": _STARTS}),
    st.integers(0, 20),
    st.none() | _KEY_VALUES,
).map(lambda a: ("run", {**a[0], "max_iter": a[1],
                         **dict(filter(None, [a[2]]))}))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_EXAMPLE_ARGV | _RUN_ARGV)
def test_cli_contract_on_generated_input(capsys, tmp_path, argv):
    check_cli(capsys, tmp_path, argv)
