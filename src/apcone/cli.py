"""Command-line front end.

Subcommands:
  example  run a built-in instance (ex3.2, ex3.3, ex3.4, ex4.4, ex6.1)
  run      run a custom plane described by a JSON config file
  verify   run one of the seeded verification suites

Trace output is CSV with header ``k,dist,psd_rank,inv2,inv6`` where
inv_p = dist^-p; summary lines start with '#', so a trace printed to stdout
still parses.  Exit codes: 0 success, 1 failed check or run, or stdout
closed by its reader before the output was written, 2 usage error or any
other I/O error (a closed pipe behind ``--out`` included).
The APCONE_LOG environment variable (quiet|info|debug) sets log verbosity.
"""

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .apengine import run_ap
from .catalog import BUILTIN_IDS, get_example
from .planes import PlaneSpec, build_plane, singularity_degree
from .rates import fit_geometric, fit_inverse_power
from .slowcurve import curve_point
from .verify import SUITES, run_suite

log = logging.getLogger("apcone")

_NOISE_FLOOR = float(np.sqrt(np.finfo(float).eps))

CONFIG_KEYS = frozenset(("plane", "variant", "start", "max_iter", "tol",
                         "out"))


def _setup_logging():
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
        os.environ.get("APCONE_LOG", "quiet").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def trace_csv(trace):
    lines = ["k,dist,psd_rank,inv2,inv6"]
    rows = zip(trace.dists.tolist(), trace.psd_ranks.tolist())
    for k, (d, r) in enumerate(rows):
        # dist^-6 overflows once dist < ~1e-52 (Python floats raise); inf
        # is the value written
        inv2 = inv6 = math.inf
        if d > 0:
            try:
                inv2 = d ** -2.0
                inv6 = d ** -6.0
            except OverflowError:
                pass
        lines.append(f"{k},{d:.17g},{r},{inv2:.17g},{inv6:.17g}")
    return "\n".join(lines) + "\n"


class _StdoutClosed(Exception):
    """The reader of stdout closed the pipe (e.g. ``| head``)."""


def _out(text="", flush=False):
    """Write text to stdout, and flush it if asked; a ``BrokenPipeError``
    from stdout is raised as ``_StdoutClosed``, so that one from any other
    file still reads as an error."""
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _emit(csv_text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
        log.info("trace written to %s", out)
    else:
        _out(csv_text)


def _positive_window(trace, k_min, k_max, floor=0.0):
    """(k_min, k_max) ending no later than the last k with dist_k > floor."""
    last = len(trace.dists) - 1
    while last > 0 and trace.dists[last] <= floor:
        last -= 1
    return max(0, min(k_min, last - 1)), min(k_max, last)


def _summarize(trace, model, power):
    n = len(trace.dists) - 1
    if n < 3:
        return "too few iterations for a fit"
    try:
        if model == "geometric":
            # distances below sqrt(eps) dist_0 are rounding noise, not rate
            window = _positive_window(trace, max(2, n // 10), n,
                                      _NOISE_FLOOR * float(trace.dists[0]))
            fit = fit_geometric(trace, window)
            return (f"geometric fit on k in {fit.window}: "
                    f"ratio={fit.ratio:.6f} amplitude={fit.amplitude:.4g} "
                    f"rmse={fit.rmse:.2e}")
        window = _positive_window(trace, max(1, n // 10), n)
        fit = fit_inverse_power(trace, power, window)
        return (f"1/dist^{power} fit on k in {fit.window}: "
                f"slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
                f"rmse={fit.rmse:.2e}")
    except ValueError as exc:
        return f"fit unavailable ({exc})"


def _parse_start(text, inst=None, spec=None, plane=None):
    """Start forms: a float, a comma triple, or slowest-curve:t0."""
    if text.startswith("slowest-curve:"):
        t0 = float(text.split(":", 1)[1])
        if not np.isfinite(t0):
            raise ValueError("slowest-curve t0 must be finite")
        the_spec = spec if spec is not None else (inst.spec if inst else None)
        the_plane = plane if plane is not None else (inst.plane if inst else None)
        if the_spec is None:
            raise ValueError("slowest-curve starts need a type2 plane")
        try:
            G = curve_point(the_spec, t0).G
        except ArithmeticError:
            raise ValueError(f"slowest-curve t0={t0:g} is outside the "
                             "curve's domain") from None
        return the_plane.coefficients(G)
    if "," in text:
        return np.array([float(tok) for tok in text.split(",")])
    value = float(text)
    dim = (plane or inst.plane).dim
    if dim != 1:
        raise ValueError(
            f"plane has {dim} coefficients; pass a comma triple or "
            "slowest-curve:t0")
    return np.array([value])


def _require_finite(start):
    if not np.isfinite(start).all():
        raise ValueError("start coefficients must be finite")


def cmd_example(args):
    inst = get_example(args.ident, args.variant)
    iters = args.iters if args.iters is not None else inst.default_iters
    start = inst.start if args.start is None else _parse_start(
        args.start, inst=inst)
    _require_finite(start)
    log.info("running %s (%s) for %d iterations", inst.ident, inst.variant,
             iters)
    trace = run_ap(inst.plane, start, max_iter=iters, tol=args.tol,
                   target=inst.target)
    _emit(trace_csv(trace), args.out)
    _out(f"# {inst.ident} ({inst.variant}): iterations={len(trace) - 1} "
         f"stop={trace.stop_reason}\n")
    _out("# " + _summarize(trace, inst.fit_model, inst.fit_power) + "\n")
    return 0


def cmd_run(args):
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; known: "
                         f"{', '.join(sorted(CONFIG_KEYS))}")
    plane_field = config["plane"]
    if isinstance(plane_field, str):
        inst = get_example(plane_field, config.get("variant"))
        plane, spec = inst.plane, inst.spec
        target = inst.target
        degree = singularity_degree(spec) if spec else None
    else:
        spec = PlaneSpec.from_json(plane_field)
        plane, _ = build_plane(spec)
        target = plane.anchor
        degree = singularity_degree(spec)
        inst = None
    start_field = config.get("start", 0.0)
    if isinstance(start_field, (int, float)):
        start = _parse_start(str(float(start_field)), inst=inst, spec=spec,
                             plane=plane)
    elif isinstance(start_field, list):
        start = np.array([float(v) for v in start_field])
    else:
        start = _parse_start(start_field, inst=inst, spec=spec, plane=plane)
    _require_finite(start)

    max_iter = int(config.get("max_iter", 1000))
    tol = float(config.get("tol", 0.0))
    trace = run_ap(plane, start, max_iter=max_iter, tol=tol, target=target)
    out = args.out if args.out else config.get("out")
    _emit(trace_csv(trace), out)
    if degree is not None:
        _out(f"# singularity degree: {degree}\n")
    if degree == 2:
        _out("# " + _summarize(trace, "inverse_power", 6) + "\n")
    else:
        _out("# " + _summarize(trace, "geometric", None) + "\n")
    return 0


def cmd_verify(args):
    results = run_suite(args.suite, seed=args.seed)
    all_ok = True
    for res in results:
        tag = "pass" if res.passed else "FAIL"
        _out(f"[{tag}] {args.suite}: {res.label} -- {res.detail}\n")
        all_ok &= res.passed
    _out(f"# suite {args.suite}: "
         f"{'all checks passed' if all_ok else 'FAILURES'}\n")
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apcone",
        description="Alternating projections between the PSD cone and "
                    "affine subspaces: experiments and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("example", help="run a built-in instance")
    p_ex.add_argument("ident", metavar="id", choices=BUILTIN_IDS)
    p_ex.add_argument("--variant", default=None,
                      help="instance branch (e.g. pos/neg)")
    p_ex.add_argument("--start", default=None,
                      help="t0, comma triple, or slowest-curve:t0")
    p_ex.add_argument("--iters", type=int, default=None)
    p_ex.add_argument("--tol", type=float, default=0.0)
    p_ex.add_argument("--out", default=None, help="trace CSV path")
    p_ex.set_defaults(func=cmd_example)

    p_run = sub.add_parser("run", help="run a JSON-configured experiment")
    p_run.add_argument("config", help="JSON config path")
    p_run.add_argument("--out", default=None, help="override output path")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed of the suite's random draws")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        _out(flush=True)
        return code
    except _StdoutClosed:
        # point stdout at devnull so the interpreter's final flush cannot
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
