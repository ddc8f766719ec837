"""Command-line front end.

Subcommands:
  example  run a built-in instance (ex3.2, ex3.3, ex3.4, ex4.4, ex6.1)
  run      run a built-in instance or a plane object from a JSON config file
  verify   run one of the seeded verification suites

``example`` and ``run`` resolve their input to a ``catalog.ExampleInstance``
and share one run-and-report path.  Trace output is CSV with header
``k,dist,psd_rank,inv2,inv6`` where inv_p = dist^-p, the same power the
summary's 1/dist^p fit reads, formatted and written ``_CSV_BLOCK`` rows at
a time, so the text held at once does not grow with the run.  The summary
follows it, in lines that start with '#' (so a trace printed to stdout
still parses): ``# <id> (<variant>): iterations=N stop=R``, then
``# singularity degree: d`` for a type2 instance or plane object, then the
instance's rate fit.  Exit codes: 0 success, 1 failed check or run (an
``EigenSolverError`` during the run prints one ``error:`` line), or
stdout closed by its reader before the output was written, 2 usage error
or any other I/O error (a closed pipe behind ``--out`` included).
The APCONE_LOG environment variable (quiet|info|debug) sets log verbosity.
"""

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager

import numpy as np

from .apengine import run_ap
from .catalog import BUILTIN_IDS, get_example, plane_instance
from .planes import PlaneSpec, singularity_degree
from .rates import fit_geometric, fit_inverse_power
from .slowcurve import curve_point
from .symcore import EigenSolverError, _power
from .verify import SUITES, run_suite

log = logging.getLogger("apcone")

_NOISE_FLOOR = float(np.sqrt(np.finfo(float).eps))
# trace rows formatted and written at a time: about 65 kB of CSV text is
# held at once, whatever the run's length
_CSV_BLOCK = 1024

CONFIG_KEYS = frozenset(("plane", "variant", "start", "max_iter", "tol",
                         "out"))


def _setup_logging():
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
        os.environ.get("APCONE_LOG", "quiet").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def trace_csv(dists, ranks, k0=0):
    """The CSV rows of the distances ``dists`` and PSD ranks ``ranks`` (a
    trace's columns, or a block of them, as ndarrays), numbered from
    ``k0``, and the header before them when ``k0`` is 0; the CSV of a whole
    run is these texts of consecutive blocks, joined.  inv_p = dist^-p is
    ``symcore._power``'s, the number ``rates.fit_inverse_power`` fits, and
    inf where dist is 0 or the power overflows (dist^-6 does once dist <
    ~1e-52)."""
    with np.errstate(divide="ignore", over="ignore"):
        inv2, inv6 = _power(dists, -2.0), _power(dists, -6.0)
    rows = zip(range(k0, k0 + len(dists)), dists.tolist(), ranks.tolist(),
               inv2.tolist(), inv6.tolist())
    return ("" if k0 else "k,dist,psd_rank,inv2,inv6\n") + "".join(
        map("%d,%.17g,%d,%.17g,%.17g\n".__mod__, rows))


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


@contextmanager
def _trace_writer(out):
    """The function that writes the trace CSV: ``write`` of the file
    ``out``, opened for the ``with`` block, or ``_out`` (stdout) when
    ``out`` is empty."""
    if not out:
        yield _out
        return
    with open(out, "w") as fh:
        yield fh.write
    log.info("trace written to %s", out)


def _fit_window(trace, k_min, floor=0.0):
    """The fit window: from a tenth of the run, at least ``k_min``, to the
    last k with dist_k > floor.  When that clean range ends before twice a
    tenth of the run, the window starts at a tenth of the clean range
    instead, so it does not shrink to its last two points."""
    last = len(trace.dists) - 1
    while last > 0 and trace.dists[last] <= floor:
        last -= 1
    start = (len(trace.dists) - 1) // 10
    if 2 * start > last:
        start = last // 10
    return max(0, min(max(k_min, start), last - 1)), last


def _summarize(trace, power):
    """The fit line of the summary: dist^-power against k, or log dist
    against k (geometric) when ``power`` is None."""
    n = len(trace.dists) - 1
    if n < 3:
        return "too few iterations for a fit"
    try:
        if power is None:
            # distances below sqrt(eps) dist_0 are rounding noise, not rate
            window = _fit_window(trace, 2,
                                 _NOISE_FLOOR * float(trace.dists[0]))
            fit = fit_geometric(trace, window)
            return (f"geometric fit on k in {fit.window}: "
                    f"ratio={fit.ratio:.6f} amplitude={fit.amplitude:.4g} "
                    f"rmse={fit.rmse:.2e}")
        window = _fit_window(trace, 1)
        fit = fit_inverse_power(trace, power, window)
        return (f"1/dist^{power} fit on k in {fit.window}: "
                f"slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
                f"rmse={fit.rmse:.2e}")
    except ValueError as exc:
        return f"fit unavailable ({exc})"


def _parse_start(text, spec):
    """Start forms: a comma list of coefficients, or slowest-curve:t0,
    returned as the curve point's matrix, which needs the spec and not its
    plane; the library checks the curve, t0 and the number of
    coefficients."""
    if text.startswith("slowest-curve:"):
        t0 = float(text.split(":", 1)[1])
        try:
            return curve_point(spec, t0).G
        except ArithmeticError:
            raise ValueError(f"slowest-curve t0={t0:g} is outside the "
                             "curve's domain") from None
    return np.array([float(tok) for tok in text.split(",")])


def _run_and_report(inst, start, iters, tol, out):
    """Run AP on the instance from ``start``, write the trace CSV to ``out``
    (stdout when None) a block of rows at a time and print the summary;
    the one run path of both ``example`` and ``run``.  A start matrix is
    read as its basis coefficients."""
    if np.ndim(start) == 2:
        start = inst.plane.coefficients(start)
    if not np.isfinite(start).all():
        raise ValueError("start coefficients must be finite")
    log.info("running %s (%s) for %d iterations", inst.ident, inst.variant,
             iters)
    trace = run_ap(inst.plane, start, max_iter=iters, tol=tol)
    with _trace_writer(out) as write:
        for k in range(0, len(trace), _CSV_BLOCK):
            block = slice(k, k + _CSV_BLOCK)
            write(trace_csv(trace.dists[block], trace.psd_ranks[block], k))
    _out(f"# {inst.ident} ({inst.variant}): iterations={len(trace) - 1} "
         f"stop={trace.stop_reason}\n")
    if inst.spec is not None:
        _out(f"# singularity degree: {singularity_degree(inst.spec)}\n")
    _out(f"# {_summarize(trace, inst.fit_power)}\n")
    return 0


def cmd_example(args):
    inst = get_example(args.ident, args.variant)
    iters = args.iters if args.iters is not None else inst.default_iters
    start = inst.start if args.start is None else _parse_start(
        args.start, inst.spec)
    return _run_and_report(inst, start, iters, args.tol, args.out)


def _config_value(config, key, ok, what, default=None):
    """config[key], or ``default`` when the key is absent; a value that
    ``ok`` rejects raises ``ValueError`` naming the key."""
    value = config.get(key, default)
    if not ok(value):
        raise ValueError(f"config key {key!r} must be {what}")
    return value


def cmd_run(args):
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; known: "
                         f"{', '.join(sorted(CONFIG_KEYS))}")
    plane_field = _config_value(config, "plane",
                                lambda v: isinstance(v, (str, dict)),
                                "a built-in id or a plane object")
    variant = _config_value(config, "variant",
                            lambda v: v is None or isinstance(v, str),
                            "a string")
    if isinstance(plane_field, str):
        inst = get_example(plane_field, variant)
        spec = inst.spec
    elif "variant" in config:
        raise ValueError("config key 'variant' applies to a built-in plane "
                         "id only")
    else:   # its plane is built once the start, maybe a curve point, is read
        inst, spec = None, PlaneSpec.from_json(plane_field)
    # JSON numbers decode to exactly int or float (true and false to bool)
    if "start" in config:
        start_field = _config_value(
            config, "start", lambda v: type(v) in (int, float, str) or
            type(v) is list and all(type(x) in (int, float) for x in v),
            "a number, a list of numbers or a string")
        start = (np.array(start_field, dtype=float)
                 if type(start_field) is list
                 else _parse_start(str(start_field), spec))
    elif inst is not None:
        start = inst.start
    else:
        raise ValueError("config key 'start' is required with a plane object")
    inst = inst or plane_instance(spec)

    max_iter = _config_value(config, "max_iter", lambda v: type(v) is int,
                             "an integer", 1000)
    tol = _config_value(config, "tol", lambda v: type(v) in (int, float),
                        "a number", 0.0)
    out = _config_value(config, "out",
                        lambda v: v is None or isinstance(v, str), "a string")
    return _run_and_report(inst, start, max_iter, tol, args.out or out)


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
                      help="comma list of coefficients, or slowest-curve:t0")
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
        # str() of a KeyError is the repr of its one argument, the message
        print(f"error: {exc.args[0] if type(exc) is KeyError else exc}",
              file=sys.stderr)
        return 2
    except EigenSolverError as exc:     # a step of the run failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
