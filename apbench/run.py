"""apcone benchmark: one command, three workloads, checked outputs.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 apbench/run.py --workload slow_cli --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead.
Each run is one process with BLAS threads capped at the number of usable
CPUs; the only other processes it starts are the set-up probes and ``git``,
and it waits for each.  Human-readable lines go to stdout first; the last
line is the JSON result.  Every run also appends its full record (header,
samples, metrics) to ``.apbench_out/results.jsonl``, which
``apbench/compare.py`` reads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".apbench_out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "ap_steps_per_s": "1/s",
    "traj_ms.p50": "ms",
    "traj_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

LAYERS = ("symcore", "apengine", "planes", "slowcurve", "series", "rates",
          "catalog", "verify", "cli")

# name -> (unit, kind).  ("per_call", scale) is the mean inclusive span time
# in the unit, "calls" the calls per traced pass, and "ratio" a quantity
# computed by name in ``layer_metrics``.
_US, _MS, _S = 1e6, 1e3, 1.0
LAYER_METRICS = {
    "apengine.run_ap.us_per_step": ("us", "ratio"),
    "apengine.run_ap.calls": ("count", "calls"),
    "apengine.run_ap.steps": ("count", "ratio"),
    "apengine.run_ap.rank1_share": ("frac", "ratio"),
    "apengine.ap_step.us": ("us", ("per_call", _US)),
    "apengine.ap_step.calls": ("count", "calls"),
    "apengine.eigenvalue_formula_step.ms": ("ms", ("per_call", _MS)),
    "apengine.rank_one_step_residual.us": ("us", ("per_call", _US)),
    "symcore.project_psd.us": ("us", ("per_call", _US)),
    "symcore.project_psd.calls": ("count", "calls"),
    "symcore.eig_sym.us": ("us", ("per_call", _US)),
    "symcore.project_affine.us": ("us", ("per_call", _US)),
    "symcore.project_affine.calls": ("count", "calls"),
    "symcore.orthogonalize.us": ("us", ("per_call", _US)),
    "symcore.eig_failures": ("count", "ratio"),
    "symcore.from_basis.us": ("us", ("per_call", _US)),
    "symcore.from_basis.calls": ("count", "calls"),
    "slowcurve.curve_point.us": ("us", ("per_call", _US)),
    "slowcurve.curve_point.calls": ("count", "calls"),
    "slowcurve.valid_t_max.ms": ("ms", ("per_call", _MS)),
    "slowcurve.residual_order_certified.ms": ("ms", ("per_call", _MS)),
    "slowcurve.tube_check.s": ("s", ("per_call", _S)),
    "slowcurve.perturb_gain.us": ("us", ("per_call", _US)),
    "planes.build_plane.us": ("us", ("per_call", _US)),
    "planes.build_plane.calls": ("count", "calls"),
    "planes.plucker_coords.us": ("us", ("per_call", _US)),
    "series.det_series.ms": ("ms", ("per_call", _MS)),
    "series.w_recursion_defect.ms": ("ms", ("per_call", _MS)),
    "rates.fit_inverse_power.ms": ("ms", ("per_call", _MS)),
    "rates.fit_geometric.ms": ("ms", ("per_call", _MS)),
    "rates.recursive_sequence.ns_per_step": ("ns", "ratio"),
    "catalog.get_example.ms": ("ms", ("per_call", _MS)),
    "verify.checks": ("count", "ratio"),
    "cli.trace_csv.us_per_row": ("us", "ratio"),
    "cli.trace_csv.bytes": ("bytes", "ratio"),
    "cli.main.self_ms": ("ms", "ratio"),
}
# The ten suites of apcone.verify.SUITES.
for _suite in ("prop31", "thm41", "thm62", "thm63", "lemma64", "lemma67",
               "lemma75", "prop76", "lemma77", "plucker"):
    LAYER_METRICS[f"verify.{_suite}.s"] = ("s", ("per_call", _S))
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_frac"] = ("frac", "ratio")
LAYER_METRICS["trace_overhead_frac"] = ("frac", "ratio")

NOTES = (
    "one thread and no queues: no layer waits on another, so every span "
    "is busy time and no wait times are reported",
    "counts marked exact (every .calls count, apengine.run_ap.steps, "
    "verify.checks) repeat exactly at a fixed seed on unchanged code",
    "run_ap calls apcone.kernels directly; on slow_cli and sweep the traced "
    "run replays a fixed sample of each run's own iterates through "
    "symcore.eig_sym, project_psd, project_affine and apengine.ap_step",
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def cap_blas_threads():
    """Cap BLAS and OpenMP pools at the usable CPUs; call before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= n:
            os.environ[var] = str(n)
    return n


def import_apcone():
    """Import apcone from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "apcone" / "__init__.py").is_file():
        raise BenchError(f"no apcone sources under {SRC}; run from the root "
                         "of a source checkout")
    sys.path.insert(0, str(SRC))
    import apcone
    import apcone.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(apcone.__file__).resolve().parent != SRC / "apcone":
        raise BenchError(f"imported apcone from {apcone.__file__}, "
                         f"not from {SRC}")
    return apcone


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _blas_config(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name", "?") + " " + deps[k].get("version", "?")
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        return "unavailable"


def header(seed, nproc):
    import numpy as np

    import apcone

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(np),
        "numba_installed": find_spec("numba") is not None,
        "apcone_using_numba": bool(apcone.USING_NUMBA),
        "blas_thread_caps": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


def setup_probes(workload, seed, count):
    """Set-up times of ``count`` fresh processes that import apcone and
    build the workload's planes and starts: (raw, at reference speed)."""
    from speed import factor

    raw, scaled = [], []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise BenchError("set-up probe failed: " + out.stderr.strip())
        setup, cal = (float(v) for v in out.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup * factor(cal, cal))
    return raw, scaled


@dataclass
class Pass:
    """One pass: raw and reference-speed seconds, AP steps, trajectory
    times at reference speed (ms), and the machine speed factor."""

    wall: float
    scaled: float
    steps: int
    traj_ms: list
    speed: float


def _unit_span(tracer, index):
    """Span around one unit of work; sets the trajectory id of its spans."""
    if tracer is None:
        return nullcontext()
    tracer.traj = index
    return tracer.span("bench.unit")


def one_pass(wl, tracer=None):
    """Run one pass unit by unit, with the calibration before and after
    each unit, then check its outputs outside the timed region (and, when
    traced, replay its sample iterates)."""
    from speed import calibrate, factor

    wl.tracer = tracer
    cals = [calibrate()]
    wall = scaled = 0.0
    steps = 0
    traj_ms = []
    for i, unit in enumerate(wl.units()):
        with _unit_span(tracer, i):
            t0 = time.perf_counter()
            n, inner = unit()
            dt = time.perf_counter() - t0
        cals.append(calibrate())
        f = factor(cals[-2], cals[-1])
        wall += dt
        scaled += dt * f
        steps += n
        traj_ms += [t * g * 1e3 for t, g in ([(dt, f)] if inner is None
                                              else inner)]
    if tracer is None:
        wl.check()
    else:
        with tracer.paused():
            wl.check()
        wl.replay()
    wl.tracer = None
    typical = statistics.median(cals)
    return Pass(wall, scaled, steps, traj_ms, factor(typical, typical))


def run_passes(wl, budget):
    """Repeat untraced passes for about ``budget`` seconds: another pass
    starts while it is expected to end nearer to the budget than stopping
    now would."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(wl))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2.0 >= budget:
            return passes


def run_traced(wl, budget, tracer):
    """Alternate untraced and traced passes for about ``budget`` seconds,
    so that drifts in machine speed affect both sides alike."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(one_pass(wl))
        tracer.install()
        try:
            traced.append(one_pass(wl, tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) / 2.0 >= budget:
            return untraced, traced


def tail_percentile(samples):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def _percentile(samples, p):
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=float), p))


def e2e_metrics(passes, setup, wl):
    traj_ms = [t for p in passes for t in p.traj_ms]
    attempted = len(wl.checks)
    failed = sum(1 for _, ok in wl.checks if not ok)
    values = {
        "setup_s": statistics.median(setup[1]),
        "wall_s": statistics.median(p.scaled for p in passes),
        "ap_steps_per_s": statistics.median(p.steps / p.scaled
                                            for p in passes),
        "traj_ms.p50": _percentile(traj_ms, 50),
        "traj_ms.p90": _percentile(traj_ms, 90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }
    samples = {"wall_s": [p.scaled for p in passes],
               "raw_wall_s": [p.wall for p in passes],
               "speed": [p.speed for p in passes],
               "traj_ms": traj_ms,
               "setup_s": setup[1], "raw_setup_s": setup[0]}
    return values, samples


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics from the spans of the traced passes.  Span times
    are raw wall times."""
    import numpy as np

    from tracer import self_times

    n_passes = len(traced)

    nid, t0, t1, parent, _ = tracer.as_arrays()
    names = tracer.names
    dur = t1 - t0
    calls = np.bincount(nid, minlength=len(names))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    index = {name: i for i, name in enumerate(names)}
    counts = tracer.counts

    def n_calls(name):
        return int(calls[index[name]]) if name in index else 0

    def total_s(name):
        return float(total[index[name]]) if name in index else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    # Self time per layer over the timed passes only: spans under a
    # bench.unit root, not the replay that follows each traced pass.
    root = np.empty(len(nid), dtype=np.int64)
    for i, p in enumerate(parent):
        root[i] = i if p < 0 else root[p]
    unit_id = index.get("bench.unit", -1)
    in_pass = nid[root] == unit_id
    own = self_times(names, nid[in_pass], t0[in_pass], t1[in_pass],
                     _reindex(parent, in_pass))
    pass_time = sum(p.wall for p in traced)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, secs in own.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += secs

    steps = counts["apengine.run_ap.steps"]
    values = {
        "apengine.run_ap.us_per_step":
            ratio(total_s("apengine.run_ap"), steps) * 1e6,
        "apengine.run_ap.steps": steps / n_passes,
        "apengine.run_ap.rank1_share":
            ratio(counts["apengine.run_ap.rank1_rows"],
                  counts["apengine.run_ap.rows"]),
        "symcore.eig_failures": counts["symcore.eig_failures"] / n_passes,
        "rates.recursive_sequence.ns_per_step":
            ratio(total_s("rates.recursive_sequence"),
                  counts["rates.recursive_sequence.steps"]) * 1e9,
        "verify.checks": counts["verify.checks"] / n_passes,
        "cli.trace_csv.us_per_row":
            ratio(total_s("cli.trace_csv"), counts["cli.trace_csv.rows"])
            * 1e6,
        "cli.trace_csv.bytes":
            ratio(counts["cli.trace_csv.bytes"], n_calls("cli.trace_csv")),
        "cli.main.self_ms":
            ratio(own.get("cli.main", 0.0), n_calls("cli.main")) * 1e3,
        "trace_overhead_frac":
            statistics.median(p.scaled for p in traced)
            / statistics.median(p.scaled for p in untraced) - 1.0,
    }
    for layer in LAYERS:
        values[f"{layer}.self_frac"] = ratio(layer_self[layer], pass_time)
    for name, (_, kind) in LAYER_METRICS.items():
        if kind == "calls":
            values[name] = n_calls(name.rsplit(".", 1)[0]) / n_passes
        elif kind != "ratio":
            span = name.rsplit(".", 1)[0]
            values[name] = ratio(total_s(span), n_calls(span)) * kind[1]
    return values


def _reindex(parent, keep):
    """Parent indices after keeping only the spans where ``keep`` holds
    (a kept span's parent is always kept: it shares the span's root)."""
    import numpy as np

    new_index = np.cumsum(keep) - 1
    sub = parent[keep]
    return np.where(sub >= 0, new_index[np.maximum(sub, 0)], -1)


def measure(workload, seed, seconds, trace, size, workdir, probes):
    """Run one benchmark measurement; returns the full result record."""
    from tracer import Tracer
    from workloads import WORKLOADS

    setup = (setup_probes(workload, seed, probes)
             if probes and not trace else None)
    wl = WORKLOADS[workload](seed, size, workdir)
    wl.prepare()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace}
    if not trace:
        values, samples = e2e_metrics(run_passes(wl, seconds), setup, wl)
        units = E2E_METRICS
    else:
        tracer = Tracer()
        untraced, traced = run_traced(wl, seconds, tracer)
        values = layer_metrics(tracer, traced, untraced)
        samples = {"wall_s": [p.scaled for p in untraced],
                   "traced_wall_s": [p.scaled for p in traced],
                   "raw_wall_s": [p.wall for p in untraced],
                   "speed": [p.speed for p in untraced + traced]}
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        record["spans"] = len(tracer.spans)
        record["tracer"] = tracer
    record.update({
        "attempted": len(wl.checks),
        "failed": sum(1 for _, ok in wl.checks if not ok),
        "failed_checks": sorted({label for label, ok in wl.checks if not ok}),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "samples": samples,
    })
    return record


def report_lines(record):
    """Human-readable summary printed before the JSON line."""
    lines = []
    m = record["metrics"]
    samples = record["samples"]
    for name, entry in m.items():
        lines.append(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for key in ("wall_s", "traced_wall_s", "traj_ms", "setup_s",
                "raw_wall_s", "raw_setup_s", "speed"):
        vals = samples.get(key)
        if not vals:
            continue
        p = tail_percentile(vals)
        tail = (f", p{p} {_percentile(vals, p):.6g}" if p
                else ", too few samples for a tail percentile")
        lines.append(f"# {key}: median {statistics.median(vals):.6g}{tail} "
                     f"(n={len(vals)})")
    failed, attempted = record["failed"], record["attempted"]
    lines.append(f"# fail_frac = {failed / attempted:.6g} "
                 f"({failed} of {attempted} checks failed)")
    for label in record["failed_checks"]:
        lines.append(f"# FAILED: {label}")
    if record["trace"]:
        exact = [n for n in m if n.endswith(".calls")
                 or n in ("apengine.run_ap.steps", "verify.checks")]
        lines.append("# exact at a fixed seed: " + ", ".join(exact))
        lines.append(f"# spans recorded: {record['spans']}")
        for note in NOTES:
            lines.append(f"# note: {note}")
    return lines


def result_line(record):
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    nproc = cap_blas_threads()
    args = parse_args(argv)
    try:
        import_apcone()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import FULL

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        head = header(args.seed, nproc)
        print("# header " + json.dumps(head))
        record = measure(args.workload, args.seed, args.seconds, args.trace,
                         FULL, workdir, SETUP_PROBES)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    record["header"] = head
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in report_lines(record):
        print(line)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
