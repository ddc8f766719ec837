"""The benchmark's three workloads, each a closed loop with one caller.

A workload makes its inputs from the seed in ``prepare``.  One pass is the
list of units of work ``units()`` returns; the runner times each unit, and
``check`` then checks the pass's outputs.  Workloads reach apcone only
through public functions and the CLI entry point, always looked up on the
module at call time, so the tracer's wrappers see every call.

- ``slow_cli`` runs ``apcone example ex6.1 --start slowest-curve:0.1`` in
  process: the paper's k^(-1/6) experiment, one long trajectory whose PSD
  projections all have rank 1, written to a CSV file.  It is deterministic;
  the seed is not used.
- ``sweep`` runs many short trajectories, one per plane, each with its
  per-plane set-up and its rate fit: seeded type2 planes started on the
  slowest curve, seeded type1 planes from random starts (these also give
  rank-2 projections), and the catalog's geometric-rate instances.
- ``verify_all`` runs the ten verify suites at the seed.  It never calls
  ``run_ap``, so a change to the trajectory engine should leave it alone.
"""

import io
import os
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from functools import partial

import numpy as np

from speed import calibrate, factor
from tracer import rebind

@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does."""

    cli_iters: int = 10000
    sweep_type2: int = 24
    sweep_type1: int = 16
    sweep_steps: int = 500
    suites: tuple = None      # None: every suite in apcone.verify.SUITES


FULL = Size()
TINY = Size(cli_iters=300, sweep_type2=2, sweep_type1=2, sweep_steps=60,
            suites=("prop31", "lemma64", "lemma67", "prop76", "plucker"))

# Late-window 1/dist^6 slope of the slow_cli trajectory, window
# [iters // 2, iters], keyed by iteration count.  Measured on the code the
# benchmark was introduced with (Jacobi eigensolver); any eigensolver that
# agrees with it to the stated relative tolerance passes.
SLOW_CLI_SLOPE = {10000: 0.005092120563544062, 300: 0.005103196342101923}
SLOW_CLI_SLOPE_RTOL = 1e-4

# (example, variant, fit window end, fit window start, analytic ratio,
#  absolute tolerance) for the catalog's geometric-rate instances, from the
# paper's Examples 3.2-3.4.  A window also ends at the last positive
# distance: the Jacobi eigensolver returns exactly 0 from k=28 on ex3.2 neg,
# where LAPACK keeps contracting.
CATALOG = (
    ("ex3.2", "neg", 30, 5, 1.0 / 3.0, 1e-3),
    ("ex3.3", "pos", 18, 2, 0.8, 1e-6),
    ("ex3.3", "neg", 14, 2, 0.2, 1e-6),
    ("ex3.4", None, 40, 10, 0.75, 0.0075),
)
CATALOG_ITERS = 40

# Relative slack allowed when checking that the distance to U* never grows
# (Fejer monotonicity of alternating projections): a few rounding errors.
FEJER_RTOL = 1e-12


def fejer_ok(dists):
    d = np.asarray(dists, dtype=float)
    return bool(np.all(d[1:] <= d[:-1] * (1.0 + FEJER_RTOL)))


def _last_positive(dists):
    return int(np.max(np.nonzero(np.asarray(dists) > 0.0)))


class Workload:
    """A unit returns ``(ap_steps, trajectories)``: ``trajectories`` lists
    the (seconds, speed factor) of each trajectory run inside the unit, or
    is None when the unit itself is one trajectory."""

    name = ""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.tracer = None        # set by the runner for traced passes
        self.checks = []          # (label, passed) over the whole run

    def record(self, label, passed):
        self.checks.append((label, bool(passed)))

    def prepare(self):
        """Make the workload's inputs from the seed (cheap)."""

    def build(self):
        """Build every plane and start the workload uses (set-up probe)."""

    def units(self):
        raise NotImplementedError

    def check(self):
        """Check the outputs of the last pass."""

    def replay(self):
        """Traced runs only: extra per-call samples on the pass's inputs."""


class SlowCli(Workload):
    name = "slow_cli"

    def prepare(self):
        self.csv_path = os.path.join(self.workdir, "slow_cli.csv")
        self.argv = ["example", "ex6.1", "--start", "slowest-curve:0.1",
                     "--iters", str(self.size.cli_iters),
                     "--out", self.csv_path]
        self.last_trace = None

    def build(self):
        from apcone import catalog, slowcurve

        inst = catalog.get_example("ex6.1")
        return inst.plane.coefficients(
            slowcurve.curve_point(inst.spec, 0.1).G)

    def units(self):
        return [self._cli_run]

    def _cli_run(self):
        import apcone.cli

        out = io.StringIO()
        with redirect_stdout(out):
            self.code = apcone.cli.main(self.argv)
        self.stdout = out.getvalue()
        if self.tracer is not None:
            self.last_trace = self.tracer.last_trace
        return self.size.cli_iters, None

    def check(self):
        from apcone import rates

        n = self.size.cli_iters
        self.record("slow_cli exit code 0", self.code == 0)
        self.record("slow_cli summary reports all iterations",
                    f"iterations={n} " in self.stdout)
        written = os.path.isfile(self.csv_path)
        self.record("slow_cli CSV written", written)
        if not written:
            return
        with open(self.csv_path) as fh:
            cols = rates.parse_trace_csv(fh.read())
        dists = cols.get("dist", np.empty(0))
        rows_ok = (len(dists) == n + 1
                   and np.array_equal(cols["k"], np.arange(n + 1)))
        self.record("slow_cli CSV has iters+1 rows", rows_ok)
        if not rows_ok:
            return
        self.record("slow_cli Fejer monotone", fejer_ok(dists))
        slope = rates.fit_inverse_power(dists, 6, (n // 2, n)).slope
        ref = SLOW_CLI_SLOPE[n]
        self.record("slow_cli late 1/dist^6 slope",
                    abs(slope - ref) <= SLOW_CLI_SLOPE_RTOL * abs(ref))

    def replay(self):
        if self.last_trace is not None:
            _replay(self.tracer, self.last_trace.plane,
                    self.last_trace.sample_coeffs)


@dataclass(frozen=True)
class _Plane:
    kind: str          # "type2" | "type1" | "catalog"
    spec: object       # PlaneSpec, or a row of CATALOG
    start: object = None


class Sweep(Workload):
    name = "sweep"

    def prepare(self):
        from apcone import planes, verify

        rng = np.random.RandomState(self.seed)
        plist = [_Plane("type2", verify.random_type2_spec(rng))
                 for _ in range(self.size.sweep_type2)]
        for _ in range(self.size.sweep_type1):
            c = tuple(rng.uniform(-1.0, 1.0, 8))
            spec = planes.PlaneSpec("type1", c,
                                    mu=float(rng.uniform(0.2, 2.0)))
            plist.append(_Plane("type1", spec, rng.uniform(-0.5, 0.5, 3)))
        plist += [_Plane("catalog", row) for row in CATALOG]
        self.planes = plist
        self.outputs = []

    @staticmethod
    def _setup(plane):
        """Per-plane set-up: (affine plane, start coefficients, target)."""
        from apcone import catalog, planes, slowcurve, verify

        if plane.kind == "catalog":
            inst = catalog.get_example(plane.spec[0], plane.spec[1])
            return inst.plane, inst.start, inst.target
        E, _ = planes.build_plane(plane.spec)
        if plane.kind == "type1":
            return E, plane.start, None
        t0 = verify.curve_probe_t(plane.spec)
        return E, E.coefficients(slowcurve.curve_point(plane.spec, t0).G), None

    def build(self):
        return [self._setup(p) for p in self.planes]

    def units(self):
        self.outputs = []
        return [partial(self._trajectory, plane) for plane in self.planes]

    def _trajectory(self, plane):
        from apcone import apengine, rates

        E, p0, target = self._setup(plane)
        if plane.kind == "catalog":
            trace = apengine.run_ap(E, p0, CATALOG_ITERS, 0.0, target=target)
            _, _, end, start, _, _ = plane.spec
            end = min(end, _last_positive(trace.dists))
            fit = rates.fit_geometric(trace, (start, end))
        else:
            n = self.size.sweep_steps
            trace = apengine.run_ap(E, p0, n, 0.0)
            power = 6 if plane.kind == "type2" else 2
            end = min(n, _last_positive(trace.dists))
            fit = rates.fit_inverse_power(trace, power, (end // 2, end))
        self.outputs.append((plane, E, trace, fit))
        return len(trace) - 1, None

    def check(self):
        for i, (plane, _, trace, fit) in enumerate(self.outputs):
            self.record(f"sweep trajectory {i} ({plane.kind}) Fejer monotone",
                        fejer_ok(trace.dists))
            if plane.kind == "catalog":
                ident, variant, _, _, ratio, tol = plane.spec
                self.record(f"sweep {ident} {variant or ''} geometric ratio",
                            abs(fit.ratio - ratio) <= tol)

    def replay(self):
        # A fixed sample of each trajectory's own iterates: 4 per plane.
        for i, (_, E, trace, _) in enumerate(self.outputs):
            self.tracer.traj = i
            _replay(self.tracer, E, trace.sample_coeffs, per_trajectory=4)


class VerifyAll(Workload):
    name = "verify_all"

    def prepare(self):
        self.results = []

    def build(self):
        import apcone.verify  # noqa: F401

    def units(self):
        from apcone import verify

        self.results = []
        return [partial(self._suite, suite)
                for suite in self.size.suites or verify.SUITES]

    def _suite(self, suite):
        from apcone import verify

        span = (nullcontext() if self.tracer is None
                else self.tracer.span(f"verify.{suite}"))
        with _StepProbe() as probe, span:
            rows = verify.run_suite(suite, self.seed)
        if self.tracer is not None:
            self.tracer.counts["verify.checks"] += len(rows)
        self.results.append((suite, rows))
        return probe.steps, probe.tube_s

    def check(self):
        for suite, rows in self.results:
            for row in rows:
                self.record(f"{suite}: {row.label}", row.passed)


class _StepProbe:
    """Counts AP steps the verify suites take and times their trajectories.

    The suites take AP steps through ``apengine.ap_step`` and run their
    only multi-step trajectories in ``slowcurve.tube_check`` (prop76).  The
    call counter costs well under a microsecond per call, against about
    150 us for one step.  Each timed trajectory (about a second) is
    bracketed by the speed calibration, outside its own timed region but
    inside the suite's, which adds about 25 ms to a verify_all pass.
    """

    def __enter__(self):
        from apcone import apengine, slowcurve

        self.steps = 0
        self.tube_s = []
        self._step = apengine.ap_step
        self._tube = slowcurve.tube_check

        def ap_step(*args, **kwargs):
            self.steps += 1
            return self._step(*args, **kwargs)

        def tube_check(*args, **kwargs):
            if not (kwargs.get("t0", 0.0) > 0.0 and kwargs.get("steps", 0)):
                return self._tube(*args, **kwargs)
            before = calibrate()
            t0 = time.perf_counter()
            out = self._tube(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.tube_s.append((elapsed, factor(before, calibrate())))
            return out

        self._wrapped = (ap_step, tube_check)
        rebind(self._step, ap_step)
        rebind(self._tube, tube_check)
        return self

    def __exit__(self, *exc):
        rebind(self._wrapped[0], self._step)
        rebind(self._wrapped[1], self._tube)
        return False


def _replay(tracer, E, coeffs, per_trajectory=None):
    """Feed a fixed sample of a run's own iterates through symcore and one
    AP step, so the per-call costs of those functions are measured on the
    workload's inputs even though ``run_ap`` does not call them."""
    from apcone import apengine, symcore

    coeffs = np.asarray(coeffs)
    if per_trajectory is not None and len(coeffs) > per_trajectory:
        idx = np.linspace(0, len(coeffs) - 1, per_trajectory).astype(int)
        coeffs = coeffs[idx]
    with tracer.span("bench.replay"):
        for p in coeffs:
            U = E.point(p)
            symcore.eig_sym(U)
            V, _ = symcore.project_psd(U)
            symcore.project_affine(E, V)
            apengine.ap_step(E, U)


WORKLOADS = {cls.name: cls for cls in (SlowCli, Sweep, VerifyAll)}
