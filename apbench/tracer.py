"""Spans around apcone's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``apcone`` module that holds a reference to it, so a name imported
directly (``from .symcore import project_psd`` in ``verify``, ``slowcurve``
and ``apengine``) is traced as well as the module attribute.
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory and
written once, when the run ends.

The run is one thread with no queues, so no layer ever waits on another:
every span is busy time, and a layer's self time is its spans' durations
minus the parts covered by their child spans.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function) pairs timed in a traced run.  ``apcone.kernels`` is not
# traced directly: its work is timed through the symcore and apengine
# functions that call it, so the metric names do not depend on it.
TRACED = {
    "symcore": ("eig_sym", "project_psd", "project_affine", "orthogonalize"),
    "apengine": ("run_ap", "ap_step", "eigenvalue_formula_step",
                 "rank_one_step_residual"),
    "slowcurve": ("curve_point", "valid_t_max", "residual_order_certified",
                  "tube_check", "perturb_gain"),
    "planes": ("build_plane", "plucker_coords"),
    "series": ("det_series", "w_recursion_defect"),
    "rates": ("fit_inverse_power", "fit_geometric", "recursive_sequence"),
    "catalog": ("get_example",),
    "cli": ("main", "trace_csv"),
}
# Functions that raise symcore.EigenSolverError when the eigensolver fails.
_EIG_CALLERS = ("symcore.eig_sym", "symcore.project_psd", "apengine.run_ap")


def rebind(original, replacement):
    """Point every apcone module attribute bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "apcone"
                                  or name.startswith("apcone.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder.

    A span is ``(name_id, start, end, parent, traj)``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``traj`` the id of the
    unit of work (trajectory, CLI run or suite) it belongs to.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.traj = -1
        self.counts = defaultdict(float)   # extra per-call quantities
        self.last_trace = None             # last APTrace run_ap returned
        self._rebound = []                 # (original, wrapper) pairs
        self._from_basis = None            # original classmethod
        self._eig_error = ()
        self.enabled = True

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, nid, parent, t0, t1):
        self._stack.pop()
        self.spans[idx] = (nid, t0, t1, parent, self.traj)

    @contextmanager
    def paused(self):
        """Calls made inside the block are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def span(self, name):
        """Context manager recording a span for the benchmark's own code."""
        return _Span(self, self._name_id(name))

    def wrap(self, name, fn):
        nid = self._name_id(name)
        counts = self.counts
        note = _NOTES.get(name)
        eig_error = self._eig_error if name in _EIG_CALLERS else ()
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except eig_error:
                counts["symcore.eig_failures"] += 1
                raise
            finally:
                self._close(idx, nid, parent, t0, clock())
            if note is not None:
                note(self, args, kwargs, out)
            return out

        return traced

    def install(self):
        import apcone.cli  # noqa: F401  (imports every traced module)
        from apcone.symcore import AffineSubspace, EigenSolverError

        self._eig_error = EigenSolverError
        for layer, funcs in TRACED.items():
            module = sys.modules[f"apcone.{layer}"]
            for func in funcs:
                original = getattr(module, func)
                wrapped = self.wrap(f"{layer}.{func}", original)
                rebind(original, wrapped)
                self._rebound.append((original, wrapped))
        self._from_basis = AffineSubspace.__dict__["from_basis"]
        AffineSubspace.from_basis = classmethod(
            self.wrap("symcore.from_basis", self._from_basis.__func__))

    def uninstall(self):
        from apcone.symcore import AffineSubspace

        for original, wrapped in reversed(self._rebound):
            rebind(wrapped, original)
        self._rebound = []
        if self._from_basis is not None:
            AffineSubspace.from_basis = self._from_basis
            self._from_basis = None

    def as_arrays(self):
        """Spans as parallel numpy arrays (name, start, end, parent, traj);
        call once every span has closed."""
        nid, t0, t1, parent, traj = zip(*self.spans)
        return (np.array(nid, dtype=np.int32), np.array(t0), np.array(t1),
                np.array(parent, dtype=np.int64),
                np.array(traj, dtype=np.int64))

    def save(self, path):
        nid, t0, t1, parent, traj = self.as_arrays()
        np.savez_compressed(path, names=np.array(self.names), name=nid,
                            start=t0, end=t1, parent=parent, traj=traj)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx, self.parent = self.tracer._open()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.nid, self.parent, self.t0,
                           time.perf_counter())
        return False


# --- per-call quantities read off arguments and results --------------------

def _note_run_ap(tracer, args, kwargs, trace):
    tracer.counts["apengine.run_ap.steps"] += len(trace) - 1
    tracer.counts["apengine.run_ap.rank1_rows"] += int(
        np.count_nonzero(trace.psd_ranks == 1))
    tracer.counts["apengine.run_ap.rows"] += len(trace)
    tracer.last_trace = trace


def _note_trace_csv(tracer, args, kwargs, text):
    tracer.counts["cli.trace_csv.rows"] += len(args[0])
    tracer.counts["cli.trace_csv.bytes"] += len(text)


def _note_recursive_sequence(tracer, args, kwargs, out):
    n = kwargs["n"] if "n" in kwargs else args[4]
    tracer.counts["rates.recursive_sequence.steps"] += int(n)


_NOTES = {
    "apengine.run_ap": _note_run_ap,
    "cli.trace_csv": _note_trace_csv,
    "rates.recursive_sequence": _note_recursive_sequence,
}


def self_times(names, nid, t0, t1, parent):
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    dur = t1 - t0
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    out = {}
    for i, name in enumerate(names):
        sel = nid == i
        if np.any(sel):
            out[name] = float(own[sel].sum())
    return out
