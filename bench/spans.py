"""Span tracing of bilq's layers from outside the package.

The tracer wraps public functions by rebinding every name under which a
``bilq`` module holds them (``bilq.sim.kf_step``, ``bilq.control.
bellman_objective_Tm2``, ...), so calls between modules and calls inside a
module both pass through the wrapper.  Each call becomes a span
``(name, start, end, parent, extra)`` kept in memory; self time is a
span's duration minus the time its child spans cover.  Uninstalling puts
the original objects back, so traced and untraced passes can alternate in
one process.  A target that no longer exists is reported as absent.
"""

import importlib
import os
import sys
import time
from contextlib import contextmanager


def _normals_requested(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _minimizer_p(args, kwargs, result):
    bp = args[0] if args else kwargs["bp"]
    return bp.sys.p


def _oracle_steps(args, kwargs, result):
    inputs = args[2] if len(args) > 2 else kwargs["inputs"]
    return len(inputs)


# (span name, module, attribute path, extra recorded per call)
TARGETS = (
    ("core.sample_gaussian", "bilq.core", "sample_gaussian", None),
    ("core.RngStream.standard_normal", "bilq.core", "RngStream.standard_normal",
     _normals_requested),
    ("core.observation_matrix", "bilq.core", "observation_matrix", None),
    ("kalman.kf_step", "bilq.kalman", "kf_step", None),
    ("kalman.grid_bayes_oracle", "bilq.kalman", "grid_bayes_oracle", _oracle_steps),
    ("control.riccati_recursion", "bilq.control", "riccati_recursion", None),
    ("control.lqg_policy", "bilq.control", "lqg_policy", None),
    ("control.bellman_minimize_Tm2", "bilq.control", "bellman_minimize_Tm2",
     _minimizer_p),
    ("control.bellman_objective_Tm2", "bilq.control", "bellman_objective_Tm2", None),
    ("control.scalar_critical_points", "bilq.control", "scalar_critical_points", None),
    ("control.scalar_optimal_controller_T2", "bilq.control",
     "scalar_optimal_controller_T2", None),
    ("observability.gramian", "bilq.observability", "gramian", None),
    ("observability.check_proposition1", "bilq.observability",
     "check_proposition1", None),
    ("observability.covariance_boundedness_probe", "bilq.observability",
     "covariance_boundedness_probe", None),
    ("presets.orthogonal_config", "bilq.presets", "orthogonal_config", None),
    ("sim.monte_carlo", "bilq.sim", "monte_carlo", None),
    ("sim.rollout", "bilq.sim", "rollout", None),
    ("sim.aggregate_percentiles", "bilq.sim", "aggregate_percentiles", None),
    ("sim.write_trajectory_csv", "bilq.sim", "write_trajectory_csv", _file_size),
    ("sim.write_summary_csv", "bilq.sim", "write_summary_csv", _file_size),
)


def _extra(extra, args, kwargs, result):
    """The per-call extra, or None when the call's arguments no longer fit it."""
    if extra is None:
        return None
    try:
        return extra(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError, OSError):
        return None


class Tracer:
    """Records spans while installed; a no-op otherwise."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._restore = []

    @property
    def active(self):
        return bool(self._restore)

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, _extra(extra, args, kwargs, result))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every target in every loaded bilq module that holds it."""
        if self.active:
            return
        absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bilq" or key.startswith("bilq."))]
        for name, module_name, attr, extra in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            wrapper = self._wrap(name, original, extra)
            holders = [owner] if owner_name else [
                m for m in modules if getattr(m, leaf, None) is original]
            for holder in holders:
                setattr(holder, leaf, wrapper)
                self._restore.append((holder, leaf, original))
        self.absent = absent

    def uninstall(self):
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore = []

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code (a pass, a command)."""
        if not self.active:
            yield
            return
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, None)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


class LayerStats:
    """Per-name totals over the spans of one or more passes."""

    def __init__(self, keep_samples=()):
        self.keep_samples = frozenset(keep_samples)
        self.calls = {}
        self.incl_s = {}
        self.self_s = {}
        self.extras = {}
        self.samples = {}    # name -> [(duration, self time, extra)] per call
        self.nested = {}

    def add(self, spans, nested_pairs=()):
        """Fold in one pass's spans.

        nested_pairs lists (child, ancestor) names whose child calls made
        anywhere below an ancestor span are counted in ``nested``.
        """
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if name in self.keep_samples:
                self.samples.setdefault(name, []).append((dur, own, extra))
            if extra is not None:
                self.extras.setdefault(name, []).append(extra)
        for child, ancestor in nested_pairs:
            count = 0
            for name, _, _, parent, _ in spans:
                if name != child:
                    continue
                while parent >= 0 and spans[parent][0] != ancestor:
                    parent = spans[parent][3]
                count += parent >= 0
            self.nested[(child, ancestor)] = self.nested.get((child, ancestor), 0) + count


def write_spans(path, spans):
    """One JSON object per line: id, name, start, end (seconds), parent id."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, extra) in enumerate(spans):
            fh.write('{"id": %d, "name": "%s", "start": %.9f, "end": %.9f, '
                     '"parent": %d}\n' % (i, name, start, end, parent))
