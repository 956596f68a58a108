"""Span tracer that wraps the package's module bindings from outside.

``install(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which the package's layers call each other, so a
call made through any of them records a span (name, start, end, parent) or
bumps a counter. Spans stay in memory; ``layer_metrics`` turns them into
per-layer totals and self times when the pass is over, and ``write``
saves them when the run ends. Every wrapper
returns exactly what the wrapped function returns, so a traced run computes
the same numbers as an untraced one.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import json
import os
import time

from proxdyn import csvio, diagnostics, dynamics, runconfig, schedules, svgplot


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def file_bytes(self, name, fn):
        """Count the size of the file that fn(path, ...) writes."""
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.counts[name] += os.path.getsize(path)
            return out
        return wrapper

    def step_stats(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            traj = fn(*args, **kwargs)
            for key in ("accepted", "rejected", "nfev"):
                self.counts[f"dynamics.{key}"] += getattr(traj.stats, key)
            return traj
        return wrapper

    def counting_objective(self, fn):
        """Wrap an objective factory so every prox evaluation, by any caller, counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obj = fn(*args, **kwargs)
            return dataclasses.replace(obj, prox=self.counter("objectives.prox.calls", obj.prox))
        return wrapper


# span name -> the (namespace, attribute) bindings its calls go through
SPANS = {
    "runconfig.execute_run": [(runconfig, "execute_run")],
    "runconfig.build_system": [(runconfig, "build_system")],
    "schedules.validate": [(schedules.SystemConfig, "validate")],
    "dynamics.integrate": [(runconfig, "integrate"), (dynamics, "integrate")],
    "schedules.suggest_t0": [(schedules, "suggest_t0"), (schedules, "suggest_t0_strong"),
                             (schedules, "suggest_t0_alpha3")],
    "schedules.check": [(schedules, "check_fast_rate_conditions"),
                        (schedules, "check_strong_conv_conditions"),
                        (schedules, "check_alpha3_conditions")]
                       # execute_run picks its checker from this table
                       + [(runconfig._CHECKERS, key) for key in runconfig._CHECKERS],
    "diagnostics.compute_observables": [(runconfig, "compute_observables"),
                                        (csvio, "compute_observables"),
                                        (diagnostics, "compute_observables")],
    "diagnostics.energy_series": [(csvio, "energy_q_series"),
                                  (csvio, "unanchored_energy_series")],
    "diagnostics.check_energy_descent": [(runconfig, "check_energy_descent")],
    "diagnostics.strong_convergence_metrics": [(runconfig, "strong_convergence_metrics")],
    "diagnostics.fit_rate_slope": [(runconfig, "fit_rate_slope")],
    "csvio.table_from_trajectory": [(csvio, "table_from_trajectory")],
    "csvio.write_csv": [(csvio, "write_csv")],
    "svgplot.line_chart": [(svgplot, "line_chart")],
}


def _get(space, key):
    return space[key] if isinstance(space, dict) else getattr(space, key)


def _set(space, key, value):
    if isinstance(space, dict):
        space[key] = value
    else:
        setattr(space, key, value)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Route the package's layer boundaries through tracer for the block."""
    extra = {
        (diagnostics, "energy_q"): lambda fn: tracer.counter("diagnostics.energy_q.calls", fn),
        (runconfig, "make_objective"): tracer.counting_objective,
    }
    saved = []

    def patch(space, key, make):
        original = _get(space, key)
        saved.append((space, key, original))
        _set(space, key, make(original))

    try:
        for name, bindings in SPANS.items():
            for space, key in bindings:
                patch(space, key, functools.partial(tracer.span, name))
        for (space, key), make in extra.items():
            patch(space, key, make)
        patch(runconfig, "integrate", tracer.step_stats)
        patch(csvio, "write_csv", functools.partial(tracer.file_bytes, "csvio.bytes"))
        patch(svgplot, "line_chart", functools.partial(tracer.file_bytes, "svgplot.bytes"))
        yield tracer
    finally:
        for space, key, original in reversed(saved):
            _set(space, key, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals, self times and counts from one traced pass."""
    total = collections.Counter()
    self_time = collections.Counter()
    calls = collections.Counter()
    children = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    checks_under_search = collections.Counter()
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        total[name] += end - start
        self_time[name] += end - start - children[i]
        calls[name] += 1
        if name == "schedules.check" and parent >= 0 \
                and tracer.spans[parent][0] == "schedules.suggest_t0":
            checks_under_search[parent] += 1
    c = tracer.counts
    attempted = c["dynamics.accepted"] + c["dynamics.rejected"]
    searches = len(checks_under_search)
    return {
        "dynamics.integrate.s": total["dynamics.integrate"],
        "dynamics.fev.us": 1e6 * total["dynamics.integrate"] / max(c["dynamics.nfev"], 1),
        "dynamics.accepted": c["dynamics.accepted"],
        "dynamics.rejected": c["dynamics.rejected"],
        "dynamics.nfev": c["dynamics.nfev"],
        "dynamics.reject_ratio": c["dynamics.rejected"] / max(attempted, 1),
        "objectives.prox.calls": c["objectives.prox.calls"],
        "schedules.check.s": total["schedules.check"],
        "schedules.check.calls": calls["schedules.check"],
        "schedules.suggest_t0.s": total["schedules.suggest_t0"],
        "schedules.suggest_t0.calls": calls["schedules.suggest_t0"],
        "schedules.escalation.checks_per_search":
            sum(checks_under_search.values()) / max(searches, 1),
        "schedules.validate.s": total["schedules.validate"],
        "diagnostics.compute_observables.s": total["diagnostics.compute_observables"],
        "diagnostics.compute_observables.calls": calls["diagnostics.compute_observables"],
        "diagnostics.energy_series.s": total["diagnostics.energy_series"],
        "diagnostics.energy_q.calls": c["diagnostics.energy_q.calls"],
        "diagnostics.check_energy_descent.self_s": self_time["diagnostics.check_energy_descent"],
        "diagnostics.strong_convergence_metrics.self_s":
            self_time["diagnostics.strong_convergence_metrics"],
        "diagnostics.fit_rate_slope.s": total["diagnostics.fit_rate_slope"],
        "csvio.table_from_trajectory.self_s": self_time["csvio.table_from_trajectory"],
        "csvio.write_csv.s": total["csvio.write_csv"],
        "csvio.bytes": c["csvio.bytes"],
        "svgplot.line_chart.s": total["svgplot.line_chart"],
        "svgplot.bytes": c["svgplot.bytes"],
        "runconfig.build_system.s": total["runconfig.build_system"],
        "runconfig.execute_run.self_s": self_time["runconfig.execute_run"],
    }


def write(path: str, tracers) -> None:
    """Save each traced pass's spans and counts as one JSON line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for tracer in tracers:
            fh.write(json.dumps({"spans": tracer.spans, "counts": tracer.counts}) + "\n")
