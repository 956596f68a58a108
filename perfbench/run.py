"""proxdyn benchmark: time the package from outside, one workload per run.

    python3 perfbench/run.py --workload fig1_n2 --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. The load
is a closed loop: one process, one thread, one operation at a time. With
``--trace 0`` the run repeats untraced passes over the workload for about
``--seconds`` seconds and reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics.
Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread, also inside numpy

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fig1_n2", "presets_rest", "conditions_scan")
SETUP_PROBES = 5


def _import_package():
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
    try:
        import proxdyn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import proxdyn from {SRC}: {exc}")
    if not os.path.abspath(proxdyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: proxdyn imported from {proxdyn.__file__}, not from {SRC}")


_import_package()

import numpy as np  # noqa: E402
from proxdyn import dynamics, objectives, runconfig  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


# ------------------------------------------------------------------ workloads


class PresetWorkload:
    """Preset runs through execute_run with SVG on; the seed changes nothing."""

    def __init__(self, name, names, refs, outdir):
        self.name = name
        self.ops = wl.preset_ops(names)
        self.refs = refs
        self.outdir = outdir

    def run(self, op):
        return wl.run_preset(op, self.outdir)

    def check(self, i, op, res, state):
        state["err"] = max(state.get("err", 0.0),
                           wl.endpoint_error(res.summary, self.refs["endpoints"]["runs"][op.name]))
        return wl.check_preset(op, res, self.refs, state.setdefault("fig6", {}))

    def configs(self):
        return [runconfig.build_system(op.rc)[0] for op in self.ops]


class ScanWorkload:
    """Seeded condition-family draws; no integration."""

    def __init__(self, seed, refs):
        self.name = "conditions_scan"
        self.ops = wl.scan_draws(seed)
        scan_ref = refs["verdicts"]
        self.ref_rows = scan_ref["scan"] if seed == scan_ref["scan_seed"] else None

    def run(self, draw):
        return wl.run_draw(draw)

    def check(self, i, draw, res, state):
        return wl.check_draw(draw, res, None if self.ref_rows is None else self.ref_rows[i])

    def configs(self, count=16):
        inside = [draw for draw in self.ops if draw.kind == "in"][:count]
        return [runconfig.build_system(wl.draw_config(d, wl.suggest(d.family, *d.search)))[0]
                for d in inside]


def make_workload(name: str, seed: int, outdir: str):
    refs = wl.load_references()
    if name == "fig1_n2":
        return PresetWorkload(name, ["fig1/n2"], refs, outdir)
    if name == "presets_rest":
        return PresetWorkload(name, [n for n in wl.PRESET_NAMES if n != "fig1/n2"], refs, outdir)
    return ScanWorkload(seed, refs)


# ------------------------------------------------------------------- passes


@dataclass
class Pass:
    wall: float = 0.0  # summed operation time, checks and speed probe excluded
    scaled: float = 0.0  # the same, speed-corrected
    latencies: list = field(default_factory=list)  # per operation, speed-corrected
    attempted: int = 0
    failed: int = 0
    err: float = 0.0  # worst endpoint error
    layers: dict = field(default_factory=dict)
    tracer: object = None


def run_pass(workload, probe, tracer=None) -> Pass:
    """One pass over every operation; failures are counted, never raised."""
    out, state = Pass(), {}
    scope = tracing.install(tracer) if tracer is not None else contextlib.nullcontext()
    with scope:
        for i, op in enumerate(workload.ops):
            out.attempted += 1
            since, start = time.perf_counter(), probe.clock()
            try:
                res = workload.run(op)
                failure = None
            except Exception:  # an operation's failure is a result, not a crash
                failure = traceback.format_exc()
            dt = probe.clock() - start
            scaled = dt * probe.scale(since)
            out.wall += dt
            out.scaled += scaled
            out.latencies.append(scaled)
            if failure is not None:
                out.failed += 1
                _report(workload, op, failure)
                continue
            try:
                problems = workload.check(i, op, res, state)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                out.failed += 1
                _report(workload, op, "; ".join(problems))
    out.err = state.get("err", 0.0)
    if tracer is not None:
        out.layers, out.tracer = tracing.layer_metrics(tracer), tracer
    return out


def _report(workload, op, text):
    label = getattr(op, "name", None) or f"{op.family}/{op.kind}"
    print(f"perfbench: {workload.name}: {label} failed: {text}", file=sys.stderr)


def _fits(started, seconds, spent):
    return time.perf_counter() - started + statistics.median(spent) <= seconds


def measure(workload, seconds: float, trace: bool):
    """Untraced passes for ``seconds``, or untraced/traced pairs when tracing."""
    plain, traced, started = [], [], time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            plain.append(run_pass(workload, probe))
            if trace:
                traced.append(run_pass(workload, probe, tracing.Tracer()))
            spent = [a.wall + b.wall for a, b in zip(plain, traced)] if trace \
                else [p.wall for p in plain]
            if not _fits(started, seconds, spent):
                return plain, traced


# -------------------------------------------------------------- micro-timing


def _per_call_us(fn, calls: int, reps: int = 7) -> float:
    """Median over reps of the mean time per call of a tight loop, in µs."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(times)


def micro_timings(configs, target_calls: int = 3000) -> dict:
    """µs per call of the public RHS, prox and scalar schedule evaluation,
    at t0, mid-horizon and the horizon of each of the workload's configs."""
    points = []
    for cfg in configs:
        rhs = dynamics.rhs_beta_zero if cfg.beta == 0.0 else dynamics.rhs_beta_positive
        aux = dynamics.initial_aux(cfg)
        for t in (cfg.t0, 0.5 * (cfg.t0 + cfg.horizon), cfg.horizon):
            points.append((cfg, rhs, t, aux, float(cfg.schedule.lam(t))))
    k = max(1, target_calls // len(points))
    calls = k * len(points)

    def rhs_loop():
        for cfg, rhs, t, aux, _ in points:
            for _ in range(k):
                rhs(cfg, t, cfg.x0, aux)

    def prox_loop():
        for cfg, _, _, _, lam in points:
            for _ in range(k):
                objectives.prox(cfg.objective, lam, cfg.x0)

    def eval_loop():
        for cfg, _, t, _, _ in points:
            s = cfg.schedule
            for _ in range(k):
                float(s.b(t)), float(s.lam(t)), float(s.eps(t))

    return {"dynamics.rhs.us": _per_call_us(rhs_loop, calls),
            "objectives.prox.us": _per_call_us(prox_loop, calls),
            "schedules.eval.us": _per_call_us(eval_loop, calls)}


# ------------------------------------------------------------------- report

# name -> unit; the order the human-readable table prints them in
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_err_digits": "digits",
              "draw_ms.p50": "ms", "draw_ms.p99": "ms"}
PER_LAYER_UNITS = {"s": "s", "self_s": "s", "us": "us", "calls": "count", "bytes": "B",
                   "accepted": "count", "rejected": "count", "nfev": "count",
                   "reject_ratio": "ratio", "checks_per_search": "count", "overhead_s": "s"}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Median wall time of fresh processes that import, build and load, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(plain, setup_s: float) -> dict:
    """Times are speed-corrected (see speed.py); draw_ms.* are each pass's
    latency percentiles, median over the passes."""
    err = max(p.err for p in plain)  # 0 when nothing is integrated: digits cap at 2^-52
    return {
        "wall_s": statistics.median(p.scaled for p in plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_err_digits": -math.log10(max(err, 2.0 ** -52)),
        "draw_ms.p50": 1e3 * statistics.median(np.percentile(p.latencies, 50) for p in plain),
        "draw_ms.p99": 1e3 * statistics.median(np.percentile(p.latencies, 99) for p in plain),
    }


def per_layer(plain, traced, micro: dict) -> dict:
    out = {key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers}
    out.update(micro)
    out["trace.overhead_s"] = statistics.median(b.scaled - a.scaled for a, b in zip(plain, traced))
    return out


def run_benchmark(workload, seconds: float, trace: bool, setup_s: float = math.nan,
                  spans_path: str = None) -> dict:
    plain, traced = measure(workload, seconds, trace)
    if spans_path is not None and traced:
        tracing.write(spans_path, [p.tracer for p in traced])
    if trace:
        metrics = per_layer(plain, traced, micro_timings(workload.configs()))
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(plain, setup_s)
        units = END_TO_END
    attempted = sum(p.attempted for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    print(f"workload {workload.name}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(workload.ops)} operations, {attempted} operations in all")
    print(f"  untraced pass time {statistics.median(p.wall for p in plain):.6g} s raw, "
          f"{statistics.median(p.scaled for p in plain):.6g} s speed-corrected (median)")
    print(f"  {'fail_ratio':<45} {failed / attempted:.6g} ({failed}/{attempted})")
    for key, value in metrics.items():
        print(f"  {key:<45} {value:.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proxdyn benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the workload and exit; used to time set-up")
    args = parser.parse_args(argv)

    outdir = os.path.join(HERE, f".work-{os.getpid()}")
    workload = make_workload(args.workload, args.seed, outdir)
    if args.setup_only:
        return 0
    setup_s = math.nan if args.trace else measure_setup(args.workload, args.seed)
    try:
        spans = os.path.join(HERE, ".traces", f"{args.workload}-{args.seed}.jsonl")
        result = run_benchmark(workload, args.seconds, bool(args.trace), setup_s, spans)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
