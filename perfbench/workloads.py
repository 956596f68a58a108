"""Workload inputs, the operations that run them, and their output checks.

An operation is one preset run (``execute_run`` with SVG on) or one
``conditions_scan`` draw. Running an operation returns its output;
checking the output returns a list of problems, empty when the output is
correct. Both call the package only through its public functions
and module attributes, so the tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from proxdyn import csvio, runconfig, schedules
from proxdyn.errors import InfeasibleError
from proxdyn.schedules import LambdaForm, PolyParams

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
FAMILIES = ("fast", "strong", "alpha3")


# --------------------------------------------------------------- preset runs


@dataclass
class PresetOp:
    name: str  # "fig1/n2"
    fig: str
    flat: dict
    rc: runconfig.RunConfig


@dataclass
class PresetResult:
    summary: runconfig.RunSummary
    table: csvio.TrajectoryTable  # the table execute_run handed to write_csv
    csv_path: str


PRESET_NAMES = [f"{fig}/{flat['label']}" for fig, flats in runconfig.PRESETS.items()
                for flat in flats]


def preset_ops(names):
    """Build the preset operations named "figN/label", in the given order."""
    ops = []
    for name in names:
        fig, label = name.split("/")
        (flat,) = [f for f in runconfig.preset_runs(fig) if f["label"] == label]
        ops.append(PresetOp(name, fig, flat, runconfig.config_from_flat(flat)))
    return ops


def run_preset(op: PresetOp, outdir: str):
    """Run one preset through execute_run with SVG on."""
    captured = {}
    write = csvio.write_csv

    def capture(path, table):
        captured["path"], captured["table"] = path, table
        return write(path, table)

    csvio.write_csv = capture
    try:
        summary = runconfig.execute_run(op.rc, os.path.join(outdir, op.fig), svg=True)
    finally:
        csvio.write_csv = write
    return PresetResult(summary, captured["table"], captured["path"])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _final_state(summary) -> np.ndarray:
    return np.array([float(v) for part in ("x", "xdot")
                     for v in summary.final[part].split(",")])


def endpoint_error(summary, ref: dict) -> float:
    """|(x, xdot) - ref| / max(|ref|, 1e-3) at the horizon."""
    want = np.array(ref["x"] + ref["xdot"], dtype=float)
    got = _final_state(summary)
    return float(np.linalg.norm(got - want) / max(float(np.linalg.norm(want)), 1e-3))


def check_preset(op: PresetOp, res: PresetResult, refs: dict, seen: dict) -> list:
    """Problems with one preset run's outputs; ``seen`` carries fig6 endpoints
    across the operations of one pass for the criterion-5 ordering."""
    problems = []
    back = csvio.read_csv(res.csv_path)
    arrays = [("t", back.ts, res.table.ts), ("x", back.xs, res.table.xs),
              ("xdot", back.xdots, res.table.xdots)]
    arrays += [(k, back.scalars[k], res.table.scalars[k]) for k in res.table.scalars]
    problems += [f"csv column {k} does not read back bit-exactly"
                 for k, got, want in arrays if not _same_bits(got, want)]

    rows = verdict_rows(res.summary.condition_report)
    if _canon(rows) != _canon(refs["verdicts"]["presets"][op.name]):
        problems.append("condition verdicts differ from the stored reference")

    rc = op.rc
    if op.fig in ("fig1", "fig3"):  # acceptance criterion 3 bounds
        lam_exp = rc.lambda_value if rc.lambda_form == "power" else 0.0
        bounds = {"moreau_gap": -(2.0 + rc.n) + 0.3, "velocity_combo": -0.7,
                  "grad_norm": -(1.0 + rc.n / 2.0 + lam_exp / 2.0) + 0.3}
        fits = {f.quantity: f.slope for f in res.summary.rate_fits}
        for name, bound in bounds.items():
            if not fits.get(name, math.inf) <= bound:
                problems.append(f"rate slope {name} = {fits.get(name)} above {bound:.3g}")

    x_end = _final_state(res.summary)[: len(rc.x0)]
    if op.fig in ("fig4", "fig5"):  # criterion 5 endpoints
        target = 0.0 if rc.eps_coeff > 0.0 else 1.0
        if not abs(float(x_end[0]) - target) <= 0.1:
            problems.append(f"|x(T) - {target:g}| = {abs(float(x_end[0]) - target):.3g} > 0.1")
    if op.fig == "fig6":  # criterion 5 ordering: slower decay ends farther
        seen[rc.d] = float(res.summary.final["dist_to_xstar"])
        done = [seen[d] for d in sorted(seen)]
        if done != sorted(done):
            problems.append(f"fig6 end distances not ordered by d: {done}")
    return problems


# -------------------------------------------------------------- scan draws


@dataclass
class Draw:
    """One scan draw: suggest a start time from ``search``, then build and
    check the configuration ``check`` (each a (params, alpha, beta) triple)."""

    family: str
    kind: str  # "in", "flip_*" or "exhaust_*"
    search: tuple
    check: tuple
    t0: Optional[float] = None  # replaces the suggested start time when set


@dataclass
class DrawResult:
    outcome: str  # "checked" or "infeasible"
    rows: object  # verdict rows of the three families, or the error text
    reports: Optional[list] = None


def _box_fast(rng):
    alpha = rng.uniform(3.2, 8.0)
    n = rng.uniform(0.0, 0.9 * (alpha - 3.0))
    beta = rng.uniform(0.0, 2.0)
    params = PolyParams(b_coeff=rng.uniform(0.5, 3.0), n=n,
                        eps_coeff=rng.uniform(0.0, 2.0), d=rng.uniform(2.05, 4.0),
                        lam=LambdaForm("constant", rng.uniform(0.5, 2.0)))
    return params, alpha, beta


def _box_strong(rng):
    alpha = rng.uniform(3.2, 6.0)
    n = rng.uniform(0.0, 0.9 * (alpha - 3.0) / 3.0)
    beta = rng.uniform(0.0, 1.0)
    params = PolyParams(b_coeff=rng.uniform(1.05, 2.5), n=n,
                        eps_coeff=rng.uniform(0.2, 2.0), d=rng.uniform(1.05, 1.8),
                        lam=LambdaForm("constant", rng.uniform(0.5, 2.0)))
    return params, alpha, beta


def _box_alpha3(rng):
    beta = rng.uniform(0.0, 1.0)
    lam = (LambdaForm("constant", rng.uniform(0.5, 2.0)) if rng.uniform() < 0.5
           else LambdaForm("bounded", rng.uniform(0.5, 2.0)))
    params = PolyParams(b_coeff=rng.uniform(1.05, 2.5), n=0.0,
                        eps_coeff=rng.uniform(0.2, 2.0), d=rng.uniform(1.05, 1.8), lam=lam)
    return params, 3.0, beta


_BOXES = {"fast": _box_fast, "strong": _box_strong, "alpha3": _box_alpha3}


def _violate(family: str, kind: str, box: tuple):
    """The (params, alpha, beta, t0) of a draw that leaves its box by ``kind``."""
    p, alpha, beta = box
    power = LambdaForm("power", 1.0)
    strong_n = (alpha - 3.0) / 3.0 * 1.5 + 0.05
    table = {
        ("fast", "n"): (replace(p, n=alpha - 3.0 + 0.2), alpha, beta, None),
        ("fast", "d"): (replace(p, eps_coeff=max(p.eps_coeff, 0.5), d=1.8), alpha, beta, None),
        ("fast", "alpha"): (p, 2.9, beta, None),
        ("fast", "window"): (replace(p, eps_coeff=3.0, d=2.5), alpha, 2.0, 1.0),
        ("strong", "n"): (replace(p, n=strong_n), alpha, beta, None),
        ("strong", "d_light"): (replace(p, d=2.5), alpha, beta, None),
        ("strong", "d_heavy"): (replace(p, d=0.9), alpha, beta, None),
        ("strong", "lam"): (replace(p, lam=power), alpha, beta, None),
        ("strong", "b"): (replace(p, b_coeff=0.9, n=0.0), alpha, max(beta, 0.5), None),
        ("strong", "alpha"): (p, 2.9, beta, None),
        ("alpha3", "d"): (replace(p, d=2.2), alpha, beta, None),
        ("alpha3", "b"): (replace(p, b_coeff=0.9), alpha, 0.0, None),
        ("alpha3", "alpha"): (p, 3.2, beta, None),
        ("alpha3", "lam"): (replace(p, lam=power), alpha, beta, None),
    }
    return table[(family, kind)]


# (family, kind, count) per seed: 156 of 200 draws inside their box, 36 that
# leave it and flip a verdict at the in-box start time, and 8 whose start-time
# search itself exhausts its 80 checks and raises InfeasibleError. An exhausted
# search costs as much as 20-50 in-box draws, so the 4% of them set draw_ms.p99.
MIX = (
    [(f, "in", 52) for f in FAMILIES]
    + [("fast", f"flip_{k}", 4) for k in ("n", "d", "alpha", "window")]
    + [("strong", f"flip_{k}", 2) for k in ("n", "d_light", "d_heavy", "lam", "b", "alpha")]
    + [("alpha3", f"flip_{k}", 2) for k in ("d", "b", "alpha", "lam")]
    + [("strong", f"exhaust_{k}", 2) for k in ("n", "lam")]
    + [("alpha3", f"exhaust_{k}", 2) for k in ("d", "b")]
)


def scan_draws(seed: int) -> list:
    """The seed's draws: every kind in MIX with its count, in seeded order."""
    rng = np.random.default_rng(seed)
    draws = []
    for family, kind, count in MIX:
        for _ in range(count):
            box = _BOXES[family](rng)
            if kind == "in":
                draws.append(Draw(family, kind, box, box))
                continue
            p, alpha, beta, t0 = _violate(family, kind.split("_", 1)[1], box)
            bad = (p, alpha, beta)
            search = bad if kind.startswith("exhaust") else box
            draws.append(Draw(family, kind, search, bad, t0))
    order = rng.permutation(len(draws))
    return [draws[i] for i in order]


def suggest(family: str, params, alpha, beta) -> float:
    if family == "fast":
        return schedules.suggest_t0(params, alpha, beta, slack=0.05)
    if family == "strong":
        return schedules.suggest_t0_strong(params, alpha, beta)
    return schedules.suggest_t0_alpha3(params, beta)


def checkers():
    """The three condition families, looked up at call time so wrappers apply."""
    return (schedules.check_fast_rate_conditions, schedules.check_strong_conv_conditions,
            schedules.check_alpha3_conditions)


def draw_config(draw: Draw, t0: float) -> runconfig.RunConfig:
    p, alpha, beta = draw.check
    return runconfig.RunConfig(
        label="draw", alpha=alpha, beta=beta, t0=t0, horizon=100.0 * t0, x0=(1.0,),
        xdot0=(0.0,), b_coeff=p.b_coeff, n=p.n, eps_coeff=p.eps_coeff, d=p.d,
        lambda_form=p.lam.kind, lambda_value=p.lam.value, setting=draw.family)


def run_draw(draw: Draw) -> DrawResult:
    """suggest_t0*, then build_system with its validation, then all three
    condition families on the built configuration. No integration."""
    try:
        t0 = suggest(draw.family, *draw.search)
    except InfeasibleError as exc:
        return DrawResult("infeasible", {"infeasible": str(exc)})
    if draw.t0 is not None:
        t0 = draw.t0
    cfg, _ = runconfig.build_system(draw_config(draw, t0))
    query = cfg.query()
    reports = [check(query) for check in checkers()]
    return DrawResult("checked", [verdict_rows(r) for r in reports], reports)


def check_draw(draw: Draw, res: DrawResult, ref_rows=None) -> list:
    """Problems with one draw's outcome; ref_rows is its stored reference."""
    problems = []
    if draw.kind.startswith("exhaust"):
        if res.outcome != "infeasible":
            problems.append("start-time search did not raise InfeasibleError")
    elif res.outcome != "checked":
        problems.append(f"unexpected InfeasibleError: {res.rows['infeasible']}")
    else:
        own = res.reports[FAMILIES.index(draw.family)]
        if draw.kind == "in" and not own.all_pass:
            problems.append(f"in-box {draw.family} draw fails {own.failed()}")
        if draw.kind.startswith("flip") and own.all_pass:
            problems.append(f"{draw.family} {draw.kind} draw flips no verdict")
    if ref_rows is not None and _canon(res.rows) != _canon(ref_rows):
        problems.append("verdicts differ from the stored default-seed reference")
    return problems


# --------------------------------------------------------------- references


def verdict_rows(report) -> list:
    return [[v.condition, bool(v.passed), float(v.margin)] for v in report.verdicts]


def _canon(rows) -> str:
    # json writes floats with repr, so equal text means bit-equal margins
    return json.dumps(rows)


def load_references() -> dict:
    refs = {}
    for part in ("endpoints", "verdicts"):
        with open(os.path.join(HERE, f"ref_{part}.json")) as fh:
            refs[part] = json.load(fh)
    return refs
