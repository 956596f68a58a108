"""Run configuration: flat key=value files, presets, and run execution.

A run is described by a flat text config with dotted section prefixes::

    label = demo
    objective.name = abs_plus_quad
    system.alpha = 10
    system.t0 = 1.4
    system.horizon = 140
    system.x0 = 10
    schedule.n = 1

Unknown keys are rejected. Presets bundle the figure experiments as lists
of such flat dicts; execute_run integrates one config and writes its
trajectory CSV, summary document and optional SVG charts into a per-label
directory. run_from_flat is the picklable entry point sweep workers use.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

# execute_run calls through these bindings: perfbench/tracing.py patches them by name
from . import csvio, svgplot
from .diagnostics import (check_energy_descent, compute_observables, fit_rate_slope,
                          strong_convergence_metrics)
from .dynamics import IntegratorSettings, integrate
from .errors import InsufficientDataError, ParameterDomainError, ValidationError
from .objectives import BUILTIN_NAMES, make_objective
from .schedules import (LambdaForm, PolyParams, SystemConfig, _check_energy_index,
                        _energy_index, check_alpha3_conditions, check_fast_rate_conditions,
                        check_strong_conv_conditions, energy_descent_start,
                        polynomial_schedule)

__all__ = [
    "RunConfig",
    "RunSummary",
    "PRESETS",
    "parse_config_text",
    "parse_config_file",
    "parse_overrides",
    "config_from_flat",
    "build_system",
    "build_run",
    "execute_run",
    "run_from_flat",
    "preset_runs",
]

_SETTINGS = ("fast", "strong", "alpha3")


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines; # starts a comment, blanks are skipped."""
    flat = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValidationError(f"line {lineno}: empty key or value")
        if key in flat:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        flat[key] = value
    return flat


def parse_config_file(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def parse_overrides(pairs) -> dict:
    """Parse repeated --set key=value flags."""
    flat = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--set expects key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if not key or not value:
            raise ValidationError(f"--set expects key=value, got {pair!r}")
        flat[key] = value
    return flat


def _as_float(key):
    def conv(s):
        try:
            return float(s)
        except ValueError:
            raise ValidationError(f"{key}: expected a number, got {s!r}") from None
    return conv


def _as_int(key):
    def conv(s):
        try:
            return int(s)
        except ValueError:
            raise ValidationError(f"{key}: expected an integer, got {s!r}") from None
    return conv


def _as_vector(key):
    def conv(s):
        try:
            return tuple(float(part) for part in s.split(","))
        except ValueError:
            raise ValidationError(f"{key}: expected comma-separated numbers, got {s!r}") from None
    return conv


def _as_choice(key, choices):
    def conv(s):
        if s not in choices:
            raise ValidationError(f"{key}: expected one of {choices}, got {s!r}")
        return s
    return conv


def _as_str(key):
    return lambda s: s


@dataclass
class RunConfig:
    """Typed view of one flat run config."""

    label: str = "run"
    objective_name: str = "abs_plus_quad"
    objective_dim: int = None
    objective_c: float = None
    objective_z: tuple = None
    objective_lo: float = None
    objective_hi: float = None
    alpha: float = None
    beta: float = 0.0
    t0: float = None
    horizon: float = None
    x0: tuple = None
    xdot0: tuple = None
    lambda_floor: float = 1e-8
    b_coeff: float = 1.0
    n: float = 0.0
    eps_coeff: float = 1.0
    d: float = 3.0
    lambda_form: str = "constant"
    lambda_value: float = 1.0
    method: str = "rk45_adaptive"
    rtol: float = 1e-8
    atol: float = 1e-10
    fixed_step: float = 1e-3
    sample_stride: int = 1
    max_step: float = np.inf
    energy_q: float = None
    descent_a: float = 2.0
    setting: str = "fast"
    notes: tuple = ()


# config key -> (RunConfig attribute, converter factory)
_KEYS = {
    "label": ("label", _as_str),
    "notes": ("notes", lambda key: lambda s: tuple(part.strip() for part in s.split(";") if part.strip())),
    "objective.name": ("objective_name", lambda key: _as_choice(key, BUILTIN_NAMES)),
    "objective.dim": ("objective_dim", _as_int),
    "objective.c": ("objective_c", _as_float),
    "objective.z": ("objective_z", _as_vector),
    "objective.lo": ("objective_lo", _as_float),
    "objective.hi": ("objective_hi", _as_float),
    "system.alpha": ("alpha", _as_float),
    "system.beta": ("beta", _as_float),
    "system.t0": ("t0", _as_float),
    "system.horizon": ("horizon", _as_float),
    "system.x0": ("x0", _as_vector),
    "system.xdot0": ("xdot0", _as_vector),
    "system.lambda_floor": ("lambda_floor", _as_float),
    "schedule.b_coeff": ("b_coeff", _as_float),
    "schedule.n": ("n", _as_float),
    "schedule.eps_coeff": ("eps_coeff", _as_float),
    "schedule.d": ("d", _as_float),
    "schedule.lambda_form": ("lambda_form", lambda key: _as_choice(key, ("constant", "power", "bounded"))),
    "schedule.lambda_value": ("lambda_value", _as_float),
    "integrator.method": ("method", lambda key: _as_choice(key, ("rk45_adaptive", "rk4_fixed"))),
    "integrator.rtol": ("rtol", _as_float),
    "integrator.atol": ("atol", _as_float),
    "integrator.fixed_step": ("fixed_step", _as_float),
    "integrator.sample_stride": ("sample_stride", _as_int),
    "integrator.max_step": ("max_step", _as_float),
    "diagnostics.energy_q": ("energy_q", _as_float),
    "diagnostics.descent_a": ("descent_a", _as_float),
    "diagnostics.setting": ("setting", lambda key: _as_choice(key, _SETTINGS)),
}

_REQUIRED = ("system.alpha", "system.t0", "system.horizon", "system.x0")


def config_from_flat(flat: dict) -> RunConfig:
    unknown = sorted(set(flat) - set(_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED if key not in flat]
    if missing:
        raise ValidationError(f"missing required config keys: {', '.join(missing)}")
    rc = RunConfig()
    for key, value in flat.items():
        attr, conv_factory = _KEYS[key]
        setattr(rc, attr, conv_factory(key)(value))
    if rc.xdot0 is None:
        rc.xdot0 = tuple(0.0 for _ in rc.x0)
    return rc


def _objective_of(rc: RunConfig):
    params = {}
    if rc.objective_dim is not None:
        params["dim"] = rc.objective_dim
    if rc.objective_c is not None:
        params["c"] = rc.objective_c
    if rc.objective_z is not None:
        z = rc.objective_z
        params["z"] = z[0] if len(z) == 1 else z
    if rc.objective_lo is not None:
        params["lo"] = rc.objective_lo
    if rc.objective_hi is not None:
        params["hi"] = rc.objective_hi
    return make_objective(rc.objective_name, **params)


def build_system(rc: RunConfig):
    """Turn a RunConfig into a validated (SystemConfig, IntegratorSettings) pair."""
    obj = _objective_of(rc)
    lam = LambdaForm(rc.lambda_form, rc.lambda_value)
    params = PolyParams(b_coeff=rc.b_coeff, n=rc.n, eps_coeff=rc.eps_coeff, d=rc.d, lam=lam)
    schedule = polynomial_schedule(params, rc.t0)
    cfg = SystemConfig(objective=obj, schedule=schedule, alpha=rc.alpha, beta=rc.beta,
                       t0=rc.t0, x0=rc.x0, xdot0=rc.xdot0, horizon=rc.horizon,
                       lambda_floor=rc.lambda_floor)
    cfg.validate()
    if rc.energy_q is not None:
        _check_energy_index(rc.energy_q, rc.alpha)
    settings = IntegratorSettings(method=rc.method, rtol=rc.rtol, atol=rc.atol,
                                  fixed_step=rc.fixed_step, sample_stride=rc.sample_stride,
                                  max_step=rc.max_step)
    settings.validate()
    return cfg, settings


def build_run(rc: RunConfig):
    """build_system plus what only a simulation needs: the energy-descent
    check's start time must exist for diagnostics.descent_a (a >= 1 and
    b(t0) a > 1), so a bad a fails before integrating, not after.  Condition
    checks build with build_system alone, since a is not part of them."""
    cfg, settings = build_system(rc)
    q = _energy_index(rc.energy_q, rc.alpha)
    if q is not None:
        energy_descent_start(cfg, q, rc.descent_a)
    return cfg, settings


_CHECKERS = {
    "fast": check_fast_rate_conditions,
    "strong": check_strong_conv_conditions,
    "alpha3": check_alpha3_conditions,
}


@dataclass
class RunSummary:
    """Everything a completed run reports, serialized by to_text."""

    label: str
    config_echo: dict
    condition_report: object
    final: dict
    rate_fits: list
    descent_text: str
    strong_text: str
    wall_time: float
    notes: tuple = ()

    def to_text(self) -> str:
        lines = [f"run {self.label}", "=" * (4 + len(self.label)), ""]
        for key in sorted(self.config_echo):
            lines.append(f"{key} = {self.config_echo[key]}")
        lines += ["", f"conditions ({self.condition_report.setting})",
                  "-" * 24, self.condition_report.format(), ""]
        lines += ["final state", "-" * 11]
        for key, value in self.final.items():
            lines.append(f"{key} = {value}")
        lines += ["", "rate fits", "-" * 9]
        if self.rate_fits:
            lines += [fit.format() for fit in self.rate_fits]
        else:
            lines.append("(no fit: too few decaying samples)")
        lines += ["", "energy descent", "-" * 14, self.descent_text]
        lines += ["", "strong convergence", "-" * 18, self.strong_text]
        if self.notes:
            lines += ["", "notes", "-" * 5]
            lines += [f"- {note}" for note in self.notes]
        lines += ["", f"wall time: {self.wall_time:.2f} s", ""]
        return "\n".join(lines)


def _fit_or_none(ts, values, theory, name):
    try:
        return fit_rate_slope(ts, values, theory_slope=theory, quantity=name)
    except InsufficientDataError:
        return None


def _grad_theory_slope(rc: RunConfig) -> float:
    l = rc.lambda_value if rc.lambda_form == "power" else 0.0
    return -(1.0 + rc.n / 2.0 + l / 2.0)


def execute_run(rc: RunConfig, outdir, svg: bool = True) -> RunSummary:
    """Integrate one config and write csv/summary/svg files under outdir/label."""
    cfg, settings = build_run(rc)
    start = time.perf_counter()
    traj = integrate(cfg, settings)
    report = _CHECKERS[rc.setting](cfg.query())
    obs = compute_observables(traj, rc.energy_q)
    table = csvio.table_from_trajectory(obs)

    final = {"t": "%.17g" % traj.ts[-1]}
    final["x"] = ", ".join("%.17g" % v for v in traj.xs[-1])
    final["xdot"] = ", ".join("%.17g" % v for v in traj.xdots[-1])
    for name in ("moreau_gap", "function_gap", "grad_norm", "dist_to_xstar", "tikhonov_gap"):
        final[name] = "%.17g" % getattr(obs, name)[-1]

    fits = []
    for name, theory in (("moreau_gap", -(2.0 + rc.n)),
                         ("velocity_combo", -1.0),
                         ("grad_norm", _grad_theory_slope(rc))):
        fit = _fit_or_none(obs.ts, getattr(obs, name), theory, name)
        if fit is not None:
            fits.append(fit)

    if obs.q is not None:
        try:
            descent_text = check_energy_descent(obs, rc.descent_a).format()
        except InsufficientDataError as exc:
            descent_text = f"(not checked: {exc})"
    else:
        descent_text = "(not defined: alpha leaves no admissible q)"
    strong_text = strong_convergence_metrics(obs).format()
    wall = time.perf_counter() - start

    run_dir = os.path.join(os.fspath(outdir), rc.label)
    os.makedirs(run_dir, exist_ok=True)
    csvio.write_csv(os.path.join(run_dir, "trajectory.csv"), table)
    summary = RunSummary(label=rc.label, config_echo=_echo(rc), condition_report=report,
                         final=final, rate_fits=fits, descent_text=descent_text,
                         strong_text=strong_text, wall_time=wall, notes=rc.notes)
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(summary.to_text())
    if svg:
        rate_series = [(name, obs.ts, getattr(obs, name))
                       for name in ("moreau_gap", "grad_norm", "velocity_combo")]
        svgplot.line_chart(os.path.join(run_dir, "rates.svg"), rate_series,
                           title=f"{rc.label}: decay of the envelope observables",
                           xlabel="t", ylabel="value", xscale="log", yscale="log")
        traj_series = [(f"x_{i}", traj.ts, traj.xs[:, i]) for i in range(cfg.objective.dim)]
        svgplot.line_chart(os.path.join(run_dir, "trajectory.svg"), traj_series,
                           title=f"{rc.label}: state trajectory",
                           xlabel="t", ylabel="x", xscale="linear", yscale="linear")
    return summary


def _echo(rc: RunConfig) -> dict:
    echo = {}
    for key, (attr, _) in _KEYS.items():
        value = getattr(rc, attr)
        if value is None:
            continue
        if isinstance(value, tuple):
            if not value:
                continue
            value = "; ".join(str(v) for v in value) if key == "notes" else ", ".join(
                "%g" % v for v in value)
        echo[key] = value
    return echo


def run_from_flat(flat: dict, outdir, svg: bool = True) -> dict:
    """Picklable worker entry: parse, run, and report where files landed."""
    rc = config_from_flat(flat)
    summary = execute_run(rc, outdir, svg=svg)
    return {"label": rc.label, "wall_time": summary.wall_time}


# experiment presets; each is a list of flat configs, one per run
_FAST_BASE = {
    "objective.name": "abs_plus_quad",
    "system.alpha": "10",
    "system.beta": "0",
    "system.t0": "1.4",
    "system.horizon": "140",
    "system.x0": "10",
    "system.xdot0": "0",
    "schedule.b_coeff": "1",
    "schedule.eps_coeff": "1",
    "schedule.d": "3",
    "schedule.lambda_form": "constant",
    "schedule.lambda_value": "1",
    "integrator.rtol": "1e-8",
    "diagnostics.setting": "fast",
}

_TIKHONOV_BASE = {
    "objective.name": "dist_to_interval",
    "system.alpha": "6",
    "system.beta": "1",
    "system.t0": "1.4",
    "system.horizon": "280",
    "system.x0": "2",
    "system.xdot0": "0",
    "schedule.b_coeff": "1",
    "schedule.n": "0.7",
    "schedule.lambda_form": "constant",
    "schedule.lambda_value": "1",
    "integrator.rtol": "1e-8",
    "diagnostics.setting": "strong",
    "notes": "assumption: the experiment family does not pin the initial state, "
             "so x0 = 2 with xdot0 = 0 starts just outside the solution set in "
             "the basin of the boundary minimizer",
}


def _runs(base, variations):
    out = []
    for extra in variations:
        flat = dict(base)
        flat.update(extra)
        out.append(flat)
    return out


PRESETS = {
    # growth exponent sweep: faster-growing b gives a faster envelope gap
    "fig1": _runs(_FAST_BASE, [
        {"label": "n0", "schedule.n": "0"},
        {"label": "n1", "schedule.n": "1"},
        {"label": "n2", "schedule.n": "2"},
    ]),
    # smoothing growth sweep; the ordering is a transient, visible early on,
    # so this preset uses a short horizon
    "fig2": _runs(_FAST_BASE, [
        {"label": "l0", "schedule.n": "0", "system.horizon": "7",
         "schedule.lambda_form": "power", "schedule.lambda_value": "0",
         "notes": "horizon 7 keeps the comparison inside the window where the "
                  "smoothing-growth ordering is visible"},
        {"label": "l1", "schedule.n": "0", "system.horizon": "7",
         "schedule.lambda_form": "power", "schedule.lambda_value": "1",
         "notes": "horizon 7 keeps the comparison inside the window where the "
                  "smoothing-growth ordering is visible"},
        {"label": "l2", "schedule.n": "0", "system.horizon": "7",
         "schedule.lambda_form": "power", "schedule.lambda_value": "2",
         "notes": "horizon 7 keeps the comparison inside the window where the "
                  "smoothing-growth ordering is visible"},
    ]),
    # regularization decay sweep: d barely moves the envelope gap
    "fig3": _runs(_FAST_BASE, [
        {"label": "d2_5", "schedule.n": "0", "schedule.d": "2.5"},
        {"label": "d3", "schedule.n": "0", "schedule.d": "3"},
        {"label": "d3_5", "schedule.n": "0", "schedule.d": "3.5"},
    ]),
    # with and without the vanishing-regularization term, constant smoothing
    "fig4": _runs(_TIKHONOV_BASE, [
        {"label": "no_tikhonov", "schedule.eps_coeff": "0", "schedule.d": "1.5"},
        {"label": "tikhonov", "schedule.eps_coeff": "1", "schedule.d": "1.5"},
    ]),
    # same comparison under bounded increasing smoothing 1 - 1/t
    "fig5": _runs(_TIKHONOV_BASE, [
        {"label": "no_tikhonov", "schedule.eps_coeff": "0", "schedule.d": "1.5",
         "schedule.lambda_form": "bounded", "schedule.lambda_value": "1"},
        {"label": "tikhonov", "schedule.eps_coeff": "1", "schedule.d": "1.5",
         "schedule.lambda_form": "bounded", "schedule.lambda_value": "1"},
    ]),
    # regularization decay sweep in the strong-convergence regime
    "fig6": _runs(_TIKHONOV_BASE, [
        {"label": "d1_1", "schedule.eps_coeff": "1", "schedule.d": "1.1",
         "schedule.lambda_form": "bounded", "schedule.lambda_value": "1"},
        {"label": "d1_5", "schedule.eps_coeff": "1", "schedule.d": "1.5",
         "schedule.lambda_form": "bounded", "schedule.lambda_value": "1"},
        {"label": "d1_9", "schedule.eps_coeff": "1", "schedule.d": "1.9",
         "schedule.lambda_form": "bounded", "schedule.lambda_value": "1"},
    ]),
}


def preset_runs(name: str):
    try:
        runs = PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}") from None
    return [dict(flat) for flat in runs]
