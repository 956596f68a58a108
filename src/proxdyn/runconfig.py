"""Run configuration: flat key=value files, presets, and run execution.

A run is described by a flat text config with dotted section prefixes::

    label = demo
    objective.name = abs_plus_quad
    system.alpha = 10
    system.t0 = 1.4
    system.horizon = 140
    system.x0 = 10
    schedule.n = 1

Each key is declared once, on the RunConfig field that holds it; the
fields' metadata give the key table (_KEYS) that parsing and the summary
echo read.  Unknown keys are rejected. Presets bundle the figure
experiments as lists of such flat dicts; execute_run integrates one config
and writes its trajectory CSV, summary document and optional SVG charts
into a per-label directory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields

# execute_run calls through these bindings: perfbench/tracing.py patches them by name
from . import csvio, svgplot
from .diagnostics import (check_energy_descent, compute_observables, fit_rate_slope,
                          strong_convergence_metrics)
from .dynamics import _METHODS, IntegratorSettings, integrate
from .errors import InsufficientDataError, ValidationError
from .objectives import BUILTIN_NAMES, make_objective
from .schedules import (_SMOOTHING_FORMS, LambdaForm, PolyParams, SystemConfig,
                        _check_energy_index, _energy_index, check_alpha3_conditions,
                        check_fast_rate_conditions, check_strong_conv_conditions,
                        energy_descent_start)

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
    "preset_runs",
]

_CHECKERS = {
    "fast": check_fast_rate_conditions,
    "strong": check_strong_conv_conditions,
    "alpha3": check_alpha3_conditions,
}


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


def _parse_value(key: str, kind, text: str):
    """The value of config key from its text.  kind is float, int, str,
    "vector" (comma-separated numbers), "notes" (;-separated) or a tuple of
    the allowed strings."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValidationError(f"{key}: expected one of {kind}, got {text!r}")
        return text
    if kind == "notes":
        if "#" in text:
            # summary.txt echoes the notes, and reading it back drops what follows a #
            raise ValidationError(f"{key}: a note cannot hold '#', got {text!r}")
        return tuple(part.strip() for part in text.split(";") if part.strip())
    try:
        return tuple(float(part) for part in text.split(",")) if kind == "vector" else kind(text)
    except ValueError:
        expected = {float: "a number", int: "an integer",
                    "vector": "comma-separated numbers"}[kind]
        raise ValidationError(f"{key}: expected {expected}, got {text!r}") from None


def _key(key: str, kind, default=None):
    """A RunConfig field read from config key; kind is as for _parse_value."""
    return field(default=default, metadata={"key": key, "kind": kind})


@dataclass
class RunConfig:
    """Typed view of one flat run config.  Each field names its config key
    and the kind _parse_value reads it as."""

    label: str = _key("label", str, "run")
    objective_name: str = _key("objective.name", BUILTIN_NAMES, "abs_plus_quad")
    objective_dim: int = _key("objective.dim", int)
    objective_c: float = _key("objective.c", float)
    objective_z: tuple = _key("objective.z", "vector")
    objective_lo: float = _key("objective.lo", float)
    objective_hi: float = _key("objective.hi", float)
    alpha: float = _key("system.alpha", float)
    beta: float = _key("system.beta", float, 0.0)
    t0: float = _key("system.t0", float)
    horizon: float = _key("system.horizon", float)
    x0: tuple = _key("system.x0", "vector")
    xdot0: tuple = _key("system.xdot0", "vector")
    lambda_floor: float = _key("system.lambda_floor", float, SystemConfig.lambda_floor)
    b_coeff: float = _key("schedule.b_coeff", float, PolyParams.b_coeff)
    n: float = _key("schedule.n", float, PolyParams.n)
    eps_coeff: float = _key("schedule.eps_coeff", float, PolyParams.eps_coeff)
    d: float = _key("schedule.d", float, PolyParams.d)
    lambda_form: str = _key("schedule.lambda_form", _SMOOTHING_FORMS, LambdaForm.kind)
    lambda_value: float = _key("schedule.lambda_value", float, LambdaForm.value)
    method: str = _key("integrator.method", _METHODS, IntegratorSettings.method)
    rtol: float = _key("integrator.rtol", float, IntegratorSettings.rtol)
    atol: float = _key("integrator.atol", float, IntegratorSettings.atol)
    fixed_step: float = _key("integrator.fixed_step", float, IntegratorSettings.fixed_step)
    sample_stride: int = _key("integrator.sample_stride", int, IntegratorSettings.sample_stride)
    max_step: float = _key("integrator.max_step", float, IntegratorSettings.max_step)
    energy_q: float = _key("diagnostics.energy_q", float)
    descent_a: float = _key("diagnostics.descent_a", float, 2.0)
    setting: str = _key("diagnostics.setting", tuple(_CHECKERS), "fast")
    notes: tuple = _key("notes", "notes", ())


# config key -> (RunConfig attribute, kind for _parse_value)
_KEYS = {f.metadata["key"]: (f.name, f.metadata["kind"]) for f in fields(RunConfig)}

_REQUIRED = ("system.alpha", "system.t0", "system.horizon", "system.x0")


def config_from_flat(flat: dict) -> RunConfig:
    unknown = sorted(set(flat) - set(_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED if key not in flat]
    if missing:
        raise ValidationError(f"missing required config keys: {', '.join(missing)}")
    rc = RunConfig()
    for key, text in flat.items():
        attr, kind = _KEYS[key]
        setattr(rc, attr, _parse_value(key, kind, text))
    if rc.xdot0 is None:
        rc.xdot0 = tuple(0.0 for _ in rc.x0)
    return rc


def _objective_of(rc: RunConfig):
    params = {}
    for name in ("dim", "c", "z", "lo", "hi"):
        value = getattr(rc, f"objective_{name}")
        if value is not None:
            params[name] = value[0] if name == "z" and len(value) == 1 else value
    return make_objective(rc.objective_name, **params)


def build_system(rc: RunConfig):
    """Turn a RunConfig into a validated (SystemConfig, IntegratorSettings) pair."""
    obj = _objective_of(rc)
    lam = LambdaForm(rc.lambda_form, rc.lambda_value)
    params = PolyParams(b_coeff=rc.b_coeff, n=rc.n, eps_coeff=rc.eps_coeff, d=rc.d, lam=lam)
    cfg = SystemConfig(objective=obj, schedule=params, alpha=rc.alpha, beta=rc.beta,
                       t0=rc.t0, x0=rc.x0, xdot0=rc.xdot0, horizon=rc.horizon,
                       lambda_floor=rc.lambda_floor)
    if rc.energy_q is not None:
        _check_energy_index(rc.energy_q, rc.alpha)
    settings = IntegratorSettings(method=rc.method, rtol=rc.rtol, atol=rc.atol,
                                  fixed_step=rc.fixed_step, sample_stride=rc.sample_stride,
                                  max_step=rc.max_step)
    return cfg, settings


def build_run(rc: RunConfig):
    """build_system plus what only a simulation needs: the label must name
    one directory inside the output directory, and the energy-descent
    check's start time must exist for diagnostics.descent_a (a >= 1 and
    b(t0) a > 1), so a bad a fails before integrating, not after.  Condition
    checks build with build_system alone, since neither is part of them."""
    if rc.label in ("", ".", "..") or any(sep and sep in rc.label
                                          for sep in ("/", os.sep, os.altsep)):
        raise ValidationError(
            f"label must be a single path component, got {rc.label!r}")
    cfg, settings = build_system(rc)
    q = _energy_index(rc.energy_q, rc.alpha)
    if q is not None:
        energy_descent_start(cfg, q, rc.descent_a)
    return cfg, settings


@dataclass
class RunSummary:
    """Everything a completed run reports, serialized by to_text, plus the
    table it wrote to trajectory.csv."""

    label: str
    config_echo: dict
    condition_report: object
    final: dict
    rate_fits: list
    descent_text: str
    strong_text: str
    wall_time: float
    table: csvio.TrajectoryTable
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
                         strong_text=strong_text, wall_time=wall, table=table,
                         notes=rc.notes)
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(summary.to_text())
    if svg:
        rate_series = [(name, obs.ts, getattr(obs, name))
                       for name in ("moreau_gap", "grad_norm", "velocity_combo")]
        # a run that starts at the minimizer has all-zero rates: nothing for a log axis
        if any((values > 0.0).any() for _, _, values in rate_series):
            svgplot.line_chart(os.path.join(run_dir, "rates.svg"), rate_series,
                               title=f"{rc.label}: decay of the envelope observables",
                               xlabel="t", ylabel="value", xscale="log", yscale="log")
        traj_series = [(f"x_{i}", traj.ts, traj.xs[:, i]) for i in range(cfg.objective.dim)]
        svgplot.line_chart(os.path.join(run_dir, "trajectory.svg"), traj_series,
                           title=f"{rc.label}: state trajectory",
                           xlabel="t", ylabel="x", xscale="linear", yscale="linear")
    return summary


def _echo(rc: RunConfig) -> dict:
    """The set keys of rc as summary.txt echoes them; vectors use %.17g like
    the CSV, so config_from_flat reads the echo back to rc exactly."""
    echo = {}
    for key, (attr, _) in _KEYS.items():
        value = getattr(rc, attr)
        if value is None:
            continue
        if isinstance(value, tuple):
            if not value:
                continue
            value = "; ".join(str(v) for v in value) if key == "notes" else ", ".join(
                "%.17g" % v for v in value)
        echo[key] = value
    return echo


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


# bounded increasing smoothing 1 - 1/t
_BOUNDED = {"schedule.lambda_form": "bounded", "schedule.lambda_value": "1"}


def _runs(base, variations):
    return [{**base, **extra} for extra in variations]


PRESETS = {
    # growth exponent sweep: faster-growing b gives a faster envelope gap
    "fig1": _runs(_FAST_BASE, [
        {"label": "n0", "schedule.n": "0"},
        {"label": "n1", "schedule.n": "1"},
        {"label": "n2", "schedule.n": "2"},
    ]),
    # smoothing growth sweep; the ordering is a transient, visible early on,
    # so this preset uses a short horizon
    "fig2": _runs({**_FAST_BASE, "schedule.n": "0", "system.horizon": "7",
                   "schedule.lambda_form": "power",
                   "notes": "horizon 7 keeps the comparison inside the window where the "
                            "smoothing-growth ordering is visible"}, [
        {"label": "l0", "schedule.lambda_value": "0"},
        {"label": "l1", "schedule.lambda_value": "1"},
        {"label": "l2", "schedule.lambda_value": "2"},
    ]),
    # regularization decay sweep: d barely moves the envelope gap
    "fig3": _runs({**_FAST_BASE, "schedule.n": "0"}, [
        {"label": "d2_5", "schedule.d": "2.5"},
        {"label": "d3", "schedule.d": "3"},
        {"label": "d3_5", "schedule.d": "3.5"},
    ]),
    # with and without the vanishing-regularization term, constant smoothing
    "fig4": _runs({**_TIKHONOV_BASE, "schedule.d": "1.5"}, [
        {"label": "no_tikhonov", "schedule.eps_coeff": "0"},
        {"label": "tikhonov", "schedule.eps_coeff": "1"},
    ]),
    # same comparison under bounded increasing smoothing
    "fig5": _runs({**_TIKHONOV_BASE, **_BOUNDED, "schedule.d": "1.5"}, [
        {"label": "no_tikhonov", "schedule.eps_coeff": "0"},
        {"label": "tikhonov", "schedule.eps_coeff": "1"},
    ]),
    # regularization decay sweep in the strong-convergence regime
    "fig6": _runs({**_TIKHONOV_BASE, **_BOUNDED, "schedule.eps_coeff": "1"}, [
        {"label": "d1_1", "schedule.d": "1.1"},
        {"label": "d1_5", "schedule.d": "1.5"},
        {"label": "d1_9", "schedule.d": "1.9"},
    ]),
}


def preset_runs(name: str):
    try:
        runs = PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}") from None
    return [dict(flat) for flat in runs]
