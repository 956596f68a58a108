"""Trajectory integration for the damped envelope flow.

The second-order system

    x'' + (alpha/t) x' + beta (d/dt) grad_e(t, x) + b(t) grad_e(t, x) + eps(t) x = 0

with grad_e(t, x) the Moreau-envelope gradient at smoothing lambda(t), is
integrated through one of two equivalent first-order reformulations.  With
Hessian-driven damping (beta > 0) the auxiliary variable absorbs the
envelope-gradient derivative so the right-hand side needs no second
derivatives; with beta = 0 the auxiliary variable is plain velocity.

The steppers are deliberately self-contained: an embedded Dormand-Prince
5(4) pair with FSAL and a PI-free step controller, plus classical fixed-step
RK4 for order studies.  The adaptive stepper's first step is
min((T - t0)/100, 1), capped by max_step; a step below 1e-13 raises
StepSizeError.  The envelope gradient is 1/lambda-Lipschitz, so
stiffness is capped by the lambda floor and explicit methods are adequate.

Both steppers share one _Stepper per run.  integrate validates the config
(as runconfig.build_system did already); per step the stepper evaluates the
schedule callables once on the array of stage times and checks lambda there
with validation's floor check.  Each stage then calls one right-hand-side
core, the only place the two reformulations are written, which writes into
a preallocated stage row; the DP5 stage combinations are written out term
by term.  A step whose error norm is not finite raises DivergenceError
naming t and h, and the divergence guard bounds the whole state (x, y).
One _accept counts and samples each accepted step.  The public rhs_*
functions call the same core with scalar schedule values; initial_aux and
residual_second_order share its envelope gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    InsufficientDataError,
    StepSizeError,
    ValidationError,
)
from .schedules import SystemConfig, _check_floor, _sample

__all__ = [
    "IntegratorSettings",
    "StepStats",
    "Trajectory",
    "rhs_beta_positive",
    "rhs_beta_zero",
    "initial_aux",
    "integrate",
    "residual_second_order",
]


_METHODS = ("rk45_adaptive", "rk4_fixed")
_MIN_STEP = 1e-13  # an adaptive step below this raises StepSizeError


@dataclass
class IntegratorSettings:
    method: str = _METHODS[0]
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = math.inf
    fixed_step: float = 1e-3
    sample_stride: int = 1
    max_steps: int = 5_000_000
    divergence_threshold: float = 1e12

    def validate(self) -> None:
        if self.method not in _METHODS:
            raise ValidationError(f"unknown integrator method {self.method!r}")
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValidationError("tolerances must be positive reals")
        # max_step alone may be inf: no cap
        if not (0.0 < self.fixed_step < math.inf and self.max_step > 0.0):
            raise ValidationError("step sizes must be positive reals")
        if self.sample_stride < 1:
            raise ValidationError("sample_stride must be a positive integer")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be a positive integer")


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    nfev: int = 0
    min_step: float = math.inf
    max_step: float = 0.0


@dataclass
class Trajectory:
    ts: np.ndarray
    xs: np.ndarray
    auxs: np.ndarray
    xdots: np.ndarray
    stats: StepStats
    cfg: SystemConfig

    def __len__(self) -> int:
        return self.ts.size


def _grad(prox, lam, x):
    """Moreau-envelope gradient (x - prox(lam, x)) / lam, with no argument checks."""
    return (x - prox(lam, x)) / lam


def _core(cfg: SystemConfig):
    """The right-hand side, written once for both reformulations.

    core(t, b, lam, eps, b_dot, x, y, out) writes (xdot, ydot) at time t and
    state (x, y), given the schedule values at t, into the row out.  It checks
    nothing; b_dot is read only when beta > 0.
    """
    prox, alpha, beta, m = cfg.objective.prox, cfg.alpha, cfg.beta, cfg.objective.dim
    if beta == 0.0:
        def core(t, b, lam, eps, b_dot, x, y, out):
            g = _grad(prox, lam, x)
            out[:m] = y
            out[m:] = -(alpha / t) * y - b * g - eps * x
    else:
        def core(t, b, lam, eps, b_dot, x, y, out):
            g = _grad(prox, lam, x)
            out[:m] = -beta * g - (alpha / t - b / beta) * x - y / beta
            out[m:] = (b_dot + alpha * beta / t ** 2 + beta * eps + b ** 2 / beta
                       - alpha * b / t) * x - (b / beta) * y
    return core


class _Stepper:
    """The right-hand side of one config, evaluated stage by stage.

    schedule(ts) evaluates b, lambda and eps (and b_dot when beta > 0) once on
    the array of one step's stage times and checks lambda against its floor
    there; stage(i, u, out) then writes the derivative at the i-th of those
    times and the stacked state u = (x, y) into the preallocated row out.
    """

    def __init__(self, cfg: SystemConfig):
        s = cfg.schedule
        self.fns = (s.b, s.lam, s.eps) + ((s.b_dot,) if cfg.beta > 0.0 else ())
        self.floor = cfg.lambda_floor
        self.m = cfg.objective.dim
        self.core = _core(cfg)
        self.values = []

    def schedule(self, ts: np.ndarray) -> None:
        cols = [_sample(fn, ts).tolist() for fn in self.fns]
        _check_floor(min(cols[1]), self.floor)
        if len(cols) == 3:
            cols.append([0.0] * ts.size)  # b_dot, unused when beta = 0
        self.values = list(zip(ts.tolist(), *cols))

    def stage(self, i: int, u: np.ndarray, out: np.ndarray) -> None:
        m = self.m
        self.core(*self.values[i], u[:m], u[m:], out)


def _rhs_at(cfg: SystemConfig, t: float, x, y):
    """(xdot, ydot) at one time, through the same core as the steppers."""
    s = cfg.schedule
    b, lam, eps = float(s.b(t)), float(s.lam(t)), float(s.eps(t))
    b_dot = float(s.b_dot(t)) if cfg.beta > 0.0 else 0.0
    _check_floor(lam, cfg.lambda_floor)
    m = cfg.objective.dim
    out = np.empty(2 * m)
    _core(cfg)(t, b, lam, eps, b_dot, np.asarray(x, dtype=float), np.asarray(y, dtype=float), out)
    return out[:m], out[m:]


def rhs_beta_positive(cfg: SystemConfig, t: float, x, y):
    """Right-hand side of the Hessian-damped reformulation (beta > 0)."""
    if cfg.beta <= 0.0:
        raise ValidationError("this reformulation needs beta > 0")
    return _rhs_at(cfg, t, x, y)


def rhs_beta_zero(cfg: SystemConfig, t: float, x, y):
    """Right-hand side of the velocity reformulation (beta = 0)."""
    if cfg.beta != 0.0:
        raise ValidationError("this reformulation needs beta = 0")
    return _rhs_at(cfg, t, x, y)


def initial_aux(cfg: SystemConfig) -> np.ndarray:
    """Auxiliary initial value matching (x0, xdot0) under the active reformulation."""
    if cfg.beta == 0.0:
        return cfg.xdot0.copy()
    lam0 = float(cfg.schedule.lam(cfg.t0))
    _check_floor(lam0, cfg.lambda_floor)
    g0 = _grad(cfg.objective.prox, lam0, cfg.x0)
    b0 = float(cfg.schedule.b(cfg.t0))
    return (-cfg.beta * (cfg.xdot0 + cfg.beta * g0)
            + (b0 - cfg.alpha * cfg.beta / cfg.t0) * cfg.x0)


# Dormand-Prince 5(4) tableau, zero-based like the stage rows k0..k6: nodes
# _C, stage weights _Aij (stage i, row kj), fifth-order weights _A6j (stage 6
# is the new point, FSAL) and error weights _Ej; zero entries are left out
_C = np.array([0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0])
_A10 = 0.2
_A20, _A21 = 3.0 / 40.0, 9.0 / 40.0
_A30, _A31, _A32 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A40, _A41, _A42, _A43 = (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
                          -212.0 / 729.0)
_A50, _A51, _A52, _A53, _A54 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_A60, _A62, _A63, _A64, _A65 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
_E0 = 35.0 / 384.0 - 5179.0 / 57600.0
_E2 = 500.0 / 1113.0 - 7571.0 / 16695.0
_E3 = 125.0 / 192.0 - 393.0 / 640.0
_E4 = -2187.0 / 6784.0 + 92097.0 / 339200.0
_E5 = 11.0 / 84.0 - 187.0 / 2100.0
_E6 = -1.0 / 40.0


def _accept(stats: StepStats, h: float, samples: list, stride: int, final: bool,
            t: float, u: np.ndarray, xdot: np.ndarray) -> None:
    """Count an accepted step of size h to (t, u), and sample (t, u, xdot) when
    it is the final step or every stride-th one."""
    stats.accepted += 1
    stats.min_step = min(stats.min_step, h)
    stats.max_step = max(stats.max_step, h)
    if final or stats.accepted % stride == 0:
        # xdot views a stage row the next step overwrites; u is never written in place
        samples.append((t, u, xdot.copy()))


def _check_state(settings: IntegratorSettings, t_last: float, u: np.ndarray) -> None:
    # bounds the whole state, the auxiliary y as well as x; NaN fails the test too
    if not float(np.abs(u).max()) <= settings.divergence_threshold:
        raise DivergenceError(
            f"state left the trust region after t = {t_last:.6g}", t_last)


def integrate(cfg: SystemConfig, settings: IntegratorSettings = None) -> Trajectory:
    """Integrate the flow from t0 to the horizon and sample the trajectory.

    Samples are the initial point, every sample_stride-th accepted step, and
    the final time.  Velocities at samples come from the algebraic relation
    of the active reformulation, never from differencing.
    """
    if settings is None:
        settings = IntegratorSettings()
    settings.validate()
    cfg.validate()
    step = _Stepper(cfg)
    stage, m = step.stage, step.m
    t, T = cfg.t0, cfg.horizon
    u = np.concatenate([cfg.x0, initial_aux(cfg)])
    stats, stride = StepStats(), settings.sample_stride
    # preallocated stage rows; k0 always holds the derivative at (t, u)
    k0, k1, k2, k3, k4, k5, k6 = np.empty((7, 2 * m))
    step.schedule(np.array([t]))
    stage(0, u, k0)
    stats.nfev += 1
    samples = [(t, u, k0[:m].copy())]

    if settings.method == "rk4_fixed":
        nsteps = max(1, int(math.ceil((T - t) / settings.fixed_step - 1e-12)))
        h = (T - t) / nsteps
        for i in range(nsteps):
            t_next = cfg.t0 + (i + 1) * h
            step.schedule(np.array([t + 0.5 * h, t + 0.5 * h, t + h, t_next]))
            stage(0, u + 0.5 * h * k0, k1)
            stage(1, u + 0.5 * h * k1, k2)
            stage(2, u + h * k2, k3)
            u = u + (h / 6.0) * (k0 + 2.0 * k1 + 2.0 * k2 + k3)
            _check_state(settings, t_next - h, u)
            t = t_next
            stage(3, u, k4)
            k0, k4 = k4, k0
            stats.nfev += 4
            _accept(stats, h, samples, stride, i == nsteps - 1, t, u, k0[:m])
    else:  # rk45_adaptive
        h = min((T - t) / 100.0, 1.0, settings.max_step)
        while t < T:
            if stats.accepted + stats.rejected >= settings.max_steps:
                raise StepSizeError(f"step budget exhausted at t = {t:.6g}, h = {h:.3g}")
            h = min(h, T - t)
            step.schedule(t + _C * h)
            stage(0, u + h * (_A10 * k0), k1)
            stage(1, u + h * (_A20 * k0 + _A21 * k1), k2)
            stage(2, u + h * (_A30 * k0 + _A31 * k1 + _A32 * k2), k3)
            stage(3, u + h * (_A40 * k0 + _A41 * k1 + _A42 * k2 + _A43 * k3), k4)
            stage(4, u + h * (_A50 * k0 + _A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4), k5)
            u_new = u + h * (_A60 * k0 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            stage(5, u_new, k6)
            stats.nfev += 6
            err = h * (_E0 * k0 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6)
            scale = settings.atol + settings.rtol * np.maximum(np.abs(u), np.abs(u_new))
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
            if not math.isfinite(err_norm):
                raise DivergenceError(
                    f"non-finite stage in the step at t = {t:.6g}, h = {h:.3g}", t)
            if err_norm <= 1.0:
                t_prev = t
                t = T if (T - t - h) <= 1e-15 * T else t + h
                u = u_new
                _check_state(settings, t_prev, u)
                k0, k6 = k6, k0  # FSAL: the last stage is the derivative at the new point
                _accept(stats, h, samples, stride, t >= T, t, u, k0[:m])
            else:
                stats.rejected += 1
            factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            h = min(h, settings.max_step)
            if h < _MIN_STEP:
                raise StepSizeError(f"step size collapsed to {h:.3g} at t = {t:.6g}")

    ts, us, xdots = (np.array(column, dtype=float) for column in zip(*samples))
    return Trajectory(ts, us[:, :m].copy(), us[:, m:].copy(), xdots, stats, cfg)


def residual_second_order(traj: Trajectory, cfg: SystemConfig) -> float:
    """Max norm of the second-order equation residual over interior samples.

    Uses centered differences for x'' and for the envelope-gradient time
    derivative; velocities are the trajectory's exact reconstructions.  The
    samples must be uniformly spaced.
    """
    ts = traj.ts
    if ts.size < 5:
        raise InsufficientDataError("need at least 5 samples")
    hs = np.diff(ts)
    h = float(hs[0])
    if float(np.max(np.abs(hs - h))) > 1e-8 * max(h, 1.0):
        raise InsufficientDataError("samples must be uniformly spaced")
    s = cfg.schedule
    b, lam, eps = (_sample(fn, ts)[:, None] for fn in (s.b, s.lam, s.eps))
    _check_floor(float(lam.min()), cfg.lambda_floor)
    xs, mid = traj.xs, slice(1, -1)
    grads = _grad(cfg.objective.prox, lam, xs)
    xdd = (xs[2:] - 2.0 * xs[mid] + xs[:-2]) / h ** 2
    gdot = (grads[2:] - grads[:-2]) / (2.0 * h)
    res = (xdd + (cfg.alpha / ts[mid, None]) * traj.xdots[mid] + cfg.beta * gdot
           + b[mid] * grads[mid] + eps[mid] * xs[mid])
    return float(np.max(np.linalg.norm(res, axis=1)))
