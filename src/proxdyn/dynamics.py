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
RK4 for order studies.  The envelope gradient is 1/lambda-Lipschitz, so
stiffness is capped by the lambda floor and explicit methods are adequate.
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
from .objectives import moreau_gradient
from .schedules import SystemConfig

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


@dataclass
class IntegratorSettings:
    method: str = "rk45_adaptive"  # or "rk4_fixed"
    rtol: float = 1e-8
    atol: float = 1e-10
    initial_step: float = 0.0  # 0 means pick automatically
    min_step: float = 1e-13
    max_step: float = math.inf
    fixed_step: float = 1e-3
    sample_stride: int = 1
    max_steps: int = 5_000_000
    divergence_threshold: float = 1e12

    def validate(self) -> None:
        if self.method not in ("rk45_adaptive", "rk4_fixed"):
            raise ValidationError(f"unknown integrator method {self.method!r}")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValidationError("tolerances must be positive")
        if self.fixed_step <= 0.0 or self.min_step <= 0.0 or self.max_step <= 0.0:
            raise ValidationError("step sizes must be positive")
        if self.initial_step < 0.0:
            raise ValidationError("initial_step must be >= 0")
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


def _envelope_grad(cfg: SystemConfig, lam: float, x: np.ndarray) -> np.ndarray:
    # validation samples lambda on a grid, so a dip between grid points lands here
    if lam < cfg.lambda_floor * (1.0 - 1e-9):
        raise ValidationError(f"lambda(t) = {lam:.3g} fell below its floor {cfg.lambda_floor:.3g}")
    return moreau_gradient(cfg.objective, lam, x)


def rhs_beta_positive(cfg: SystemConfig, t: float, x, y):
    """Right-hand side of the Hessian-damped reformulation (beta > 0)."""
    if cfg.beta <= 0.0:
        raise ValidationError("this reformulation needs beta > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha, beta = cfg.alpha, cfg.beta
    s = cfg.schedule
    b = float(s.b(t))
    lam = float(s.lam(t))
    eps = float(s.eps(t))
    b_dot = float(s.b_dot(t))
    g = _envelope_grad(cfg, lam, x)
    xdot = -beta * g - (alpha / t - b / beta) * x - y / beta
    ydot = (b_dot + alpha * beta / t ** 2 + beta * eps + b ** 2 / beta
            - alpha * b / t) * x - (b / beta) * y
    return xdot, ydot


def rhs_beta_zero(cfg: SystemConfig, t: float, x, y):
    """Right-hand side of the velocity reformulation (beta = 0)."""
    if cfg.beta != 0.0:
        raise ValidationError("this reformulation needs beta = 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = cfg.schedule
    b = float(s.b(t))
    lam = float(s.lam(t))
    eps = float(s.eps(t))
    g = _envelope_grad(cfg, lam, x)
    xdot = y
    ydot = -(cfg.alpha / t) * y - b * g - eps * x
    return xdot, ydot


def initial_aux(cfg: SystemConfig) -> np.ndarray:
    """Auxiliary initial value matching (x0, xdot0) under the active reformulation."""
    if cfg.beta == 0.0:
        return cfg.xdot0.copy()
    lam0 = float(cfg.schedule.lam(cfg.t0))
    g0 = _envelope_grad(cfg, lam0, cfg.x0)
    b0 = float(cfg.schedule.b(cfg.t0))
    return (-cfg.beta * (cfg.xdot0 + cfg.beta * g0)
            + (b0 - cfg.alpha * cfg.beta / cfg.t0) * cfg.x0)


def _make_rhs(cfg: SystemConfig):
    """Stacked-state derivative u = (x, y) -> u'; first block is always xdot."""
    m = cfg.objective.dim
    rhs = rhs_beta_zero if cfg.beta == 0.0 else rhs_beta_positive

    def f(t: float, u: np.ndarray) -> np.ndarray:
        xdot, ydot = rhs(cfg, t, u[:m], u[m:])
        return np.concatenate([xdot, ydot])

    return f, m


# Dormand-Prince 5(4) coefficients
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_ERR = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    0.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)


class _Sampler:
    """Collects every stride-th accepted point plus the endpoint."""

    def __init__(self, m: int, stride: int):
        self.stride = stride
        self.m = m
        self.ts: list = []
        self.xs: list = []
        self.auxs: list = []
        self.xdots: list = []
        self._since = 0

    def record(self, t: float, u: np.ndarray, du: np.ndarray) -> None:
        self.ts.append(t)
        self.xs.append(u[: self.m].copy())
        self.auxs.append(u[self.m:].copy())
        self.xdots.append(du[: self.m].copy())

    def on_accept(self, t: float, u: np.ndarray, du: np.ndarray, final: bool) -> None:
        self._since += 1
        if final or self._since >= self.stride:
            self.record(t, u, du)
            self._since = 0

    def build(self, stats: StepStats, cfg: SystemConfig) -> Trajectory:
        return Trajectory(
            ts=np.asarray(self.ts, dtype=float),
            xs=np.vstack(self.xs),
            auxs=np.vstack(self.auxs),
            xdots=np.vstack(self.xdots),
            stats=stats,
            cfg=cfg,
        )


def _check_state(cfg: SystemConfig, settings: IntegratorSettings, t_last: float,
                 u: np.ndarray, m: int) -> None:
    xn = float(np.max(np.abs(u[:m]))) if m else 0.0
    if not np.all(np.isfinite(u)) or xn > settings.divergence_threshold:
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
    f, m = _make_rhs(cfg)
    t, T = cfg.t0, cfg.horizon
    u = np.concatenate([cfg.x0, initial_aux(cfg)])
    stats = StepStats()
    sampler = _Sampler(m, settings.sample_stride)
    k1 = f(t, u)
    stats.nfev += 1
    sampler.record(t, u, k1)

    if settings.method == "rk4_fixed":
        nsteps = max(1, int(math.ceil((T - t) / settings.fixed_step - 1e-12)))
        h = (T - t) / nsteps
        for i in range(nsteps):
            k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
            k4 = f(t + h, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = cfg.t0 + (i + 1) * h
            _check_state(cfg, settings, t - h, u, m)
            k1 = f(t, u)
            stats.nfev += 4
            stats.accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            sampler.on_accept(t, u, k1, final=(i == nsteps - 1))
        return sampler.build(stats, cfg)

    # rk45_adaptive
    h = settings.initial_step or min((T - t) / 100.0, 1.0)
    h = min(h, settings.max_step, T - t)
    ks = [k1] + [np.empty_like(u) for _ in range(6)]
    while t < T:
        if stats.accepted + stats.rejected >= settings.max_steps:
            raise StepSizeError(f"step budget exhausted at t = {t:.6g}, h = {h:.3g}")
        h = min(h, T - t)
        for i in range(6):
            ui = u + h * sum(a * ks[j] for j, a in enumerate(_DP_A[i]) if a != 0.0)
            ks[i + 1] = f(t + _DP_C[i] * h, ui)
        stats.nfev += 6
        u_new = u + h * (_DP_A[5][0] * ks[0] + _DP_A[5][2] * ks[2]
                         + _DP_A[5][3] * ks[3] + _DP_A[5][4] * ks[4]
                         + _DP_A[5][5] * ks[5])
        err = h * sum(e * ks[j] for j, e in enumerate(_DP_ERR) if e != 0.0)
        scale = settings.atol + settings.rtol * np.maximum(np.abs(u), np.abs(u_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t_prev = t
            t = T if (T - t - h) <= 1e-15 * T else t + h
            u = u_new
            _check_state(cfg, settings, t_prev, u, m)
            ks[0] = ks[6]  # FSAL: derivative at the accepted point
            stats.accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            sampler.on_accept(t, u, ks[0], final=(t >= T))
        else:
            stats.rejected += 1
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        h = min(h, settings.max_step)
        if h < settings.min_step:
            raise StepSizeError(f"step size collapsed to {h:.3g} at t = {t:.6g}")
    return sampler.build(stats, cfg)


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
    grads = np.vstack([
        _envelope_grad(cfg, float(s.lam(t)), traj.xs[i])
        for i, t in enumerate(ts)
    ])
    worst = 0.0
    for i in range(1, ts.size - 1):
        t = float(ts[i])
        xdd = (traj.xs[i + 1] - 2.0 * traj.xs[i] + traj.xs[i - 1]) / h ** 2
        gdot = (grads[i + 1] - grads[i - 1]) / (2.0 * h)
        res = (xdd + (cfg.alpha / t) * traj.xdots[i] + cfg.beta * gdot
               + float(s.b(t)) * grads[i] + float(s.eps(t)) * traj.xs[i])
        worst = max(worst, float(np.linalg.norm(res)))
    return worst
