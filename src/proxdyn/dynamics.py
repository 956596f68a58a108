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

integrate validates the config (as runconfig.build_system did already).
Both steppers then run on Python floats: the stacked state u = (x, y) and
the stage derivatives k0..k6 are lists, since every preset is
one-dimensional and numpy calls on 1-element arrays cost more than their
arithmetic.  Per step the schedule is evaluated once at each distinct stage
time (DP5's c5 = c6 = 1 and RK4's two midpoints share one), on Python
floats, and lambda is checked there with validation's floor check.  Each
callable runs through its scalar form fn.scalar, which the polynomial
family's callables carry, and as float(fn(t)) otherwise.  The scalar forms
use Python's ** (libm pow), not numpy's array **, which takes a SIMD pow on
some CPUs that differs from libm's in the last bit; so a trajectory does
not depend on numpy's SIMD dispatch.  Validation, the condition checkers and
the observables keep the array forms.  Each stage then calls one
right-hand-side core, the only place the two reformulations are written; it
takes the envelope gradient through the objective's scalar prox
(prox.coordinate_prox) when the prox carries one, and through the array
prox on the point otherwise.  The stage
combinations, the error norm and the step controller perform, coordinate
by coordinate, the same IEEE operations in the same order as the numpy
expressions in the comments beside them, so a trajectory equals that of the
array formulation bit for bit (tests/trajectory_pins.json pins a set of
them).  The error norm sums its 2 * dim squares left to right; numpy's
reduction takes that order only for fewer than 8 terms (dim <= 3), which
covers the pinned runs and the presets, all of dimension 1.  A step whose
error norm is not finite raises
DivergenceError naming t and h, and the divergence guard bounds the whole
state (x, y), failing on a NaN anywhere.  One _accept counts and samples
each accepted step.  The public rhs_* functions and initial_aux evaluate
the schedule the same way, and rhs_* call the same core, so they match the
steppers bit for bit; initial_aux and residual_second_order share the
array envelope gradient.
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
        # inf is allowed, as for max_step: no trust region; NaN fails too
        if not self.divergence_threshold > 0.0:
            raise ValidationError("divergence_threshold must be positive")
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


def _float_grad(prox):
    """grad(lam, x): the envelope gradient of the list x of m floats, as a list.

    A built-in prox carries its scalar form as prox.coordinate_prox, which
    gives the same floats coordinate by coordinate; any other prox, such as a
    swapped or a custom one, runs on the point as a 1-D array.
    """
    coordinate_prox = getattr(prox, "coordinate_prox", None)
    if coordinate_prox is None:
        return lambda lam, x: _grad(prox, lam, np.array(x)).tolist()
    return lambda lam, x: [(xi - coordinate_prox(i, lam, xi)) / lam for i, xi in enumerate(x)]


def _core(cfg: SystemConfig):
    """The right-hand side, written once for both reformulations.

    core(t, b, lam, eps, b_dot, u) returns the derivative (xdot, ydot), one
    list of floats, at time t and stacked state u = (x, y), given the schedule
    values at t.  It checks nothing; b_dot is read only when beta > 0.  Each
    coordinate goes through the same IEEE operations, in the same order, as
    the array expressions in the comments.
    """
    alpha, beta, m = cfg.alpha, cfg.beta, cfg.objective.dim
    grad = _float_grad(cfg.objective.prox)
    if beta == 0.0:
        def core(t, b, lam, eps, b_dot, u):
            x, y = u[:m], u[m:]
            g = grad(lam, x)
            # xdot = y, ydot = -(alpha / t) * y - b * g - eps * x
            a = -(alpha / t)
            return y + [a * yi - b * gi - eps * xi for xi, yi, gi in zip(x, y, g)]
    else:
        def core(t, b, lam, eps, b_dot, u):
            x, y = u[:m], u[m:]
            g = grad(lam, x)
            # xdot = -beta * g - (alpha / t - b / beta) * x - y / beta
            # ydot = (b_dot + ... - alpha * b / t) * x - (b / beta) * y
            cx = alpha / t - b / beta
            dx = (b_dot + alpha * beta / t ** 2 + beta * eps + b ** 2 / beta
                  - alpha * b / t)
            dy = b / beta
            return ([-beta * gi - cx * xi - yi / beta for xi, yi, gi in zip(x, y, g)]
                    + [dx * xi - dy * yi for xi, yi in zip(x, y)])
    return core


def _scalar(fn):
    """fn on one float t, as a float: its scalar form fn.scalar when it carries
    one (the polynomial family's callables do), float(fn(t)) otherwise."""
    scalar = getattr(fn, "scalar", None)
    return scalar if scalar is not None else (lambda t: float(fn(t)))


def _schedule(cfg: SystemConfig):
    """rows(ts): the schedule values (t, b, lam, eps, b_dot) at each float t of
    the list ts, with lambda checked against its floor there.

    The schedule callables run on Python floats, one call per time in ts.
    """
    s = cfg.schedule
    b, lam, eps = _scalar(s.b), _scalar(s.lam), _scalar(s.eps)
    b_dot = _scalar(s.b_dot) if cfg.beta > 0.0 else (lambda t: 0.0)  # unused when beta = 0
    floor = cfg.lambda_floor

    def rows(ts: list) -> list:
        out = [(t, b(t), lam(t), eps(t), b_dot(t)) for t in ts]
        _check_floor(min(row[2] for row in out), floor)
        return out

    return rows


def _rhs_at(cfg: SystemConfig, t: float, x, y):
    """(xdot, ydot) at one time, through the same schedule values and core as
    the steppers."""
    m = cfg.objective.dim
    x, y = (np.broadcast_to(np.asarray(v, dtype=float), (m,)).tolist() for v in (x, y))
    k = _core(cfg)(*_schedule(cfg)([float(t)])[0], x + y)
    return np.array(k[:m]), np.array(k[m:])


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
    _, b0, lam0, _, _ = _schedule(cfg)([float(cfg.t0)])[0]
    g0 = _grad(cfg.objective.prox, lam0, cfg.x0)
    return (-cfg.beta * (cfg.xdot0 + cfg.beta * g0)
            + (b0 - cfg.alpha * cfg.beta / cfg.t0) * cfg.x0)


# Dormand-Prince 5(4) tableau, zero-based like the stages k0..k6: nodes _C of
# stages 1..5 (stage 6 has c6 = c5 = 1), stage weights _Aij (stage i,
# derivative kj), fifth-order weights _A6j (stage 6 is the new point, FSAL)
# and error weights _Ej; zero entries are left out
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
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


def _accept(stats: StepStats, h: float, samples: tuple, stride: int, final: bool,
            t: float, u: list, xdot: list) -> None:
    """Count an accepted step of size h to (t, u), and sample (t, u, xdot) when
    it is the final step or every stride-th one.

    samples is three flat lists (ts, us, xdots) that u and xdot extend; one
    list per sample would leave the allocator fragmented after long runs.
    """
    stats.accepted += 1
    stats.min_step = min(stats.min_step, h)
    stats.max_step = max(stats.max_step, h)
    if final or stats.accepted % stride == 0:
        ts, us, xdots = samples
        ts.append(t)
        us += u
        xdots += xdot


def _check_state(settings: IntegratorSettings, t_last: float, u: list) -> None:
    # bounds the whole state, the auxiliary y as well as x; a NaN anywhere
    # fails the test too, which max(u) would skip unless it came first
    threshold = settings.divergence_threshold
    if not all(abs(a) <= threshold for a in u):
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
    schedule, f, m = _schedule(cfg), _core(cfg), cfg.objective.dim
    t, T = float(cfg.t0), cfg.horizon
    u = cfg.x0.tolist() + initial_aux(cfg).tolist()
    stats, stride = StepStats(), settings.sample_stride
    # k0 always holds the derivative at (t, u)
    k0 = f(*schedule([t])[0], u)
    stats.nfev += 1
    samples = ([t], u[:], k0[:m])

    # each comprehension is, coordinate by coordinate, the array expression
    # in the comment above it
    if settings.method == "rk4_fixed":
        nsteps = max(1, int(math.ceil((T - t) / settings.fixed_step - 1e-12)))
        h = (T - t) / nsteps
        for i in range(nsteps):
            t_next = cfg.t0 + (i + 1) * h
            v = schedule([t + 0.5 * h, t + h, t_next])
            # u + 0.5 * h * k0, u + 0.5 * h * k1, u + h * k2
            k1 = f(*v[0], [ui + 0.5 * h * a0 for ui, a0 in zip(u, k0)])
            k2 = f(*v[0], [ui + 0.5 * h * a1 for ui, a1 in zip(u, k1)])
            k3 = f(*v[1], [ui + h * a2 for ui, a2 in zip(u, k2)])
            # u + (h / 6.0) * (k0 + 2.0 * k1 + 2.0 * k2 + k3)
            u = [ui + (h / 6.0) * (a0 + 2.0 * a1 + 2.0 * a2 + a3)
                 for ui, a0, a1, a2, a3 in zip(u, k0, k1, k2, k3)]
            _check_state(settings, t_next - h, u)
            t = t_next
            k0 = f(*v[2], u)
            stats.nfev += 4
            _accept(stats, h, samples, stride, i == nsteps - 1, t, u, k0[:m])
    else:  # rk45_adaptive
        atol, rtol = settings.atol, settings.rtol
        h = min((T - t) / 100.0, 1.0, settings.max_step)
        while t < T:
            if stats.accepted + stats.rejected >= settings.max_steps:
                raise StepSizeError(f"step budget exhausted at t = {t:.6g}, h = {h:.3g}")
            h = min(h, T - t)
            v = schedule([t + c * h for c in _C])
            # u + h * (_A10 * k0), u + h * (_A20 * k0 + _A21 * k1), ...
            k1 = f(*v[0], [ui + h * (_A10 * a0) for ui, a0 in zip(u, k0)])
            k2 = f(*v[1], [ui + h * (_A20 * a0 + _A21 * a1)
                           for ui, a0, a1 in zip(u, k0, k1)])
            k3 = f(*v[2], [ui + h * (_A30 * a0 + _A31 * a1 + _A32 * a2)
                           for ui, a0, a1, a2 in zip(u, k0, k1, k2)])
            k4 = f(*v[3], [ui + h * (_A40 * a0 + _A41 * a1 + _A42 * a2 + _A43 * a3)
                           for ui, a0, a1, a2, a3 in zip(u, k0, k1, k2, k3)])
            k5 = f(*v[4], [ui + h * (_A50 * a0 + _A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
                           for ui, a0, a1, a2, a3, a4 in zip(u, k0, k1, k2, k3, k4)])
            u_new = [ui + h * (_A60 * a0 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
                     for ui, a0, a2, a3, a4, a5 in zip(u, k0, k2, k3, k4, k5)]
            k6 = f(*v[4], u_new)
            stats.nfev += 6
            # err = h * (_E0 * k0 + _E2 * k2 + ... + _E6 * k6)
            # scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new))
            # err_norm = sqrt(mean((err / scale) ** 2)); the sum runs left to
            # right, which is numpy's order for fewer than 8 terms (dim <= 3).
            # max may skip a NaN that np.maximum keeps, but a NaN in u_new
            # also reaches err through k6 = f(u_new), so the norm is NaN anyway
            total = 0.0
            for ui, wi, a0, a2, a3, a4, a5, a6 in zip(u, u_new, k0, k2, k3, k4, k5, k6):
                q = (h * (_E0 * a0 + _E2 * a2 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6)
                     / (atol + rtol * max(abs(ui), abs(wi))))
                total += q * q
            err_norm = math.sqrt(total / len(u))
            if not math.isfinite(err_norm):
                raise DivergenceError(
                    f"non-finite stage in the step at t = {t:.6g}, h = {h:.3g}", t)
            if err_norm <= 1.0:
                t_prev = t
                t = T if (T - t - h) <= 1e-15 * T else t + h
                u = u_new
                _check_state(settings, t_prev, u)
                k0 = k6  # FSAL: the last stage is the derivative at the new point
                _accept(stats, h, samples, stride, t >= T, t, u, k0[:m])
            else:
                stats.rejected += 1
            factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            h = min(h, settings.max_step)
            if h < _MIN_STEP:
                raise StepSizeError(f"step size collapsed to {h:.3g} at t = {t:.6g}")

    ts, us, xdots = (np.array(column, dtype=float) for column in samples)
    us, xdots = us.reshape(-1, 2 * m), xdots.reshape(-1, m)
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
