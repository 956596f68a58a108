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
StepSizeError, and so does a run that needs more than max_steps steps.  The
envelope gradient is 1/lambda-Lipschitz, so stiffness is capped by the
lambda floor and explicit methods are adequate.

integrate validates the config (as runconfig.build_system did already),
then runs coordinate-major.  The right-hand side is separable: coordinate i
of (xdot, ydot) depends on (x_i, y_i) alone, since a built-in prox acts
coordinate by coordinate.  So a step runs every stage of one coordinate
pair as straight-line code before it moves to the next pair.  The unit of
that loop is a lane:
- a float lane is one coordinate on Python floats, for a prox that carries
  its scalar form prox.coordinate_prox (every built-in does); the stepper
  makes no numpy call per step there;
- a numpy lane is the whole point as 1-D arrays, the single lane of a prox
  without a scalar form, such as a swapped or custom one, which runs on
  the whole point.
The loop body is written once for both.

Per step the schedule is evaluated once at each distinct stage time
(DP5's c5 = c6 = 1 and RK4's two midpoints share one) and the values are
folded into per-stage constants: (-(alpha/t), b, lambda, eps) when
beta = 0 and (cx, dx, dy, lambda) when beta > 0.  Every stage time is at
least t0 and lambda is nondecreasing, so validation's one check of
lambda(t0) against its floor covers every step; the public rhs_*,
initial_aux and residual_second_order do not check it again and take a
config that has passed validation.  Each schedule callable runs through
its scalar form fn.scalar, which every Schedule carries.  The scalar forms
use Python's ** (libm pow), not numpy's array **, which takes a SIMD pow
on some CPUs that differs from libm's in the last bit; so a trajectory
does not depend on numpy's SIMD dispatch.  The condition checkers and the
observables keep the array forms.

Every stage calls one core, g(i, c, x, y) -> (xdot_i, ydot_i), the only
place each reformulation is written.  The stage combinations, the error
norm and the step controller perform, coordinate by coordinate, the same
IEEE operations in the same order as the numpy expressions in the comments
beside them, so a trajectory equals that of the array formulation bit for
bit (tests/trajectory_pins.json pins a set of them).  The error norm keeps
its 2 * dim squares, x block first, in one list and sums it left to right
in a plain loop, at every dim and in both kinds of lane; numpy's pairwise
reduction would take that order only for fewer than 8 terms.  A step whose
error norm is not finite raises DivergenceError naming t and h, and the
divergence guard bounds the whole state (x, y), failing on a NaN anywhere;
both errors, and StepSizeError, carry t_last and h.  One _accept counts and
samples each accepted step.  The public rhs_* functions and the first
stage take the same stage constants, lanes and core, so they match the
steppers bit for bit.  initial_aux, which runs once, evaluates lambda and b
through the same scalar forms and takes the envelope gradient from the
array prox, which equals the scalar form bit for bit; residual_second_order
shares that array gradient.
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


def _lanes(cfg: SystemConfig):
    """(lane_prox, maximum, split, flat): how the steppers run over lanes.

    lane_prox(i, lam, x) is the prox of lane i at the lane value x;
    maximum is max on float lanes and np.maximum on the numpy lane.
    split(v) turns a 1-D array of dim floats into the list of lane values,
    and flat(values) turns such a list back into a list of dim floats.
    """
    prox = cfg.objective.prox
    coordinate_prox = getattr(prox, "coordinate_prox", None)
    if coordinate_prox is not None:
        return coordinate_prox, max, (lambda v: v.tolist()), (lambda values: values)
    return ((lambda i, lam, x: prox(lam, x)), np.maximum,
            (lambda v: [np.array(v, dtype=float)]), (lambda values: values[0].tolist()))


def _core(cfg: SystemConfig, lane_prox):
    """g(i, c, x, y): the derivative (xdot_i, ydot_i) of lane i at state
    (x, y), given the stage constants c; written once for both
    reformulations.  It checks nothing.  Each coordinate goes through the
    same IEEE operations, in the same order, as the array expressions in the
    comments.
    """
    alpha, beta = cfg.alpha, cfg.beta
    if beta == 0.0:
        def g(i, c, x, y):
            a, b, lam, eps = c
            grad = (x - lane_prox(i, lam, x)) / lam
            # xdot = y, ydot = -(alpha / t) * y - b * grad - eps * x
            return y, a * y - b * grad - eps * x
    else:
        def g(i, c, x, y):
            cx, dx, dy, lam = c
            grad = (x - lane_prox(i, lam, x)) / lam
            # xdot = -beta * grad - (alpha / t - b / beta) * x - y / beta
            # ydot = (b_dot + ... - alpha * b / t) * x - (b / beta) * y
            return -beta * grad - cx * x - y / beta, dx * x - dy * y
    return g


def _stage_constants(cfg: SystemConfig):
    """consts(ts): the constants c that g takes at each float t of the list
    ts, folded from the schedule values there.

    The schedule's scalar forms run on Python floats, one call per time in
    ts; b_dot is evaluated only when beta > 0.
    """
    s, alpha, beta = cfg.schedule, cfg.alpha, cfg.beta
    b, lam, eps, b_dot = s.b.scalar, s.lam.scalar, s.eps.scalar, s.b_dot.scalar
    if beta == 0.0:
        def consts(ts: list) -> list:
            return [(-(alpha / t), b(t), lam(t), eps(t)) for t in ts]
    else:
        def consts(ts: list) -> list:
            # cx = alpha / t - b / beta, dy = b / beta and
            # dx = b_dot + alpha * beta / t**2 + beta * eps + b**2 / beta - alpha * b / t
            return [(alpha / t - b_t / beta,
                     b_dot_t + alpha * beta / t ** 2 + beta * eps_t + b_t ** 2 / beta
                     - alpha * b_t / t,
                     b_t / beta, lam_t)
                    for t, lam_t, b_t, eps_t, b_dot_t
                    in zip(ts, map(lam, ts), map(b, ts), map(eps, ts), map(b_dot, ts))]
    return consts


def _rhs_at(cfg: SystemConfig, t: float, x, y):
    """(xdot, ydot) at one time, through the same stage constants, lanes and
    core as the steppers."""
    lane_prox, _, split, flat = _lanes(cfg)
    g, m = _core(cfg, lane_prox), cfg.objective.dim
    (c,) = _stage_constants(cfg)([float(t)])
    X, Y = (split(np.broadcast_to(np.asarray(v, dtype=float), (m,))) for v in (x, y))
    KX, KY = zip(*[g(i, c, X[i], Y[i]) for i in range(len(X))])
    return np.array(flat(KX)), np.array(flat(KY))


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
    t0, s = float(cfg.t0), cfg.schedule
    g0 = _grad(cfg.objective.prox, s.lam.scalar(t0), cfg.x0)
    return (-cfg.beta * (cfg.xdot0 + cfg.beta * g0)
            + (s.b.scalar(t0) - cfg.alpha * cfg.beta / cfg.t0) * cfg.x0)


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


def _check_state(settings: IntegratorSettings, t_last: float, h: float, u: list) -> None:
    # bounds the whole state, the auxiliary y as well as x; a NaN anywhere
    # fails the test too, which max(u) would skip unless it came first
    threshold = settings.divergence_threshold
    if not all(abs(a) <= threshold for a in u):
        raise DivergenceError(
            f"state left the trust region after t = {t_last:.6g}", t_last, h)


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
    lane_prox, maximum, split, flat = _lanes(cfg)
    consts, g = _stage_constants(cfg), _core(cfg, lane_prox)
    m, t, T = cfg.objective.dim, float(cfg.t0), cfg.horizon
    # X, Y: the lane values of the state u = (x, y); KX, KY: those of k0,
    # which always holds the derivative at (t, u)
    X, Y = split(cfg.x0), split(initial_aux(cfg))
    lanes = range(len(X))
    (c0,) = consts([t])
    KX, KY = zip(*[g(i, c0, X[i], Y[i]) for i in lanes])
    stats, stride = StepStats(), settings.sample_stride
    stats.nfev += 1
    samples = ([t], flat(X) + flat(Y), list(flat(KX)))

    # each stage argument is, lane by lane, the array expression in the
    # comment above it, with u = (x, y) and k = (kx, ky)
    if settings.method == "rk4_fixed":
        # compared as a float: an inf step count has no integer ceiling
        span = (T - t) / settings.fixed_step - 1e-12
        if span > settings.max_steps:
            raise StepSizeError(
                f"nsteps = {span:.6g} steps of fixed_step = {settings.fixed_step:.3g} "
                f"exceed max_steps = {settings.max_steps}", t, settings.fixed_step)
        nsteps = max(1, int(math.ceil(span)))
        h = (T - t) / nsteps
        for n in range(nsteps):
            t_next = cfg.t0 + (n + 1) * h
            c_half, c_full, c_next = consts([t + 0.5 * h, t + h, t_next])
            XN, YN = [], []
            for i in lanes:
                x, y, kx0, ky0 = X[i], Y[i], KX[i], KY[i]
                # u + 0.5 * h * k0, u + 0.5 * h * k1, u + h * k2
                kx1, ky1 = g(i, c_half, x + 0.5 * h * kx0, y + 0.5 * h * ky0)
                kx2, ky2 = g(i, c_half, x + 0.5 * h * kx1, y + 0.5 * h * ky1)
                kx3, ky3 = g(i, c_full, x + h * kx2, y + h * ky2)
                # u + (h / 6.0) * (k0 + 2.0 * k1 + 2.0 * k2 + k3)
                XN.append(x + (h / 6.0) * (kx0 + 2.0 * kx1 + 2.0 * kx2 + kx3))
                YN.append(y + (h / 6.0) * (ky0 + 2.0 * ky1 + 2.0 * ky2 + ky3))
            X, Y = XN, YN
            u = flat(X) + flat(Y)
            # the guard sees the new state before the core does
            _check_state(settings, t_next - h, h, u)
            t = t_next
            KX, KY = zip(*[g(i, c_next, X[i], Y[i]) for i in lanes])
            stats.nfev += 4
            _accept(stats, h, samples, stride, n == nsteps - 1, t, u, flat(KX))
    else:  # rk45_adaptive
        atol, rtol, n2 = settings.atol, settings.rtol, 2 * m
        h = min((T - t) / 100.0, 1.0, settings.max_step)
        while t < T:
            if stats.accepted + stats.rejected >= settings.max_steps:
                raise StepSizeError(f"step budget exhausted at t = {t:.6g}, h = {h:.3g}", t, h)
            h = min(h, T - t)
            c1, c2, c3, c4, c5 = consts([t + c * h for c in _C])
            XN, YN, KXN, KYN, SX, SY = [], [], [], [], [], []
            for i in lanes:
                x, y, kx0, ky0 = X[i], Y[i], KX[i], KY[i]
                # u + h * (_A10 * k0), u + h * (_A20 * k0 + _A21 * k1), ...
                kx1, ky1 = g(i, c1, x + h * (_A10 * kx0), y + h * (_A10 * ky0))
                kx2, ky2 = g(i, c2, x + h * (_A20 * kx0 + _A21 * kx1),
                             y + h * (_A20 * ky0 + _A21 * ky1))
                kx3, ky3 = g(i, c3, x + h * (_A30 * kx0 + _A31 * kx1 + _A32 * kx2),
                             y + h * (_A30 * ky0 + _A31 * ky1 + _A32 * ky2))
                kx4, ky4 = g(i, c4, x + h * (_A40 * kx0 + _A41 * kx1 + _A42 * kx2 + _A43 * kx3),
                             y + h * (_A40 * ky0 + _A41 * ky1 + _A42 * ky2 + _A43 * ky3))
                kx5, ky5 = g(i, c5, x + h * (_A50 * kx0 + _A51 * kx1 + _A52 * kx2 + _A53 * kx3
                                             + _A54 * kx4),
                             y + h * (_A50 * ky0 + _A51 * ky1 + _A52 * ky2 + _A53 * ky3
                                      + _A54 * ky4))
                xn = x + h * (_A60 * kx0 + _A62 * kx2 + _A63 * kx3 + _A64 * kx4 + _A65 * kx5)
                yn = y + h * (_A60 * ky0 + _A62 * ky2 + _A63 * ky3 + _A64 * ky4 + _A65 * ky5)
                kx6, ky6 = g(i, c5, xn, yn)
                # err = h * (_E0 * k0 + _E2 * k2 + ... + _E6 * k6)
                # scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new)); max
                # may skip a NaN that np.maximum keeps, but a NaN in u_new also
                # reaches err through k6 = g(u_new), so the norm is NaN anyway
                qx = (h * (_E0 * kx0 + _E2 * kx2 + _E3 * kx3 + _E4 * kx4 + _E5 * kx5
                           + _E6 * kx6) / (atol + rtol * maximum(abs(x), abs(xn))))
                qy = (h * (_E0 * ky0 + _E2 * ky2 + _E3 * ky3 + _E4 * ky4 + _E5 * ky5
                           + _E6 * ky6) / (atol + rtol * maximum(abs(y), abs(yn))))
                XN.append(xn)
                YN.append(yn)
                KXN.append(kx6)
                KYN.append(ky6)
                SX.append(qx * qx)
                SY.append(qy * qy)
            stats.nfev += 6
            # err_norm = sqrt(mean((err / scale) ** 2)), the 2m squares summed
            # left to right, x block first
            total = 0.0
            for q2 in flat(SX) + flat(SY):
                total += q2
            err_norm = math.sqrt(total / n2)
            if not math.isfinite(err_norm):
                raise DivergenceError(
                    f"non-finite stage in the step at t = {t:.6g}, h = {h:.3g}", t, h)
            if err_norm <= 1.0:
                t_prev = t
                t = T if (T - t - h) <= 1e-15 * T else t + h
                # FSAL: the last stage is the derivative at the new point
                X, Y, KX, KY = XN, YN, KXN, KYN
                u = flat(X) + flat(Y)
                _check_state(settings, t_prev, h, u)
                _accept(stats, h, samples, stride, t >= T, t, u, flat(KX))
            else:
                stats.rejected += 1
            factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            h = min(h, settings.max_step)
            if h < _MIN_STEP:
                raise StepSizeError(f"step size collapsed to {h:.3g} at t = {t:.6g}", t, h)

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
    b, lam, eps = (fn(ts)[:, None] for fn in (s.b, s.lam, s.eps))
    xs, mid = traj.xs, slice(1, -1)
    grads = _grad(cfg.objective.prox, lam, xs)
    xdd = (xs[2:] - 2.0 * xs[mid] + xs[:-2]) / h ** 2
    gdot = (grads[2:] - grads[:-2]) / (2.0 * h)
    res = (xdd + (cfg.alpha / ts[mid, None]) * traj.xdots[mid] + cfg.beta * gdot
           + b[mid] * grads[mid] + eps[mid] * xs[mid])
    return float(np.max(np.linalg.norm(res, axis=1)))
