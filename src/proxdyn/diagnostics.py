"""Energies, rate fits and convergence metrics along trajectories.

Everything here is pure post-processing of the exact state and reconstructed
velocity at each sample.  compute_observables makes one prox call over all
samples, plus one for the Tikhonov centers, and yields every scalar CSV
column; the descent check and the strong-convergence metrics read those
columns, and the single-sample energies are one-row batches of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, ParameterDomainError, ValidationError
from .objectives import Objective, as_point, tikhonov_center
from .schedules import SystemConfig, _check_energy_index, _energy_index, energy_descent_start
from .dynamics import Trajectory

__all__ = [
    "Observables",
    "RateFit",
    "DescentReport",
    "StrongConvReport",
    "compute_observables",
    "energy_q",
    "energy_pq",
    "unanchored_energy",
    "canonical_pq",
    "energy_q_series",
    "unanchored_energy_series",
    "check_energy_descent",
    "fit_rate_slope",
    "strong_convergence_metrics",
]


@dataclass
class Observables:
    """Per-sample scalar diagnostics of one trajectory; arrays share its length.

    energy_q and psi use the energy index q; q is None and both columns are
    NaN when alpha < 3 leaves no admissible default.
    """

    traj: Trajectory
    q: Optional[float]
    moreau_gap: np.ndarray
    function_gap: np.ndarray
    grad_norm: np.ndarray
    prox_dist: np.ndarray
    velocity_combo: np.ndarray
    dist_to_xstar: np.ndarray
    tikhonov_gap: np.ndarray
    energy_q: np.ndarray
    psi: np.ndarray

    # the scalar CSV columns, in file order
    FIELDS = ("moreau_gap", "function_gap", "grad_norm", "prox_dist",
              "velocity_combo", "dist_to_xstar", "tikhonov_gap", "energy_q", "psi")

    @property
    def ts(self) -> np.ndarray:
        return self.traj.ts


def _require_targets(obj: Objective):
    if obj.phi_star is None or obj.x_star is None:
        raise ValidationError(
            f"objective {obj.name!r} lacks phi_star / x_star targets")
    return float(obj.phi_star), np.asarray(obj.x_star, dtype=float)


def _sq(v: np.ndarray) -> np.ndarray:
    return np.sum(v * v, axis=-1)


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq(v))


def _anchored(env, q: float) -> np.ndarray:
    """The rows q (x - x*) + t (xdot + beta grad)."""
    return q * (env.xs - env.x_star) + env.ts[:, None] * env.w


def _envelope(cfg: SystemConfig, ts, xs, xdots) -> SimpleNamespace:
    """Schedule values, prox points, envelope gap and gradient g, and
    w = xdot + beta g at N samples, from one prox call over the (N, m) array."""
    obj = cfg.objective
    phi_star, x_star = _require_targets(obj)
    s = cfg.schedule
    lam = np.asarray(s.lam(ts), dtype=float)
    p = obj.prox(lam[:, None], xs)
    value = obj.value(p)
    g = (xs - p) / lam[:, None]
    return SimpleNamespace(
        ts=ts, xs=xs, x_star=x_star, lam=lam, p=p, g=g, w=xdots + cfg.beta * g,
        b=np.asarray(s.b(ts), dtype=float), eps=np.asarray(s.eps(ts), dtype=float),
        function_gap=value - phi_star, gap=value + _sq(xs - p) / (2.0 * lam) - phi_star)


def _columns(cfg: SystemConfig, ts, xs, xdots, q: Optional[float]) -> dict:
    """Every scalar CSV column at a batch of samples: two prox calls in all."""
    env = _envelope(cfg, ts, xs, xdots)
    on = env.eps > 0.0
    tikhonov_gap = np.full(ts.size, math.nan)
    centers = tikhonov_center(cfg.objective, env.lam[on, None], env.eps[on, None])
    tikhonov_gap[on] = _norm(xs[on] - centers)
    cols = {
        "moreau_gap": env.gap,
        "function_gap": env.function_gap,
        "grad_norm": _norm(env.g),
        "prox_dist": _norm(xs - env.p),
        "velocity_combo": _norm(env.w),
        "dist_to_xstar": _norm(xs - env.x_star),
        "tikhonov_gap": tikhonov_gap,
    }
    if q is None:
        return dict(cols, energy_q=np.full(ts.size, math.nan), psi=np.full(ts.size, math.nan))
    _check_energy_index(q, cfg.alpha)
    t, alpha = ts, cfg.alpha
    # prefactor and Tikhonov terms, shared by both energies (see energy_q)
    common = ((t ** 2 * env.b - cfg.beta * (q + 2.0 - alpha) * t) * env.gap
              + 0.5 * t ** 2 * env.eps * _sq(xs))
    cols["energy_q"] = (common + 0.5 * _sq(_anchored(env, q))
                        + 0.5 * q * (alpha - 1.0 - q) * _sq(xs - env.x_star))
    cols["psi"] = common + 0.5 * t ** 2 * _sq(env.w)
    return cols


def compute_observables(traj: Trajectory, q: Optional[float] = None) -> Observables:
    """Evaluate every scalar CSV column at every sample of the trajectory.

    The energy columns use q = alpha - 1 unless another q in [2, alpha - 1]
    is given.
    """
    if len(traj) == 0:
        raise InsufficientDataError("empty trajectory")
    cfg = traj.cfg
    q = _energy_index(q, cfg.alpha)
    return Observables(traj=traj, q=q, **_columns(cfg, traj.ts, traj.xs, traj.xdots, q))


def _one_sample(sample, cfg: SystemConfig):
    """A (t, x, xdot) sample as a batch of one row."""
    t, x, xdot = sample
    dim = cfg.objective.dim
    return np.array([float(t)]), as_point(x, dim)[None], as_point(xdot, dim)[None]


def energy_q(sample, q: float, cfg: SystemConfig) -> float:
    """Anchored energy with index q in [2, alpha - 1] at one (t, x, xdot).

    (t^2 b - beta (q+2-alpha) t) (envelope gap) + (t^2 eps / 2) |x|^2
    + 1/2 |q (x - x*) + t (xdot + beta grad)|^2
    + (q (alpha-1-q) / 2) |x - x*|^2.
    """
    return float(_columns(cfg, *_one_sample(sample, cfg), q)["energy_q"][0])


def unanchored_energy(sample, q: float, cfg: SystemConfig) -> float:
    """The companion energy without anchor terms; same prefactor as energy_q.

    Differs from energy_q by exactly
    q t <xdot + beta grad, x - x*> + q (alpha - 1) / 2 |x - x*|^2.
    """
    return float(_columns(cfg, *_one_sample(sample, cfg), q)["psi"][0])


def energy_pq(sample, p: float, q: float, cfg: SystemConfig) -> float:
    """Two-index scaled energy used for the strong-convergence argument.

    t^(p+1) (t b + beta (alpha-p-q-2)) (envelope gap)
    + (eps t^(p+2) / 2) (|x|^2 - |x*|^2) + (t^p / 2) |v|^2.
    """
    if p < 0.0 or q < 0.0:
        raise ParameterDomainError("p and q must be nonnegative")
    env = _envelope(cfg, *_one_sample(sample, cfg))
    t = env.ts
    E = (t ** (p + 1.0) * (t * env.b + cfg.beta * (cfg.alpha - p - q - 2.0)) * env.gap
         + 0.5 * env.eps * t ** (p + 2.0) * (_sq(env.xs) - _sq(env.x_star))
         + 0.5 * t ** p * _sq(_anchored(env, q)))
    return float(E[0])


def canonical_pq(alpha: float):
    """The exponent pair the strong-convergence argument instantiates."""
    return (alpha - 3.0) / 3.0, 2.0 * alpha / 3.0


def energy_q_series(traj: Trajectory, q: float) -> np.ndarray:
    return compute_observables(traj, q).energy_q


def unanchored_energy_series(traj: Trajectory, q: float) -> np.ndarray:
    return compute_observables(traj, q).psi


@dataclass
class DescentReport:
    q: float
    a: float
    start_time: float
    intervals: int
    violations: int
    worst_excess: float
    excess_allowance: float
    passed: bool

    def format(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"[{state}] energy descent (q={self.q:.6g}, a={self.a:.6g}): "
                f"{self.violations}/{self.intervals} intervals above the source bound "
                f"past t={self.start_time:.6g}, worst excess {self.worst_excess:.3g} "
                f"(allowance {self.excess_allowance:.3g})")


def check_energy_descent(obs: Observables, a: float,
                         tol_fraction: float = 0.01) -> DescentReport:
    """Discrete check that the anchored energy column decreases up to the
    Tikhonov source term (q t eps(t) / 2) |x*|^2 past the descent start time.

    Tolerates a tol_fraction share of violating intervals, each within a
    discretization allowance of 1e-6 * max(1, max |E|).
    """
    if obs.q is None:
        raise ParameterDomainError("alpha < 3 leaves no admissible energy index q")
    cfg = obs.traj.cfg
    q = obs.q
    t_start = energy_descent_start(cfg, q=q, a=a)
    _, x_star = _require_targets(cfg.objective)
    mask = obs.ts >= t_start * (1.0 - 1e-12)
    if int(np.count_nonzero(mask)) < 3:
        raise InsufficientDataError(
            f"trajectory ends at {obs.ts[-1]:.6g}, too close to the descent "
            f"start {t_start:.6g}")
    ts = obs.ts[mask]
    E = obs.energy_q[mask]
    xs_sq = float(np.dot(x_star, x_star))
    eps_ts = np.asarray(cfg.schedule.eps(ts), dtype=float)
    bound = 0.5 * q * ts * eps_ts * xs_sq
    diffs = np.diff(E) / np.diff(ts)
    excess = diffs - bound[:-1]
    allowance = 1e-6 * max(1.0, float(np.max(np.abs(E))))
    dust = 1e-12 * max(1.0, float(np.max(np.abs(diffs))) if diffs.size else 1.0)
    bad = excess > dust
    violations = int(np.count_nonzero(bad))
    worst = float(np.max(excess[bad])) if violations else 0.0
    passed = (violations <= tol_fraction * excess.size) and worst <= allowance
    return DescentReport(q=q, a=a, start_time=t_start, intervals=int(excess.size),
                         violations=violations, worst_excess=worst,
                         excess_allowance=allowance, passed=bool(passed))


@dataclass
class RateFit:
    quantity: str
    window: tuple
    slope: float
    npoints: int
    theory_slope: Optional[float] = None
    margin: Optional[float] = None
    warning: str = ""

    def format(self) -> str:
        txt = (f"{self.quantity}: slope {self.slope:+.3f} on "
               f"t in [{self.window[0]:.4g}, {self.window[1]:.4g}] "
               f"({self.npoints} points)")
        if self.theory_slope is not None:
            txt += f", bound {self.theory_slope:+.3f}, margin {self.margin:+.3f}"
        if self.warning:
            txt += f"  [warning: {self.warning}]"
        return txt


def fit_rate_slope(ts, values, window=None, theory_slope: Optional[float] = None,
                   quantity: str = "") -> RateFit:
    """Least-squares slope of log(value) against log(t) over a window.

    The default window is the trajectory's last decade [T/10, T].  Nonpositive
    values (quantities at round-off) truncate the window with a warning; a
    negative margin means the fit is steeper (better) than the stated bound.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape or ts.ndim != 1:
        raise ParameterDomainError("ts and values must be 1-d arrays of equal length")
    if window is None:
        window = (ts[-1] / 10.0, ts[-1])
    lo, hi = float(window[0]), float(window[1])
    mask = (ts >= lo) & (ts <= hi)
    warning = ""
    sel = np.nonzero(mask)[0]
    vals = values[sel]
    nonpos = np.nonzero(vals <= 0.0)[0]
    if nonpos.size:
        sel = sel[: nonpos[0]]
        vals = values[sel]
        warning = ("window truncated at the first nonpositive value "
                   "(quantity reached round-off)")
    if sel.size < 20:
        raise InsufficientDataError(
            f"only {sel.size} usable points in the fit window [{lo:.4g}, {hi:.4g}]")
    slope = float(np.polyfit(np.log(ts[sel]), np.log(vals), 1)[0])
    margin = None if theory_slope is None else theory_slope - slope
    return RateFit(quantity=quantity, window=(float(ts[sel][0]), float(ts[sel][-1])),
                   slope=slope, npoints=int(sel.size), theory_slope=theory_slope,
                   margin=margin, warning=warning)


@dataclass
class StrongConvReport:
    final_dist: float
    min_dist: float
    final_tikhonov_gap: float
    crossings: int
    classification: str  # outside | inside | crossing | degenerate

    def format(self) -> str:
        return (f"strong convergence: final |x - x*| = {self.final_dist:.6g}, "
                f"running min {self.min_dist:.6g}, final Tikhonov gap "
                f"{self.final_tikhonov_gap:.6g}, norm-ball classification "
                f"{self.classification} ({self.crossings} crossings)")


def strong_convergence_metrics(obs: Observables) -> StrongConvReport:
    """Distance metrics to the least-norm minimizer plus the norm-ball
    classification (trajectory outside, inside, or crossing |x*|)."""
    traj = obs.traj
    _, x_star = _require_targets(traj.cfg.objective)
    final_dist = float(obs.dist_to_xstar[-1])
    min_dist = float(np.min(obs.dist_to_xstar))
    tik = obs.tikhonov_gap[np.isfinite(obs.tikhonov_gap)]
    final_tik = float(tik[-1]) if tik.size else math.nan
    norms = _norm(traj.xs)
    ref = float(np.linalg.norm(x_star))
    rel = norms - ref
    dust = 1e-12 * max(1.0, float(np.max(norms)))
    above = rel > dust
    below = rel < -dust
    signs = np.where(above, 1, np.where(below, -1, 0))
    live = signs[signs != 0]
    crossings = int(np.count_nonzero(np.diff(live) != 0)) if live.size else 0
    if not live.size:
        classification = "degenerate"
    elif crossings:
        classification = "crossing"
    elif live[0] > 0:
        classification = "outside"
    else:
        classification = "inside"
    return StrongConvReport(final_dist=final_dist, min_dist=min_dist,
                            final_tikhonov_gap=final_tik, crossings=crossings,
                            classification=classification)
