"""Time-dependent parameter schedules and their admissibility conditions.

A :class:`Schedule` carries the time scaling b(t), the smoothing index
lambda(t) and the Tikhonov weight eps(t) together with their derivatives.
The checkers certify the fast-rate, strong-convergence and critical-damping
(alpha = 3) regimes from one condition table, ``_FAMILIES``: per regime, its
rules in report order, each mapping a per-report ``_Context`` to a Verdict.
A condition that regimes share is one rule builder fed each regime's
constants.  Pointwise conditions use a geometric grid, a sparse far grid
and, for polynomial families, the sign of the dominant monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import InfeasibleError, ParameterDomainError, ValidationError
from .objectives import Objective, as_point

__all__ = [
    "LambdaForm",
    "PolyParams",
    "Schedule",
    "SystemConfig",
    "ConditionQuery",
    "Verdict",
    "ConditionReport",
    "polynomial_schedule",
    "eval_schedule",
    "check_fast_rate_conditions",
    "check_strong_conv_conditions",
    "check_alpha3_conditions",
    "energy_descent_start",
    "suggest_t0",
    "suggest_t0_strong",
    "suggest_t0_alpha3",
]

_DUST = 1e-9  # relative slack for float dust on exact boundary cases


@dataclass(frozen=True)
class LambdaForm:
    """Smoothing-index family: constant c, power t**l, or bounded 1 - t**(-l)."""

    kind: str = "constant"
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "power", "bounded"):
            raise ParameterDomainError(f"unknown lambda form {self.kind!r}")
        v = float(self.value)
        if self.kind == "constant" and v <= 0.0:
            raise ParameterDomainError("constant lambda must be positive")
        if self.kind == "power" and v < 0.0:
            raise ParameterDomainError("power lambda exponent must be >= 0")
        if self.kind == "bounded" and v <= 0.0:
            raise ParameterDomainError("bounded lambda exponent must be positive")

    def fn(self, t):
        if self.kind == "constant":
            return self.value * np.ones_like(np.asarray(t, dtype=float))
        if self.kind == "power":
            return np.asarray(t, dtype=float) ** self.value
        return 1.0 - np.asarray(t, dtype=float) ** (-self.value)

    def dot(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant" or (self.kind == "power" and self.value == 0.0):
            return np.zeros_like(t)
        if self.kind == "power":
            return self.value * t ** (self.value - 1.0)
        return self.value * t ** (-self.value - 1.0)

    def dot_monomials(self):
        """lambda_dot as [(coef, exponent)] monomials."""
        if self.kind == "constant" or (self.kind == "power" and self.value == 0.0):
            return []
        if self.kind == "power":
            return [(self.value, self.value - 1.0)]
        return [(self.value, -self.value - 1.0)]

    def bounded(self) -> bool:
        return self.kind != "power" or self.value == 0.0


@dataclass(frozen=True)
class PolyParams:
    """Polynomial family b(t) = b_coeff * t**n, eps(t) = eps_coeff / t**d."""

    b_coeff: float = 1.0
    n: float = 0.0
    eps_coeff: float = 1.0
    d: float = 3.0
    lam: LambdaForm = field(default_factory=LambdaForm)

    def __post_init__(self):
        if self.b_coeff <= 0.0:
            raise ParameterDomainError("b_coeff must be positive")
        if self.n < 0.0:
            raise ParameterDomainError("n must be >= 0")
        if self.eps_coeff < 0.0:
            raise ParameterDomainError("eps_coeff must be >= 0")
        if self.d <= 0.0:
            raise ParameterDomainError("d must be positive")


@dataclass(frozen=True)
class Schedule:
    """Callable bundle (b, lambda, eps) with derivatives on [t0, inf)."""

    t0: float
    b: Callable
    b_dot: Callable
    lam: Callable
    lam_dot: Callable
    eps: Callable
    eps_dot: Callable
    family: str = "custom"
    poly: Optional[PolyParams] = None


def polynomial_schedule(params: PolyParams, t0: float) -> Schedule:
    """Build the polynomial family schedule anchored at t0 > 0."""
    t0 = float(t0)
    if t0 <= 0.0:
        raise ParameterDomainError("t0 must be positive")
    B, n, E, d = params.b_coeff, params.n, params.eps_coeff, params.d

    def b(t):
        return B * np.asarray(t, dtype=float) ** n

    def b_dot(t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if n == 0.0 else B * n * t ** (n - 1.0)

    def eps(t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if E == 0.0 else E * t ** (-d)

    def eps_dot(t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if E == 0.0 else -E * d * t ** (-d - 1.0)

    return Schedule(
        t0=t0,
        b=b,
        b_dot=b_dot,
        lam=params.lam.fn,
        lam_dot=params.lam.dot,
        eps=eps,
        eps_dot=eps_dot,
        family="polynomial",
        poly=params,
    )


def eval_schedule(s: Schedule, t: float):
    """Evaluate (b, lam, eps, b_dot, lam_dot, eps_dot) at a single time t >= t0."""
    t = float(t)
    if t < s.t0 * (1.0 - 1e-12):
        raise ParameterDomainError(f"t = {t} is below the schedule start t0 = {s.t0}")
    return (
        float(s.b(t)),
        float(s.lam(t)),
        float(s.eps(t)),
        float(s.b_dot(t)),
        float(s.lam_dot(t)),
        float(s.eps_dot(t)),
    )


@dataclass
class SystemConfig:
    """Full description of one flow: objective, schedule and system constants."""

    objective: Objective
    schedule: Schedule
    alpha: float
    beta: float
    t0: float
    x0: np.ndarray
    xdot0: np.ndarray
    horizon: float
    lambda_floor: float = 1e-8

    def __post_init__(self):
        self.x0 = as_point(self.x0, self.objective.dim)
        self.xdot0 = as_point(self.xdot0, self.objective.dim)

    def validate(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValidationError("alpha must be a positive real")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValidationError("beta must be a nonnegative real")
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ValidationError("t0 must be positive")
        if not (math.isfinite(self.horizon) and self.horizon > self.t0):
            raise ValidationError("horizon must exceed t0")
        if self.lambda_floor <= 0.0:
            raise ValidationError("lambda_floor must be positive")
        if self.schedule.t0 > self.t0 * (1.0 + 1e-12):
            raise ValidationError("schedule starts after the system t0")
        ts = np.geomspace(self.t0, self.horizon, 512)
        lam = np.asarray(self.schedule.lam(ts))
        if np.min(lam) < self.lambda_floor:
            raise ValidationError(
                f"lambda(t) dips to {np.min(lam):.3g} below the floor {self.lambda_floor:.3g}"
            )
        bb = np.asarray(self.schedule.b(ts))
        if np.min(bb) <= 0.0:
            raise ValidationError("b(t) must stay positive on [t0, horizon]")
        ee = np.asarray(self.schedule.eps(ts))
        if np.min(ee) < 0.0:
            raise ValidationError("eps(t) must be nonnegative")
        if np.any(np.diff(ee) > 1e-12 * max(1.0, float(np.max(ee)))):
            raise ValidationError("eps(t) must be nonincreasing")
        if np.max(ee) > 0.0 and not ee[-1] < ee[0]:
            raise ValidationError("eps(t) must strictly decrease over the horizon")

    def query(self) -> "ConditionQuery":
        return ConditionQuery(self.alpha, self.beta, self.t0, self.schedule)


@dataclass(frozen=True)
class ConditionQuery:
    """The slice of a configuration that the condition checkers need."""

    alpha: float
    beta: float
    t0: float
    schedule: Schedule


def _as_query(cfg: Union[SystemConfig, ConditionQuery]) -> ConditionQuery:
    return cfg if isinstance(cfg, ConditionQuery) else cfg.query()


@dataclass
class Verdict:
    condition: str
    passed: bool
    margin: float
    witness_t: Optional[float] = None
    detail: str = ""


@dataclass
class ConditionReport:
    setting: str
    verdicts: list
    feasible_a: Optional[tuple] = None
    warnings: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failed(self) -> list:
        return [v.condition for v in self.verdicts if not v.passed]

    def verdict(self, condition: str) -> Verdict:
        for v in self.verdicts:
            if v.condition == condition:
                return v
        raise KeyError(condition)

    def format(self) -> str:
        lines = [f"setting: {self.setting}"]
        for v in self.verdicts:
            mark = "pass" if v.passed else "FAIL"
            where = f" at t={v.witness_t:.6g}" if v.witness_t is not None else ""
            extra = f"  ({v.detail})" if v.detail else ""
            lines.append(f"  [{mark}] {v.condition}: margin {v.margin:.6g}{where}{extra}")
        if self.feasible_a is not None:
            lo, hi = self.feasible_a
            hi_txt = "inf" if math.isinf(hi) else f"{hi:.6g}"
            lines.append(f"  feasible a interval: [{lo:.6g}, {hi_txt}]")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        lines.append(f"result: {'all conditions hold' if self.all_pass else 'FAILED: ' + ', '.join(self.failed())}")
        return "\n".join(lines)


def _condition_grid(t0: float, span: float = 100.0, npts: int = 512) -> np.ndarray:
    """Geometric grid on [t0, span * t0] used for pointwise condition checks."""
    return np.geomspace(t0, span * t0, npts)


class _Context:
    """One query and what its conditions share, evaluated once per report.

    ``ts`` is the near grid on [t0, 100 t0], then the far grid up to 1e6 t0.
    Rules fill ``feasible_a`` (eps_decay_speed) and ``warnings``.
    """

    def __init__(self, q: ConditionQuery):
        self.q = q
        self.s = s = q.schedule
        self.poly = s.poly
        self.b0 = float(s.b(q.t0))
        self.near = _condition_grid(q.t0)
        self.ts = np.concatenate([self.near, np.geomspace(100.0 * q.t0, 1e6 * q.t0, 64)])
        if s.poly is not None:
            self.eps_zero = s.poly.eps_coeff == 0.0
        else:
            eps = np.asarray(s.eps(_condition_grid(q.t0, npts=64)))
            self.eps_zero = bool(np.max(np.abs(eps)) == 0.0)
        self.feasible_a = None
        self.warnings = []


def _pointwise_verdict(c: _Context, cond: str, vals, sense: str,
                       monomials=None, detail: str = "") -> Verdict:
    """Check vals >= 0 (sense 'ge') or <= 0 ('le'), where vals holds the
    condition's values on c.ts.  Given [(coef, exponent)] monomials of the
    condition, the sign of the dominant one decides the tail."""
    vals = np.asarray(vals, dtype=float)
    signed = vals if sense == "ge" else -vals
    k = int(np.argmin(signed))
    margin = float(signed[k])
    tol = _DUST * max(1.0, float(np.max(np.abs(vals))))
    ok = margin >= -tol
    notes = [detail] if detail else []
    if monomials is None:
        notes.append("tail checked numerically up to 1e6 * t0")
    else:
        agg = {}
        for coef, e in monomials:
            agg[e] = agg.get(e, 0.0) + coef
        scale = max([abs(a) for a in agg.values()] + [1.0])
        items = [(e, a) for e, a in agg.items() if abs(a) > 1e-13 * scale]
        if items:
            e, a = max(items)
            ok = ok and (a > 0 if sense == "ge" else a < 0)
            notes.append(f"tail: dominant term {a:.6g} * t^{e:.6g}")
        else:
            notes.append("tail: expression vanishes asymptotically")
    return Verdict(cond, bool(ok), margin, float(c.ts[k]), "; ".join(notes))


def _alpha_above_3(c: _Context) -> Verdict:
    a = c.q.alpha
    return Verdict("alpha_above_3", a > 3.0, a - 3.0, None, f"alpha = {a:.6g}")


def _alpha_is_3(c: _Context) -> Verdict:
    a = c.q.alpha
    return Verdict("alpha_is_3", abs(a - 3.0) <= 1e-12, -abs(a - 3.0), None, f"alpha = {a:.6g}")


def _cap_terms(c: _Context, third: bool):
    """Values on c.ts and monomials of the growth cap c1 t b - t^2 b_dot + c0:
    (alpha - 3) t b - t^2 b_dot + beta (2 - alpha), or with third set its
    alpha/3 form (alpha/3 - 1) t b - t^2 b_dot + alpha beta / 3."""
    a, beta, ts, s, p = c.q.alpha, c.q.beta, c.ts, c.s, c.poly
    c1, c0 = (a / 3.0 - 1.0, a * beta / 3.0) if third else (a - 3.0, beta * (2.0 - a))
    vals = c1 * ts * np.asarray(s.b(ts)) - ts ** 2 * np.asarray(s.b_dot(ts)) + c0
    monos = None if p is None else [(p.b_coeff * (c1 - p.n), p.n + 1.0), (c0, 0.0)]
    return vals, monos


def _cap(third: bool):
    """The growth cap >= 0 for all t >= t0."""
    def rule(c: _Context) -> Verdict:
        vals, monos = _cap_terms(c, third)
        return _pointwise_verdict(c, "b_growth_cap_third" if third else "b_growth_cap",
                                  vals, "ge", monos)
    return rule


def _b_growth_margin(c: _Context) -> Verdict:
    """Strict cap: the plain cap is >= delta t b(t) for some delta in (0, alpha - 3)."""
    alpha, p, ts = c.q.alpha, c.poly, c.ts
    tb = ts * np.asarray(c.s.b(ts))
    rel = _cap_terms(c, third=False)[0] / np.where(tb > 0, tb, np.inf)
    k = int(np.argmin(rel))
    delta_sup = float(rel[k])
    if p is not None and p.n > 0:
        # relative margin tends to alpha - 3 - n; the grid minimum rules the infimum
        delta_sup = min(delta_sup, alpha - 3.0 - p.n)
    strict_ok = delta_sup > _DUST and alpha > 3.0
    delta_pick = min(delta_sup, alpha - 3.0) * (1.0 - 1e-9) if strict_ok else 0.0
    return Verdict("b_growth_margin", bool(strict_ok), delta_sup, float(ts[k]),
                   f"largest usable margin delta = {delta_pick:.6g}")


def _feasible_a(c: _Context):
    """Interval of a >= 1 with 2 * eps_dot <= -a * beta * eps^2 and b(t0) > 1/a.

    Returns (interval_or_None, detail, margin).  The upper endpoint is inf
    when beta = 0 or eps is identically zero.
    """
    q, s = c.q, c.s
    a_lo = 1.0
    if c.b0 <= 1.0:
        a_lo = (1.0 / c.b0) * (1.0 + 1e-12)  # keep b(t0) > 1/a strict
    if q.beta == 0.0 or c.eps_zero:
        if np.max(np.asarray(s.eps_dot(c.near))) > _DUST:
            return None, "eps must be nonincreasing", -1.0
        return (a_lo, math.inf), "any a works: the quadratic decay bound is inactive", math.inf
    if s.poly is not None:
        E, d = s.poly.eps_coeff, s.poly.d
        if d < 1.0:
            return None, "eps decays too slowly: admissible a shrinks to zero", -1.0
        denom = q.beta * E
        if denom == 0.0:  # underflow of a denormal product
            return (a_lo, math.inf), "quadratic decay bound is numerically inactive", math.inf
        a_hi = (2.0 * d / denom) * q.t0 ** (d - 1.0)
    else:
        ee = np.asarray(s.eps(c.ts))
        ed = np.asarray(s.eps_dot(c.ts))
        mask = ee > 0.0
        if not np.any(mask):
            return (a_lo, math.inf), "eps vanishes on the grid", math.inf
        a_hi = float(np.min(-2.0 * ed[mask] / (q.beta * ee[mask] ** 2)))
    if a_hi < a_lo:
        return None, f"empty interval: upper bound {a_hi:.6g} below lower bound {a_lo:.6g}", a_hi - a_lo
    return (a_lo, a_hi), f"a in [{a_lo:.6g}, {a_hi:.6g}]", a_hi - a_lo


def _eps_decay_speed(c: _Context) -> Verdict:
    interval, detail, margin = _feasible_a(c)
    c.feasible_a = interval
    return Verdict("eps_decay_speed", interval is not None, margin, None, detail)


def _b0_at_least(name: str, offset: float, label: str):
    """Floor b(t0) >= offset + beta / t0; label names the right-hand side."""
    def rule(c: _Context) -> Verdict:
        need = offset + c.q.beta / c.q.t0
        return Verdict(name, c.b0 >= need - _DUST, c.b0 - need, c.q.t0,
                       f"b(t0) = {c.b0:.6g}, {label} = {need:.6g}")
    return rule


def _lambda_bounded(c: _Context) -> Verdict:
    if c.poly is not None:
        form = c.poly.lam
        ok = form.bounded()
        return Verdict("lambda_bounded", ok, 1.0 if ok else -1.0, None,
                       f"lambda family {form.kind!r}")
    lam_mid = float(c.s.lam(100.0 * c.q.t0))
    lam_far = float(c.s.lam(1e6 * c.q.t0))
    ratio = lam_far / max(lam_mid, 1e-300)
    ok = ratio <= 1.05
    return Verdict("lambda_bounded", bool(ok), 1.05 - ratio, None,
                   f"numeric growth proxy lambda(1e6 t0)/lambda(100 t0) = {ratio:.4g}")


def _b_constant(c: _Context) -> Verdict:
    p = c.poly
    if p is not None:
        return Verdict("b_constant", p.n == 0.0, -p.n, None, f"n = {p.n:.6g}")
    bd = float(np.max(np.abs(np.asarray(c.s.b_dot(c.near)))))
    return Verdict("b_constant", bd <= _DUST, -bd, None, "numeric: max |b_dot| on the grid")


def _integrable(name: str, integrand, slack, rule: str):
    """Integrability of integrand(schedule, t) over [t0, inf): exact for
    polynomial families, which pass when slack(poly) > 0 (the stated rule),
    else a doubling-window decay test of the running integral."""
    def check(c: _Context) -> Verdict:
        if c.eps_zero:
            return Verdict(name, True, math.inf, None, "eps is identically zero")
        if c.poly is not None:
            margin = slack(c.poly)
            return Verdict(name, bool(margin > 0.0), margin, None,
                           f"polynomial rule: requires {rule}")
        increments = []
        lo = 10.0 * c.q.t0
        for _ in range(7):
            ts = np.geomspace(lo, 2.0 * lo, 128)
            increments.append(float(np.trapezoid(integrand(c.s, ts), ts)))
            lo *= 2.0
        decaying = all(b <= a * (1.0 + _DUST) for a, b in zip(increments, increments[1:]))
        shrunk = increments[-1] < 0.2 * max(increments[0], 1e-300)
        return Verdict(name, bool(decaying and shrunk), increments[0] - increments[-1], None,
                       "numeric doubling-window integrability test")
    return check


def _strong_floor(alpha: float, beta: float) -> float:
    """The floor on 9 t^2 eps(t) in the strong-convergence regime."""
    return 2.0 * alpha * (alpha - 3.0) + 6.0 * alpha * beta


def _t2_eps_floor(c: _Context) -> Verdict:
    floor = _strong_floor(c.q.alpha, c.q.beta)
    p = c.poly
    vals = 9.0 * c.ts ** 2 * np.asarray(c.s.eps(c.ts)) - floor
    monos = None if p is None else [(9.0 * p.eps_coeff, 2.0 - p.d), (-floor, 0.0)]
    return _pointwise_verdict(c, "t2_eps_floor", vals, "ge", monos,
                              detail=f"needs 9 t^2 eps(t) >= {floor:.6g}")


def _t2_eps_diverges(c: _Context) -> Verdict:
    cond, p, s, t0 = "t2_eps_diverges", c.poly, c.s, c.q.t0
    if p is not None:
        if p.eps_coeff == 0.0:
            return Verdict(cond, False, -1.0, None, "eps is identically zero")
        return Verdict(cond, p.d < 2.0, 2.0 - p.d, None, "polynomial rule: requires d < 2")
    lo = float(t0 ** 2 * s.eps(t0))
    hi = float((1e4 * t0) ** 2 * s.eps(1e4 * t0))
    ok = hi > 1.2 * max(lo, 1e-300)
    return Verdict(cond, bool(ok), hi - lo, None, "numeric growth of t^2 eps(t)")


def _damping_balance(k: float, const):
    """2k beta t + k beta lam_dot - k t b (lam_dot + 2 beta) + const(alpha, beta) <= 0."""
    def rule(c: _Context) -> Verdict:
        beta, ts, s, p = c.q.beta, c.ts, c.s, c.poly
        cst = const(c.q.alpha, beta)
        ld = np.asarray(s.lam_dot(ts))
        vals = 2.0 * k * beta * ts + k * beta * ld \
            - k * ts * np.asarray(s.b(ts)) * (ld + 2.0 * beta) + cst
        monos = None
        if p is not None:
            monos = [(2.0 * k * beta, 1.0), (-2.0 * k * beta * p.b_coeff, p.n + 1.0), (cst, 0.0)]
            for coef, e in p.lam.dot_monomials():
                monos += [(k * beta * coef, e), (-k * p.b_coeff * coef, p.n + e)]
        return _pointwise_verdict(c, "damping_balance", vals, "le", monos)
    return rule


def _eps_tail_ratio(power):
    """Vanishing of  beta / (t^w eps(t)) * integral of s^w eps(s)^2  as t grows,
    with weight w = power(alpha)."""
    def rule(c: _Context) -> Verdict:
        cond, q, s = "eps_tail_ratio", c.q, c.s
        if q.beta == 0.0:
            return Verdict(cond, True, math.inf, None, "beta = 0 makes the ratio vanish")
        if c.eps_zero:
            return Verdict(cond, True, math.inf, None, "eps is identically zero")
        if s.poly is not None:
            d = s.poly.d
            if d < 1.0:
                return Verdict(cond, False, d - 1.0, None, "polynomial rule: requires d >= 1")
            if abs(d - 1.0) <= 1e-12:
                c.warnings.append(
                    "d = 1 with beta > 0: the weighted tail average converges to a positive "
                    "constant, so the vanishing-ratio certificate needs beta = 0; treating "
                    "this as a flagged pass"
                )
            return Verdict(cond, True, d - 1.0, None, "polynomial rule: d >= 1")
        # numeric fallback: cumulative ratio at doubling horizons
        w = power(q.alpha)
        ts = np.geomspace(q.t0, 1e4 * q.t0, 4096)
        integrand = ts ** w * np.asarray(s.eps(ts)) ** 2
        steps = np.diff(ts) * 0.5 * (integrand[1:] + integrand[:-1])
        cums = np.concatenate([[0.0], np.cumsum(steps)])
        ratios = []
        for T in q.t0 * np.array([100.0, 400.0, 1600.0, 6400.0]):
            k = min(int(np.searchsorted(ts, T)), ts.size - 1)
            denom = ts[k] ** w * float(s.eps(ts[k]))
            ratios.append(q.beta * cums[k] / max(denom, 1e-300))
        ok = all(b <= a * (1.0 + 1e-6) for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1e-3
        return Verdict(cond, bool(ok), 1e-3 - ratios[-1], None,
                       f"numeric ratio sequence {', '.join(f'{r:.3g}' for r in ratios)}")
    return rule


def _exponent_box(slacks, strict_hi: bool):
    """Polynomial exponent box: the family's slacks(poly, alpha), then d >= 1,
    d >= beta eps_coeff / 2 and d <= 2 (strictly when strict_hi).  The
    smallest slack binds."""
    def rule(c: _Context):
        p = c.poly
        if p is None:
            return None
        box = slacks(p, c.q.alpha)
        box["d >= 1"] = p.d - 1.0
        box["d >= beta*eps_coeff/2"] = p.d - c.q.beta * p.eps_coeff / 2.0
        box["d < 2" if strict_hi else "d <= 2"] = 2.0 - p.d
        worst = min(box, key=box.get)
        ok = box[worst] >= -_DUST
        if strict_hi:
            ok = ok and p.d < 2.0
        return Verdict("poly_exponent_box", ok, box[worst], None, f"binding: {worst}")
    return rule


# Each regime's conditions, in report order.
_FAMILIES = {
    "fast": (
        _alpha_above_3,
        _cap(third=False),
        _b_growth_margin,
        _eps_decay_speed,
        _b0_at_least("b0_vs_beta", 0.0, "beta/t0"),
        _integrable("t_eps_integrable", lambda s, ts: ts * np.asarray(s.eps(ts)),
                    lambda p: p.d - 2.0, "d > 2"),
    ),
    "strong": (
        _alpha_above_3,
        _lambda_bounded,
        _b0_at_least("b0_half_plus_beta", 0.5, "1/2 + beta/t0"),
        _cap(third=False),
        _cap(third=True),
        _eps_decay_speed,
        _integrable("eps_over_tb_integrable",
                    lambda s, ts: np.asarray(s.eps(ts)) / (ts * np.asarray(s.b(ts))),
                    lambda p: p.n + p.d, "n + d > 0"),
        _t2_eps_floor,
        _damping_balance(9.0, lambda alpha, beta:
                         3.0 * (alpha + 3.0) * beta ** 2 + alpha ** 2 * beta),
        _eps_tail_ratio(lambda a: a / 3.0 + 1.0),
        _exponent_box(lambda p, a: {"n >= 0": p.n, "n <= (alpha-3)/3": (a - 3.0) / 3.0 - p.n},
                      strict_hi=False),
    ),
    "alpha3": (
        _alpha_is_3,
        _b_constant,
        _b0_at_least("b0_half_plus_beta", 0.5, "1/2 + beta/t0"),
        _lambda_bounded,
        _eps_decay_speed,
        _integrable("eps_over_t_integrable", lambda s, ts: np.asarray(s.eps(ts)) / ts,
                    lambda p: p.d, "d > 0"),
        _t2_eps_diverges,
        _damping_balance(1.0, lambda alpha, beta: 2.0 * beta ** 2 + beta),
        _eps_tail_ratio(lambda a: 2.0),
        _exponent_box(lambda p, a: {"b_coeff >= 1": p.b_coeff - 1.0}, strict_hi=True),
    ),
}


def _check(setting: str, cfg) -> ConditionReport:
    """Evaluate one regime of the condition table."""
    c = _Context(_as_query(cfg))
    verdicts = [v for v in (rule(c) for rule in _FAMILIES[setting]) if v is not None]
    return ConditionReport(setting, verdicts, feasible_a=c.feasible_a, warnings=c.warnings)


def check_fast_rate_conditions(cfg) -> ConditionReport:
    """Certify the hypotheses for the fast value-gap and velocity rates.

    Requires alpha > 3, a cap on the growth of the time scale relative to
    (alpha - 3) b(t) (in plain and strictly-margined form), an eps decay at
    least quadratic against beta, integrability of t * eps(t), and a floor
    on b(t0).
    """
    return _check("fast", cfg)


def check_strong_conv_conditions(cfg) -> ConditionReport:
    """Certify the hypotheses for strong convergence to the least-norm minimizer."""
    return _check("strong", cfg)


def check_alpha3_conditions(cfg) -> ConditionReport:
    """Certify the critical-damping regime alpha = 3 with constant time scale."""
    return _check("alpha3", cfg)


def _energy_index(q: Optional[float], alpha: float) -> Optional[float]:
    """The energy index in use: q when given, else alpha - 1 when that is at
    least 2, else None (alpha < 3 leaves no admissible default)."""
    if q is None and alpha - 1.0 >= 2.0:
        return alpha - 1.0
    return q


def _check_energy_index(q: float, alpha: float) -> None:
    if not 2.0 <= q <= alpha - 1.0:
        raise ParameterDomainError(f"q must lie in [2, alpha - 1] = [2, {alpha - 1.0:.6g}], got {q:.6g}")


def energy_descent_start(cfg, q: float, a: float) -> float:
    """First time past which the anchored energy with index q is nonincreasing
    up to the Tikhonov source term.

    Returns max(t0, t_settle, beta / (b(t0) - 1/a)) where t_settle is the
    first time with t^2 b(t) >= beta (q + 2 - alpha) t from then on.
    """
    query = _as_query(cfg)
    s = query.schedule
    alpha, beta, t0 = query.alpha, query.beta, query.t0
    if a < 1.0:
        raise ParameterDomainError("a must be >= 1")
    _check_energy_index(q, alpha)
    b0 = float(s.b(t0))
    if b0 * a <= 1.0:
        raise InfeasibleError(f"need b(t0) > 1/a, got b(t0) = {b0:.6g}, 1/a = {1.0 / a:.6g}")
    coef = beta * (q + 2.0 - alpha)
    if coef <= 0.0:
        t_settle = t0
    elif s.poly is not None:
        # t^2 b(t) - coef * t >= 0  <=>  t >= (coef / b_coeff)^(1/(n+1))
        t_settle = max(t0, (coef / s.poly.b_coeff) ** (1.0 / (s.poly.n + 1.0)))
    else:
        ts = _condition_grid(t0, span=1e4, npts=2048)
        vals = ts ** 2 * np.asarray(s.b(ts)) - coef * ts
        bad = np.nonzero(vals < 0.0)[0]
        if bad.size and bad[-1] == ts.size - 1:
            raise InfeasibleError("t^2 b(t) never dominates the beta term on the search grid")
        t_settle = t0 if not bad.size else float(ts[bad[-1] + 1])
    if beta > 0.0:
        t_settle = max(t_settle, beta / (b0 - 1.0 / a))
    return max(t0, t_settle)


def suggest_t0(params: PolyParams, alpha: float, beta: float, slack: float = 0.0) -> float:
    """Smallest clean starting time for the fast-rate certificate of the
    polynomial family, per the sufficient exponent box n < alpha - 3, d > 2.

    With slack = 0 the strictly-margined growth condition can sit exactly on
    its boundary; pass a positive slack to stand clear of it.
    """
    B, n, E, d = params.b_coeff, params.n, params.eps_coeff, params.d
    if alpha - 3.0 - n <= 0.0:
        raise InfeasibleError(f"requires n < alpha - 3, got n = {n:.6g}, alpha = {alpha:.6g}")
    if E > 0.0:
        if d <= 2.0:
            raise InfeasibleError(f"requires d > 2 for integrable t * eps(t), got d = {d:.6g}")
        if d < beta * E / 2.0:
            raise InfeasibleError(
                f"requires d >= beta * eps_coeff / 2 = {beta * E / 2.0:.6g}, got d = {d:.6g}")
    cands = [
        (beta / B) ** (1.0 / (n + 1.0)),
        (beta * (alpha - 2.0) / (B * (alpha - 3.0 - n))) ** (1.0 / (n + 1.0)),
    ]
    t0 = max(cands)
    if beta == 0.0:
        t0 = max(t0, 1.0)
    if beta > 0.0 and E > 0.0:
        # raise t0 until the admissible-a interval [a_lo, 2d/(beta E) t0^(d-1)]
        # is nonempty; a no-op whenever the base value already qualifies
        for _ in range(50):
            b0 = B * t0 ** n
            a_lo = max(1.0, 1.0 / b0) * (1.0 + 1e-12)
            required = (a_lo * beta * E / (2.0 * d)) ** (1.0 / (d - 1.0))
            if t0 >= required:
                break
            t0 = required * (1.0 + 1e-9)
    return t0 * (1.0 + slack)


def _escalate(params: PolyParams, alpha: float, beta: float, checker, t0: float) -> float:
    for _ in range(80):
        sched = polynomial_schedule(params, t0)
        report = checker(ConditionQuery(alpha, beta, t0, sched))
        if report.all_pass:
            return t0
        t0 *= 1.5
    raise InfeasibleError(
        f"no starting time found; still failing: {', '.join(report.failed())}")


def suggest_t0_strong(params: PolyParams, alpha: float, beta: float) -> float:
    """A starting time from which the strong-convergence certificate holds,
    found from the analytic binding constraints plus geometric escalation."""
    B, n, E, d = params.b_coeff, params.n, params.eps_coeff, params.d
    if E == 0.0:
        raise InfeasibleError("strong-convergence certificate needs eps > 0")
    floor = _strong_floor(alpha, beta)
    cands = [1.0]
    if params.lam.kind == "bounded":
        cands.append(1.05)
    if d < 2.0:
        cands.append((floor / (9.0 * E)) ** (1.0 / (2.0 - d)))
    elif 9.0 * E < floor:
        raise InfeasibleError("t^2 eps(t) cannot reach the required floor for d >= 2")
    if beta > 0.0 and alpha - 3.0 - n > 0.0:
        cands.append((beta * (alpha - 2.0) / (B * (alpha - 3.0 - n))) ** (1.0 / (n + 1.0)))
    return _escalate(params, alpha, beta, check_strong_conv_conditions, max(cands))


def suggest_t0_alpha3(params: PolyParams, beta: float) -> float:
    """A starting time from which the critical-damping certificate holds."""
    B = params.b_coeff
    cands = [1.0]
    if params.lam.kind == "bounded":
        cands.append(1.05)
    if beta > 0.0:
        if B <= 0.5:
            raise InfeasibleError("needs b > 1/2 + beta/t0, impossible for b <= 1/2")
        cands.append(beta / (B - 0.5))
        if B > 1.0:
            cands.append(max(beta / B, (2.0 * beta ** 2 + beta) / (2.0 * beta * (B - 1.0))))
    return _escalate(params, 3.0, beta, check_alpha3_conditions, max(cands))
