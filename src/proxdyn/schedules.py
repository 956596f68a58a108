"""Time-dependent parameter schedules and their admissibility conditions.

A :class:`PolyParams` is the schedule: the polynomial family's numbers and
its callables, the time scaling b(t) = B t**n, the Tikhonov weight eps(t) =
E t**(-d) and a constant, power or bounded smoothing index lambda(t), with
their derivatives, each a function of absolute t.  It is the only schedule
family there is.  A :class:`SystemConfig` is frozen and validates itself
once, as it is built.  The checkers certify the fast-rate,
strong-convergence and critical-damping (alpha = 3) regimes from one
condition table, ``_FAMILIES``: per regime, its rules in report order, each
mapping a query's ``_Context`` to a Verdict.  A rule that several regimes
list is one object there, and a condition that regimes share with other
constants is one rule builder fed each regime's constants.  Pointwise
conditions take their margin from a geometric grid and a sparse far grid
and decide the tail by the sign of the dominant monomial; a grid value
that overflows fails its condition, and so does a constant whose power
overflows (``_power`` gives inf there).  The other conditions are exact
rules on the family's parameters.

``_context`` keeps the last query's context, keyed by the bits of its
numbers: the checker's only cache.  A context builds its grid, the
schedule's arrays on it (b, b_dot, t**2, lambda_dot, eps, t b), b(t0) and
both growth caps once, when it is built, and evaluates each rule once, the
first time a report lists it.  So a start-time search's last report, and
the three regimes' reports that follow on the same query, evaluate each
rule once between them.  A rule returns its immutable Verdict,
eps_decay_speed its feasible a interval and eps_tail_ratio its warning
too, and every report on the query lists that Verdict, in lists of its own.
The rules that never read t0 are declared in ``_T0_FREE``, so a start-time
search ends at the first report that fails one of them: no later start
time can pass.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import InfeasibleError, ParameterDomainError, ValidationError
from .objectives import Objective, as_point

__all__ = [
    "LambdaForm",
    "PolyParams",
    "SystemConfig",
    "ConditionQuery",
    "Verdict",
    "ConditionReport",
    "check_fast_rate_conditions",
    "check_strong_conv_conditions",
    "check_alpha3_conditions",
    "energy_descent_start",
    "suggest_t0",
    "suggest_t0_strong",
    "suggest_t0_alpha3",
]

_DUST = 1e-9  # relative slack for float dust on exact boundary cases
_SMOOTHING_FORMS = ("constant", "power", "bounded")  # LambdaForm.kind: lambda's forms


class _Monomial:
    """t -> coef * t**exponent on floats of t's shape, identically zero when coef == 0.

    scalar is the same map on one float t, through Python's ``**`` (libm
    pow), not numpy's; the integrator evaluates the schedule through it.
    Two floats, not a closure: every PolyParams holds six of these.
    """

    __slots__ = ("coef", "exponent")

    def __init__(self, coef: float, exponent: float):
        self.coef, self.exponent = coef, exponent

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t) if self.coef == 0.0 else self.coef * t ** self.exponent

    def scalar(self, t: float) -> float:
        return 0.0 if self.coef == 0.0 else self.coef * _power(t, self.exponent)


@dataclass(frozen=True)
class LambdaForm:
    """Smoothing-index family: constant c, power t**l, or bounded 1 - t**(-l).

    Each form is offset + term, with term one monomial: (c, 0 t**0),
    (0, 1 t**l) and (1, -1 t**(-l)).  Those sums and products are exact, so
    lambda equals its form's expression bit for bit; dot, lambda's
    derivative, is the term's.  The fields after value are derived at
    construction and take no part in comparison or hashing.
    """

    kind: str = "constant"
    value: float = 1.0
    offset: float = field(init=False, repr=False, compare=False)
    term: _Monomial = field(init=False, repr=False, compare=False)
    dot: _Monomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _SMOOTHING_FORMS:
            raise ParameterDomainError(f"unknown lambda form {self.kind!r}")
        v = float(self.value)
        if not math.isfinite(v):
            raise ParameterDomainError("lambda value must be finite")
        if self.kind == "constant" and v <= 0.0:
            raise ParameterDomainError("constant lambda must be positive")
        if self.kind == "power" and v < 0.0:
            raise ParameterDomainError("power lambda exponent must be >= 0")
        if self.kind == "bounded" and v <= 0.0:
            raise ParameterDomainError("bounded lambda exponent must be positive")
        offset, coef, exponent = {"constant": (v, 0.0, 0.0), "power": (0.0, 1.0, v),
                                  "bounded": (1.0, -1.0, -v)}[self.kind]
        for name, value in (("offset", offset), ("term", _Monomial(coef, exponent)),
                            ("dot", _Monomial(coef * exponent, exponent - 1.0))):
            object.__setattr__(self, name, value)

    def __call__(self, t):
        return self.offset + self.term(t)

    def scalar(self, t: float) -> float:
        """lambda at one float t, through Python's ``**`` (libm pow), not numpy's."""
        return self.offset + self.term.scalar(t)

    def bounded(self) -> bool:
        return self.term.exponent <= 0.0


@dataclass(frozen=True)
class PolyParams:
    """The polynomial family b(t) = b_coeff * t**n, eps(t) = eps_coeff / t**d
    and smoothing index lam, with its callables on t > 0 derived at
    construction: b, b_dot, lam_dot, eps and eps_dot (lam is its own).

    Each callable takes an array of times, returning floats of its shape, or
    one float.  b, lam, eps and b_dot also carry their scalar form
    fn.scalar(t) on one float t, through which the integrator and
    SystemConfig.validate evaluate them.  The callables take no part in
    comparison or hashing: two PolyParams of equal numbers are equal.
    """

    b_coeff: float = 1.0
    n: float = 0.0
    eps_coeff: float = 1.0
    d: float = 3.0
    lam: LambdaForm = field(default_factory=LambdaForm)
    b: Callable = field(init=False, repr=False, compare=False)
    b_dot: Callable = field(init=False, repr=False, compare=False)
    lam_dot: Callable = field(init=False, repr=False, compare=False)
    eps: Callable = field(init=False, repr=False, compare=False)
    eps_dot: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.b_coeff < math.inf:
            raise ParameterDomainError("b_coeff must be a positive real")
        if not 0.0 <= self.n < math.inf:
            raise ParameterDomainError("n must be a real >= 0")
        if not 0.0 <= self.eps_coeff < math.inf:
            raise ParameterDomainError("eps_coeff must be a real >= 0")
        if not 0.0 < self.d < math.inf:
            raise ParameterDomainError("d must be a positive real")
        B, n, E, d = self.b_coeff, self.n, self.eps_coeff, self.d
        for name, fn in (("b", _Monomial(B, n)), ("b_dot", _Monomial(B * n, n - 1.0)),
                         ("lam_dot", self.lam.dot),
                         ("eps", _Monomial(E, -d)), ("eps_dot", _Monomial(-E * d, -d - 1.0))):
            object.__setattr__(self, name, fn)


def _power(x: float, y: float) -> float:
    """x ** y for a float x >= 0 (or an even y), or inf where Python's **
    raises OverflowError, as numpy's ** gives.  The scalar forms and the
    condition rules take every power that can overflow through it."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one flow: objective, schedule and system constants,
    validated at construction and read-only from then on."""

    objective: Objective
    schedule: PolyParams
    alpha: float
    beta: float
    t0: float
    x0: np.ndarray
    xdot0: np.ndarray
    horizon: float
    lambda_floor: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "x0", as_point(self.x0, self.objective.dim))
        object.__setattr__(self, "xdot0", as_point(self.xdot0, self.objective.dim))
        self.validate()

    def validate(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValidationError("alpha must be a positive real")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValidationError("beta must be a nonnegative real")
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ValidationError("t0 must be positive")
        if not (math.isfinite(self.horizon) and self.horizon > self.t0):
            raise ValidationError("horizon must exceed t0")
        if not 0.0 < self.lambda_floor < math.inf:
            raise ValidationError("lambda_floor must be a positive real")
        s, t0 = self.schedule, float(self.t0)
        # lambda and b are nondecreasing and eps = E t**(-d) is nonnegative and
        # nonincreasing, so on [t0, horizon] their extremes lie at the end
        # points; every stage time of the integrator is >= t0, so this one
        # check of lambda covers every step
        lam0 = s.lam.scalar(t0)
        if lam0 < self.lambda_floor:
            raise ValidationError(
                f"lambda(t) = {lam0:.3g} fell below its floor {self.lambda_floor:.3g}")
        if s.b.scalar(t0) <= 0.0:
            raise ValidationError("b(t) must stay positive on [t0, horizon]")
        eps0 = s.eps.scalar(t0)
        if eps0 > 0.0 and not s.eps.scalar(float(self.horizon)) < eps0:
            raise ValidationError("eps(t) must strictly decrease over the horizon")

    def query(self) -> "ConditionQuery":
        return ConditionQuery(self.alpha, self.beta, self.t0, self.schedule)


@dataclass(frozen=True)
class ConditionQuery:
    """The slice of a configuration that the condition checkers need,
    checked at construction as SystemConfig.validate checks it."""

    alpha: float
    beta: float
    t0: float
    schedule: PolyParams

    def __post_init__(self):
        if not 0.0 < self.t0 < math.inf:
            raise ParameterDomainError("t0 must be a positive real")
        _check_damping(self.alpha, self.beta)


def _check_damping(alpha: float, beta: float) -> None:
    """The domains of alpha and beta, as a ConditionQuery checks them."""
    if not 0.0 < alpha < math.inf:
        raise ParameterDomainError("alpha must be a positive real")
    if not 0.0 <= beta < math.inf:
        raise ParameterDomainError("beta must be a nonnegative real")


def _as_query(cfg: Union[SystemConfig, ConditionQuery]) -> ConditionQuery:
    return cfg if isinstance(cfg, ConditionQuery) else cfg.query()


class Verdict(NamedTuple):
    """One condition's result, immutable: the reports on a query share it."""

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


_NEAR_RAMP = np.arange(512, dtype=float)  # linspace's arange, per grid piece
_FAR_RAMP = np.arange(64, dtype=float)


def _geomspace_into(out: np.ndarray, ramp: np.ndarray, a: float, b: float) -> None:
    """Write np.geomspace(a, b, len(ramp)) into out, for a float a > 0.

    These are the operations geomspace and linspace perform on such an a,
    in their order, so the values are theirs bit for bit.  Their checks,
    dtype promotion, sign rotation and copies do nothing to it.  An
    overflowed b (inf) gives their NaN and inf values too.
    """
    lo, hi = np.log10(np.array(a)), np.log10(np.array(b))
    y = ramp * (np.subtract(hi, lo) / (len(ramp) - 1))
    y += lo
    y[-1] = hi
    np.power(10.0, y, out=out)
    out[0], out[-1] = a, b


def _grid(t0: float) -> np.ndarray:
    """The near grid on [t0, 100 t0], then the far grid up to 1e6 t0, read-only.

    Bit for bit the concatenation of np.geomspace(t0, 100 t0, 512) and
    np.geomspace(100 t0, 1e6 t0, 64), built by ``_geomspace_into`` without
    geomspace's wrapper; test_condition_grid_is_geomspace_bit_for_bit
    compares the two.  t0 is a ConditionQuery's: positive and finite.
    Each query's ``_Context`` builds its grid once, as it is built.
    """
    ts = np.empty(len(_NEAR_RAMP) + len(_FAR_RAMP))
    _geomspace_into(ts[:len(_NEAR_RAMP)], _NEAR_RAMP, t0, 100.0 * t0)
    _geomspace_into(ts[len(_NEAR_RAMP):], _FAR_RAMP, 100.0 * t0, 1e6 * t0)
    ts.flags.writeable = False
    return ts


def _frozen(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    values.flags.writeable = False
    return values


class _Context:
    """One query, its schedule's values on the query's condition grid ``ts``
    and each rule's result.

    The record is filled once, as it is built, inside ``_check``'s errstate:
    the grid, b(t0), the read-only arrays b, b_dot, t2 (t**2), lam_dot, eps
    and tb (t b(t), with inf where it is not positive: the divisor of the
    relative growth margin), and the two growth caps c1 t b - t^2 b_dot +
    c0, plain_cap and its alpha/3 form third_cap (see ``_cap_constants``).
    ``results`` keeps what each rule found, as ``_check`` stores it, so
    the reports on one query evaluate each rule once between them.
    """

    def __init__(self, q: ConditionQuery):
        t0 = float(q.t0)
        self.q = q
        self.poly = s = q.schedule
        self.ts = ts = _grid(t0)
        self.b0 = float(s.b(t0))
        self.eps_zero = s.eps_coeff == 0.0
        self.b = b = _frozen(s.b(ts))
        self.b_dot = _frozen(s.b_dot(ts))
        self.t2 = _frozen(ts ** 2)
        self.lam_dot = _frozen(s.lam_dot(ts))
        self.eps = _frozen(s.eps(ts))
        tb = ts * b
        self.tb = _frozen(np.where(tb > 0, tb, np.inf))
        self.plain_cap, self.third_cap = (
            _frozen(c1 * ts * b - self.t2 * self.b_dot + c0)
            for c1, c0 in (_cap_constants(q, False), _cap_constants(q, True)))
        self.results = {}


_LAST_CONTEXT = (None, None)  # _context's one slot: the last query's key and context


def _context(q: ConditionQuery) -> _Context:
    """The last query's _Context when q has its key, else a new one, built
    inside the caller's errstate (a grid value that overflows is no numpy
    warning) and kept in its place by one assignment, which needs no lock.

    Keyed by value, since the query checked after a start-time search is a
    new object (build_system builds it): the bits of alpha, beta, t0 and
    every PolyParams number.  0.0 and -0.0 are two keys, since b_constant
    reports n = 0.0 with margin -0.0 and n = -0.0 with margin 0.0.  The
    numbers' types are part of the key too: an int t0 is an int witness.
    """
    global _LAST_CONTEXT
    p = q.schedule
    nums = (q.alpha, q.beta, q.t0, p.b_coeff, p.n, p.eps_coeff, p.d, p.lam.value)
    key = (struct.pack("8d", *nums), p.lam.kind, *map(type, nums))
    last, c = _LAST_CONTEXT
    if key != last:
        c = _Context(q)
        _LAST_CONTEXT = key, c
    return c


def _finite_min(ts: np.ndarray, vals: np.ndarray):
    """(k, value, note) for values on ts of which some are not finite: the
    first least finite value (-inf at the first non-finite one when none
    is finite) and a note naming the grid time from which they are not."""
    finite = np.isfinite(vals)
    stop = int(finite.argmin())
    note = f"grid values not finite from t={ts[stop]:.6g}"
    if not finite.any():
        return stop, -math.inf, note
    k = int(np.where(finite, vals, np.inf).argmin())
    return k, float(vals[k]), note


def _pointwise_verdict(c: _Context, cond: str, vals, sense: str,
                       monomials, detail: str = "") -> Verdict:
    """Check vals >= 0 (sense 'ge') or <= 0 ('le'), where vals holds the
    condition's values on c.ts and [(coef, exponent)] its monomials, the
    dominant one of which decides the tail by its sign.  A value that is
    not finite (an overflow on the grid) fails the check."""
    signed = vals if sense == "ge" else -vals
    k = int(signed.argmin())
    margin = float(signed[k])
    top = float(np.abs(vals).max())
    tol = _DUST * max(1.0, top)
    ok = margin >= -tol
    notes = [detail] if detail else []
    if not math.isfinite(top):
        k, margin, note = _finite_min(c.ts, signed)
        ok = False
        notes.append(note)
    dominant = _dominant_term(monomials)
    if dominant:
        e, a = dominant
        ok = ok and (a > 0 if sense == "ge" else a < 0)
        notes.append(f"tail: dominant term {a:.6g} * t^{e:.6g}")
    else:
        notes.append("tail: expression vanishes asymptotically")
    return Verdict(cond, bool(ok), margin, float(c.ts[k]), "; ".join(notes))


def _dominant_term(monomials):
    """(exponent, coefficient) of the term that rules the tail of a sum of
    (coef, exponent) monomials, or None when every coefficient, summed per
    exponent, is dust.  An infinite coefficient (an overflow) is never dust."""
    agg = {}
    for coef, e in monomials:
        agg[e] = agg.get(e, 0.0) + coef
    scale = max([abs(a) for a in agg.values()] + [1.0])
    items = [(e, a) for e, a in agg.items() if abs(a) > 1e-13 * scale or math.isinf(a)]
    return max(items) if items else None


def _alpha_above_3(c: _Context) -> Verdict:
    a = c.q.alpha
    return Verdict("alpha_above_3", a > 3.0, a - 3.0, None, f"alpha = {a:.6g}")


def _alpha_is_3(c: _Context) -> Verdict:
    a = c.q.alpha
    return Verdict("alpha_is_3", abs(a - 3.0) <= 1e-12, -abs(a - 3.0), None, f"alpha = {a:.6g}")


def _cap_constants(q: ConditionQuery, third: bool) -> tuple:
    """(c1, c0) of the growth cap c1 t b - t^2 b_dot + c0:
    (alpha - 3) t b - t^2 b_dot + beta (2 - alpha), or with third set its
    alpha/3 form (alpha/3 - 1) t b - t^2 b_dot + alpha beta / 3."""
    a, beta = q.alpha, q.beta
    return (a / 3.0 - 1.0, a * beta / 3.0) if third else (a - 3.0, beta * (2.0 - a))


def _cap(third: bool):
    """The growth cap >= 0 for all t >= t0: c.plain_cap, or with third set
    its alpha/3 form c.third_cap."""
    def rule(c: _Context) -> Verdict:
        p = c.poly
        c1, c0 = _cap_constants(c.q, third)
        monos = [(p.b_coeff * (c1 - p.n), p.n + 1.0), (c0, 0.0)]
        return _pointwise_verdict(c, "b_growth_cap_third" if third else "b_growth_cap",
                                  c.third_cap if third else c.plain_cap, "ge", monos)
    return rule


def _b_growth_margin(c: _Context) -> Verdict:
    """Strict cap: the plain cap is >= delta t b(t) for some delta in (0, alpha - 3)."""
    alpha, p, ts = c.q.alpha, c.poly, c.ts
    rel = c.plain_cap / c.tb
    k = int(rel.argmin())
    delta_sup = float(rel[k])
    finite = bool(np.isfinite(rel).all())
    if not finite:
        k, delta_sup, note = _finite_min(ts, rel)
    if p.n > 0:
        # relative margin tends to alpha - 3 - n; the grid minimum rules the infimum
        delta_sup = min(delta_sup, alpha - 3.0 - p.n)
    strict_ok = delta_sup > _DUST and alpha > 3.0 and finite
    delta_pick = min(delta_sup, alpha - 3.0) * (1.0 - 1e-9) if strict_ok else 0.0
    detail = f"largest usable margin delta = {delta_pick:.6g}"
    return Verdict("b_growth_margin", bool(strict_ok), delta_sup, float(ts[k]),
                   detail if finite else f"{detail}; {note}")


def _feasible_a(c: _Context):
    """Interval of a >= 1 with 2 * eps_dot <= -a * beta * eps^2 and b(t0) > 1/a.

    Returns (interval_or_None, detail, margin).  The upper endpoint is inf
    when beta = 0 or eps is identically zero.
    """
    q, E, d = c.q, c.poly.eps_coeff, c.poly.d
    a_lo = 1.0
    if c.b0 <= 1.0:
        a_lo = (1.0 / c.b0) * (1.0 + 1e-12)  # keep b(t0) > 1/a strict
    if q.beta == 0.0 or c.eps_zero:
        return (a_lo, math.inf), "any a works: the quadratic decay bound is inactive", math.inf
    if d < 1.0:
        return None, "eps decays too slowly: admissible a shrinks to zero", -1.0
    denom = q.beta * E
    if denom == 0.0:  # underflow of a denormal product
        return (a_lo, math.inf), "quadratic decay bound is numerically inactive", math.inf
    a_hi = (2.0 * d / denom) * _power(q.t0, d - 1.0)
    if math.isnan(a_hi):  # inf * 0, one factor overflowed and one underflowed: in logs
        a_hi = _power(10.0, math.log10(2.0) + math.log10(d) - math.log10(q.beta)
                      - math.log10(E) + (d - 1.0) * math.log10(q.t0))
    if a_hi < a_lo:
        return None, f"empty interval: upper bound {a_hi:.6g} below lower bound {a_lo:.6g}", a_hi - a_lo
    return (a_lo, a_hi), f"a in [{a_lo:.6g}, {a_hi:.6g}]", a_hi - a_lo


def _eps_decay_speed(c: _Context) -> tuple:
    """(Verdict, interval, None): the report carries the feasible a interval."""
    interval, detail, margin = _feasible_a(c)
    return Verdict("eps_decay_speed", interval is not None, margin, None, detail), interval, None


def _b0_at_least(name: str, offset: float, label: str):
    """Floor b(t0) >= offset + beta / t0; label names the right-hand side."""
    def rule(c: _Context) -> Verdict:
        need = offset + c.q.beta / c.q.t0
        return Verdict(name, c.b0 >= need - _DUST, c.b0 - need, c.q.t0,
                       f"b(t0) = {c.b0:.6g}, {label} = {need:.6g}")
    return rule


def _lambda_bounded(c: _Context) -> Verdict:
    form = c.poly.lam
    ok = form.bounded()
    return Verdict("lambda_bounded", ok, 1.0 if ok else -1.0, None,
                   f"lambda family {form.kind!r}")


def _b_constant(c: _Context) -> Verdict:
    n = c.poly.n
    return Verdict("b_constant", n == 0.0, -n, None, f"n = {n:.6g}")


def _integrable(name: str, slack, rule: str):
    """Integrability of an eps term over [t0, inf), which holds when
    slack(poly) > 0 (the stated rule) or eps is identically zero."""
    def check(c: _Context) -> Verdict:
        if c.eps_zero:
            return Verdict(name, True, math.inf, None, "eps is identically zero")
        margin = slack(c.poly)
        return Verdict(name, bool(margin > 0.0), margin, None,
                       f"polynomial rule: requires {rule}")
    return check


def _strong_floor(alpha: float, beta: float) -> float:
    """The floor on 9 t^2 eps(t) in the strong-convergence regime."""
    return 2.0 * alpha * (alpha - 3.0) + 6.0 * alpha * beta


def _alpha3_damping(alpha: float, beta: float) -> float:
    """The constant term of the alpha = 3 damping balance."""
    return 2.0 * _power(beta, 2) + beta


def _t2_eps_floor(c: _Context) -> Verdict:
    floor = _strong_floor(c.q.alpha, c.q.beta)
    p = c.poly
    vals = 9.0 * c.t2 * c.eps - floor
    monos = [(9.0 * p.eps_coeff, 2.0 - p.d), (-floor, 0.0)]
    return _pointwise_verdict(c, "t2_eps_floor", vals, "ge", monos,
                              detail=f"needs 9 t^2 eps(t) >= {floor:.6g}")


def _t2_eps_diverges(c: _Context) -> Verdict:
    cond, d = "t2_eps_diverges", c.poly.d
    if c.eps_zero:
        return Verdict(cond, False, -1.0, None, "eps is identically zero")
    return Verdict(cond, d < 2.0, 2.0 - d, None, "polynomial rule: requires d < 2")


def _damping_balance(k: float, const):
    """2k beta t + k beta lam_dot - k t b (lam_dot + 2 beta) + const(alpha, beta) <= 0."""
    def rule(c: _Context) -> Verdict:
        beta, ts, p, ld = c.q.beta, c.ts, c.poly, c.lam_dot
        cst = const(c.q.alpha, beta)
        vals = 2.0 * k * beta * ts + k * beta * ld - k * ts * c.b * (ld + 2.0 * beta) + cst
        monos = [(2.0 * k * beta, 1.0), (-2.0 * k * beta * p.b_coeff, p.n + 1.0), (cst, 0.0)]
        coef, e = p.lam.dot.coef, p.lam.dot.exponent
        if coef != 0.0:
            # a constant lambda adds no term: k beta or k b_coeff may overflow,
            # and inf * 0.0 would put a NaN into _dominant_term's sums
            monos += [(k * beta * coef, e), (-k * p.b_coeff * coef, p.n + e)]
        return _pointwise_verdict(c, "damping_balance", vals, "le", monos)
    return rule


def _eps_tail_ratio(c: _Context) -> tuple:
    """Vanishing of  beta / (t^w eps(t)) * integral of s^w eps(s)^2  as t
    grows, for the regime's weight w, which holds exactly when d >= 1.
    Returns (Verdict, None, warning): the warning flags the pass at d = 1."""
    cond, d, warning = "eps_tail_ratio", c.poly.d, None
    if c.q.beta == 0.0:
        v = Verdict(cond, True, math.inf, None, "beta = 0 makes the ratio vanish")
    elif c.eps_zero:
        v = Verdict(cond, True, math.inf, None, "eps is identically zero")
    elif d < 1.0:
        v = Verdict(cond, False, d - 1.0, None, "polynomial rule: requires d >= 1")
    else:
        v = Verdict(cond, True, d - 1.0, None, "polynomial rule: d >= 1")
        if abs(d - 1.0) <= 1e-12:
            warning = ("d = 1 with beta > 0: the weighted tail average converges to a "
                       "positive constant, so the vanishing-ratio certificate needs beta = 0; "
                       "treating this as a flagged pass")
    return v, None, warning


def _exponent_box(slacks, strict_hi: bool):
    """Polynomial exponent box: the family's slacks(poly, alpha), then d >= 1,
    d >= beta eps_coeff / 2 and d <= 2 (strictly when strict_hi).  The
    smallest slack binds."""
    def rule(c: _Context) -> Verdict:
        p = c.poly
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


# The rules that several regimes list, one object each: a context keeps
# each rule's result, so the regimes' reports on one query share it.
_PLAIN_CAP = _cap(third=False)
_B0_HALF_PLUS_BETA = _b0_at_least("b0_half_plus_beta", 0.5, "1/2 + beta/t0")

# Each regime's conditions, in report order.
_FAMILIES = {
    "fast": (
        _alpha_above_3,
        _PLAIN_CAP,
        _b_growth_margin,
        _eps_decay_speed,
        _b0_at_least("b0_vs_beta", 0.0, "beta/t0"),
        _integrable("t_eps_integrable", lambda p: p.d - 2.0, "d > 2"),
    ),
    "strong": (
        _alpha_above_3,
        _lambda_bounded,
        _B0_HALF_PLUS_BETA,
        _PLAIN_CAP,
        _cap(third=True),
        _eps_decay_speed,
        _integrable("eps_over_tb_integrable", lambda p: p.n + p.d, "n + d > 0"),
        _t2_eps_floor,
        _damping_balance(9.0, lambda alpha, beta:
                         3.0 * (alpha + 3.0) * _power(beta, 2) + _power(alpha, 2) * beta),
        _eps_tail_ratio,
        _exponent_box(lambda p, a: {"n >= 0": p.n, "n <= (alpha-3)/3": (a - 3.0) / 3.0 - p.n},
                      strict_hi=False),
    ),
    "alpha3": (
        _alpha_is_3,
        _b_constant,
        _B0_HALF_PLUS_BETA,
        _lambda_bounded,
        _eps_decay_speed,
        _integrable("eps_over_t_integrable", lambda p: p.d, "d > 0"),
        _t2_eps_diverges,
        _damping_balance(1.0, _alpha3_damping),
        _eps_tail_ratio,
        _exponent_box(lambda p, a: {"b_coeff >= 1": p.b_coeff - 1.0}, strict_hi=True),
    ),
}

# The rules that read only alpha, beta and the PolyParams, never t0: once one
# of them fails, it fails at every start time, so _escalate stops searching.
_T0_FREE = frozenset({
    "alpha_above_3", "alpha_is_3", "lambda_bounded", "b_constant",
    "t_eps_integrable", "eps_over_tb_integrable", "eps_over_t_integrable",
    "t2_eps_diverges", "eps_tail_ratio", "poly_exponent_box",
})


@np.errstate(all="ignore")  # silent: a value that overflows on the grid fails its verdict
def _check(setting: str, cfg) -> ConditionReport:
    """One regime's report, each rule evaluated once per query.

    A rule returns its Verdict, or eps_decay_speed and eps_tail_ratio the
    triple (Verdict, interval, warning), which gives the report of every
    regime that lists it its feasible_a and warnings.  The query's context
    keeps each rule's triple, so every report on the query lists the same
    immutable Verdicts; each caller gets its own ConditionReport, verdicts
    list and warnings list.
    """
    c = _context(_as_query(cfg))
    results = c.results
    verdicts, feasible_a, warnings = [], None, []
    for rule in _FAMILIES[setting]:
        found = results.get(rule)
        if found is None:
            out = rule(c)
            found = results[rule] = (out, None, None) if isinstance(out, Verdict) else out
        v, interval, warning = found
        verdicts.append(v)
        if interval is not None:
            feasible_a = interval
        if warning is not None:
            warnings.append(warning)
    return ConditionReport(setting, verdicts, feasible_a=feasible_a, warnings=warnings)


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
    if not 1.0 <= a < math.inf:
        raise ParameterDomainError(f"a must be >= 1 and finite, got {a:.6g}")
    _check_energy_index(q, alpha)
    with np.errstate(over="ignore"):  # b(t0) = inf passes, and t_settle ignores it
        b0 = float(s.b(t0))
    if b0 * a <= 1.0:
        raise InfeasibleError(f"need b(t0) > 1/a, got b(t0) = {b0:.6g}, 1/a = {1.0 / a:.6g}")
    coef = beta * (q + 2.0 - alpha)
    if coef <= 0.0:
        t_settle = t0
    else:
        # t^2 b(t) - coef * t >= 0  <=>  t >= (coef / b_coeff)^(1/(n+1))
        t_settle = max(t0, (coef / s.b_coeff) ** (1.0 / (s.n + 1.0)))
    if beta > 0.0:
        t_settle = max(t_settle, beta / (b0 - 1.0 / a))
    return max(t0, t_settle)


def _settle_time(B: float, n: float, alpha: float, beta: float) -> float:
    """The start the fast-rate growth cap asks of b = B t^n, for n < alpha - 3."""
    den = B * (alpha - 3.0 - n)
    if den == 0.0:  # an underflow: the start overflows, unless beta = 0 asks for none
        return math.inf if beta > 0.0 else 0.0
    return (beta * (alpha - 2.0) / den) ** (1.0 / (n + 1.0))


def _first_starts(lam: LambdaForm) -> list:
    """1, and 1.05 for a bounded lambda: 1 - t**(-l) vanishes at t = 1."""
    return [1.0, 1.05] if lam.kind == "bounded" else [1.0]


def suggest_t0(params: PolyParams, alpha: float, beta: float, slack: float = 0.0) -> float:
    """Smallest clean starting time for the fast-rate certificate of the
    polynomial family, per the sufficient exponent box n < alpha - 3, d > 2.

    With slack = 0 the strictly-margined growth condition can sit exactly on
    its boundary; pass a positive slack to stand clear of it.
    """
    _check_damping(alpha, beta)
    if not 0.0 <= slack < math.inf:
        raise ParameterDomainError("slack must be a nonnegative real")
    B, n, E, d = params.b_coeff, params.n, params.eps_coeff, params.d
    if alpha - 3.0 - n <= 0.0:
        raise InfeasibleError(f"requires n < alpha - 3, got n = {n:.6g}, alpha = {alpha:.6g}")
    if E > 0.0:
        if d <= 2.0:
            raise InfeasibleError(f"requires d > 2 for integrable t * eps(t), got d = {d:.6g}")
        if d < beta * E / 2.0:
            raise InfeasibleError(
                f"requires d >= beta * eps_coeff / 2 = {beta * E / 2.0:.6g}, got d = {d:.6g}")
    t0 = max((beta / B) ** (1.0 / (n + 1.0)), _settle_time(B, n, alpha, beta))
    if min(t0 * t0, t0 * params.b.scalar(t0)) < sys.float_info.min:
        # beta = 0, or so small that t0, t0^2 or t0 b(t0) underflows: start at 1
        t0 = 1.0
    if beta > 0.0 and E > 0.0:
        # raise t0 until the admissible-a interval [a_lo, 2d/(beta E) t0^(d-1)]
        # is nonempty; a no-op whenever the base value already qualifies
        for _ in range(50):
            b0 = params.b.scalar(t0)
            if b0 == 0.0:  # b(t0) underflows: 1/b(t0), a_lo and the start time overflow
                t0 = math.inf
                break
            a_lo = max(1.0, 1.0 / b0) * (1.0 + 1e-12)
            required = (a_lo * beta * E / (2.0 * d)) ** (1.0 / (d - 1.0))
            if t0 >= required:
                break
            t0 = required * (1.0 + 1e-9)
    t0 *= 1.0 + slack
    if t0 == math.inf:
        raise InfeasibleError("no finite starting time: the fast-rate start time overflows")
    return t0


_ESCALATIONS = 80  # start times a search tries: t0, 1.5 t0, 1.5^2 t0, ...


def _escalate(params: PolyParams, alpha: float, beta: float, checker, t0: float) -> float:
    """The first of t0 * 1.5^k, k < 80, at which checker passes.

    A report that fails a rule of ``_T0_FREE`` fails at every later start
    time too, so the search jumps to its last start time, multiplying by 1.5
    one step at a time so the value is bit-identical to the full search's,
    and checks once there: the InfeasibleError names what fails at that
    start time, as the full search's does.
    """
    def check(t0):
        if t0 == math.inf:
            raise InfeasibleError("no finite starting time: the search overflows")
        return checker(ConditionQuery(alpha, beta, t0, params))

    for k in range(_ESCALATIONS):
        report = check(t0)
        if report.all_pass:
            return t0
        if k < _ESCALATIONS - 1 and _T0_FREE.intersection(report.failed()):
            for _ in range(_ESCALATIONS - 1 - k):
                t0 *= 1.5
            report = check(t0)
            break
        t0 *= 1.5
    raise InfeasibleError(
        f"no starting time found; still failing: {', '.join(report.failed())}")


def suggest_t0_strong(params: PolyParams, alpha: float, beta: float) -> float:
    """A starting time from which the strong-convergence certificate holds,
    found from the analytic binding constraints plus geometric escalation."""
    n, E, d = params.n, params.eps_coeff, params.d
    if E == 0.0:
        raise InfeasibleError("strong-convergence certificate needs eps > 0")
    floor = _strong_floor(alpha, beta)
    cands = _first_starts(params.lam)
    if d < 2.0:
        # every t > 0 meets a nonpositive floor, whose power could be complex
        if floor > 0.0:
            cands.append(_power(floor / (9.0 * E), 1.0 / (2.0 - d)))
    elif 9.0 * E < floor:
        raise InfeasibleError("t^2 eps(t) cannot reach the required floor for d >= 2")
    if beta > 0.0 and alpha - 3.0 - n > 0.0:
        cands.append(_settle_time(params.b_coeff, n, alpha, beta))
    return _escalate(params, alpha, beta, check_strong_conv_conditions, max(cands))


def suggest_t0_alpha3(params: PolyParams, beta: float) -> float:
    """A starting time from which the critical-damping certificate holds."""
    B = params.b_coeff
    cands = _first_starts(params.lam)
    if beta > 0.0:
        if B <= 0.5:
            raise InfeasibleError("needs b > 1/2 + beta/t0, impossible for b <= 1/2")
        cands.append(beta / (B - 0.5))
        if B > 1.0:
            cands.append(max(beta / B, _alpha3_damping(3.0, beta) / (2.0 * beta * (B - 1.0))))
    return _escalate(params, 3.0, beta, check_alpha3_conditions, max(cands))
