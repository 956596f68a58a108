"""Trajectory integration for the damped envelope flow.

The second-order system

    x'' + (alpha/t) x' + beta (d/dt) grad_e(t, x) + b(t) grad_e(t, x) + eps(t) x = 0

with grad_e(t, x) the Moreau-envelope gradient at smoothing lambda(t), is
integrated as one first-order system for every beta >= 0.  Its auxiliary
variable is w = x' + beta grad_e, which absorbs the envelope-gradient
derivative, so the right-hand side needs no second derivatives:
x' = w - beta grad_e and w' = -(alpha/t) x' - b grad_e - eps x.  At
beta = 0, w is the velocity x'.

The steppers are deliberately self-contained: an embedded Dormand-Prince
5(4) pair with FSAL and a PI-free step controller, plus classical fixed-step
RK4 for order studies.  The adaptive stepper's first step is
min((T - t0)/100, 1), capped by max_step; a step below 1e-13 raises
StepSizeError, and so do an accepted step whose t + h rounds back to t and a
run that needs more than max_steps steps.  The envelope gradient is
1/lambda-Lipschitz, so stiffness is capped by the lambda floor and explicit
methods are adequate.

integrate takes a config that validated itself when it was built, and
runs coordinate-major.  The right-hand side is separable: coordinate i
of (xdot, ydot) depends on (x_i, y_i) alone, since a built-in prox acts
coordinate by coordinate.  So a step runs every stage of one coordinate
pair as straight-line code before it moves to the next pair.  The unit of
that loop is a lane, and the prox alone sets its kind:
- a float lane is one coordinate on Python floats, held in lists, for a prox
  that carries its scalar source prox.coordinate_source (every built-in
  does), at every dim, 1 included; the stepper makes no numpy call per step
  there;
- a numpy lane is the whole point as 1-D arrays, the single lane of a prox
  without a scalar source, such as a swapped or custom one, which runs on
  the whole point.

Each stepper's loop is generated Python source, from one template per
stepper.  _source splices into it:
- the right-hand side, inlined at every stage: the only place the flow is
  written, for every beta (_deriv_src);
- the schedule's stage constants, each a monomial c * t ** e read off the
  schedule, and lambda's offset plus its term, lo + lc * t ** le, evaluated
  once at each distinct stage time (DP5's c5 = c6 = 1 and RK4's two
  midpoints share one), with -(alpha/t) (_consts_src);
- on float lanes, the prox's scalar source in place of a prox call, at
  every stage, with u and lam the stage's and each parameter a local
  prox_<name> that the kernel unpacks from its inputs (_prox_src);
- the Dormand-Prince tableau, as repr float literals;
- the lane kind: float lanes or the single numpy lane.
So a step on float lanes calls no Python function (a source may call
builtins such as max), and one on the numpy lane calls the prox once per
right-hand-side evaluation.  Each variant is compiled once per process
(functools.lru_cache, keyed by the prox source text and its parameter
names): 2 steppers for each lane kind, 4 in all, and float lanes once per
prox source, each the first time integrate or an rhs_* asks for it, never
at import, in build_run or in validation.  The run's numbers (alpha, beta,
the monomials, the tolerances, the prox's parameters) come from the
kernel's inputs, never source text, so a beta = 0 and a beta > 0 run share
a kernel, and so do a constant, a power and a bounded lambda: a constant c
is c + 0 * t ** 0, which is c at every t, since t ** 0.0 is 1.0.  Each source
is registered with linecache under a name such as <proxdyn dp5 numpy>, or
<proxdyn dp5 float c196f01a> with the CRC-32 of a source that inlines a
prox, so tracebacks that the traceback module formats (pytest, logging,
traceback.print_exc) show its lines; _source returns it.

Which kernel runs: a DP5 variant on float lanes also has a C form, its
whole Python kernel text translated by the native module (built with cc on
PATH and cached), which runs every call of the variant whenever it builds.
RK4, the numpy lane, a prox source that the translator refuses, a host
without cc and a failed build (which warns) run the Python kernels, the
tests' reference.  Either gives the same bits: the same samples, step
counts, KX and KY, and the same errors with the same messages, t_last and h
(tests/test_native.py).  There is no setting to choose between the two.
Every kernel reads only its inputs, made once per call of integrate or an
rhs_* (_inputs): its numbers as doubles, its counts as ints, and the prox's
parameters as doubles, so an int or a numpy scalar in a config runs as its
double.

The spliced expressions perform the same IEEE operations, in the same
order, as the schedule's scalar forms fn.scalar, which use Python's ** (libm
pow), not numpy's array **, which takes a SIMD pow on some CPUs that
differs from libm's in the last bit; so a trajectory does not depend on
numpy's SIMD dispatch.  Python's ** raises OverflowError where the scalar
forms give +-inf; then that step's constants are recomputed as fn.scalar
computes them, from the same doubles, so an overflowing schedule still ends
in a non-finite stage.  The
condition checkers and the observables keep the array forms.  Every stage
time is at least t0 and lambda is nondecreasing, so validation's one check
of lambda(t0) against its floor covers every step.  A SystemConfig validates
itself when it is built and cannot change after, so neither integrate nor
the public rhs_*, initial_aux and residual_second_order check it again.

The stage combinations, the error norm and the step controller perform,
coordinate by coordinate, the same IEEE operations in the same order as the
numpy expressions in the templates' comments, and a scalar source equals the
array prox bit for bit, so a trajectory equals that of the array formulation
bit for bit (tests/trajectory_pins.json pins a set of them).  The error norm
sums its 2 * dim squares left to right, x block first, at every dim and in
every kind of lane; numpy's pairwise reduction would take that order only
for fewer than 8 terms.  A step whose error norm is not finite
raises DivergenceError naming t and h, and the divergence guard, spliced
after every step, bounds the whole state (x, y), failing on a NaN anywhere;
both errors, and StepSizeError, carry t_last and h.  An RK4 step that
rounds back to t raises StepSizeError, as an adaptive one does.

A kernel is a function from (X, Y, numbers, counts, params) to what it
records: its samples and its step counters (accepted, rejected, nfev), and
for DP5 also KX, KY, the derivative at the last point.  It records each
sample, t then x, y and the derivative of x, into four typed buffers
(array('d')) that it creates, which hold each value as its 8 bytes, -0.0
and NaN payloads included: float lanes extend them by their lists, the
numpy lane by its arrays' bytes; the compiled kernel fills C buffers and
returns them as numpy arrays, trimmed to their rows.  integrate returns
views of those buffers (np.frombuffer), so no sample is converted or
copied, and builds the StepStats from the counters.
The public rhs_* run the variant's DP5 kernel from t to T = t, which
evaluates the first stage and takes no step, and return its KX, KY, so
they match the steppers bit for bit, on the compiled kernel as on the
Python one.
initial_aux, which runs once, evaluates lambda through its scalar form and
takes the envelope gradient from the array prox, which equals the scalar
form bit for bit; residual_second_order shares that array gradient.
"""

from __future__ import annotations

import ast
import functools
import linecache
import math
import numbers
import operator
import string
import zlib
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    InsufficientDataError,
    ParameterDomainError,
    StepSizeError,
    ValidationError,
)
from .schedules import SystemConfig, _power, _real

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


@dataclass(frozen=True)
class IntegratorSettings:
    """Stepper choice and controls, validated at construction and read-only
    from then on."""

    method: str = _METHODS[0]
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = math.inf
    fixed_step: float = 1e-3
    sample_stride: int = 1
    max_steps: int = 5_000_000
    divergence_threshold: float = 1e12

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.method not in _METHODS:
            raise ValidationError(f"unknown integrator method {self.method!r}")
        rtol, atol, max_step, fixed_step, threshold = [
            _real(getattr(self, name), name, ValidationError)
            for name in ("rtol", "atol", "max_step", "fixed_step", "divergence_threshold")]
        if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
            raise ValidationError("tolerances must be positive reals")
        # max_step alone may be inf: no cap
        if not (0.0 < fixed_step < math.inf and max_step > 0.0):
            raise ValidationError("step sizes must be positive reals")
        # inf is allowed, as for max_step: no trust region; NaN fails too
        if not threshold > 0.0:
            raise ValidationError("divergence_threshold must be positive")
        for name in ("sample_stride", "max_steps"):
            value = getattr(self, name)  # an int or a numpy integer
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")


_DEFAULTS = IntegratorSettings()  # read-only, as every IntegratorSettings


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    nfev: int = 0


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


def _split(v, lane: str):
    """The lane values of a 1-D array of dim floats: one float per lane, or
    the numpy lane's array, in a list."""
    return [np.array(v, dtype=float)] if lane == "numpy" else v.tolist()


# ------------------------------------------------------------ step kernels
#
# A template is the source of one function.  A line "$name args" is a block
# macro, replaced by the lines that _MACROS[name](variant, *args) returns at
# its indentation; the block indented under the macro line is its body, which
# the line "$body" in those lines places.  Every other $name is a token
# (_tokens).  X, Y, KX and KY are the lane values of the state u = (x, y)
# and of k0, the derivative at (t, u); (X$flat) is a sequence of the
# coordinates of X, and X[i] the value of X in lane i.  Each stage argument
# is, lane by lane, the array expression in the comment above it, with
# k = (kx, ky).

_DP5_TEMPLATE = """\
def dp5(X, Y, numbers, counts, params):
    $prelude
    t, T = t0, horizon
    nthreshold = -threshold
    $k0 t
    $sample
    accepted, rejected, nfev, n2 = 0, 0, 1, 2 * len(X$flat)
    h = min((T - t) / 100.0, 1.0, max_step)
    while t < T:
        if accepted + rejected >= max_steps:
            raise StepSizeError(f"step budget exhausted at t = {t:.6g}, h = {h:.3g}", t, h)
        if T - t < h:  # h = min(h, T - t)
            h = T - t
        t1 = t + $c1 * h
        t2 = t + $c2 * h
        t3 = t + $c3 * h
        t4 = t + $c4 * h
        t5 = t + $c5 * h
        $consts t1 t2 t3 t4 t5
        $lanes XN=xn YN=yn KXN=kx6 KYN=ky6 SX=sx SY=sy
            x, y, kx0, ky0 = X[i], Y[i], KX[i], KY[i]
            # u + h * (a10 * k0)
            x1 = x + h * ($a10 * kx0)
            y1 = y + h * ($a10 * ky0)
            $deriv 1 x1 y1 kx1 ky1
            # u + h * (a20 * k0 + a21 * k1)
            x2 = x + h * ($a20 * kx0 + $a21 * kx1)
            y2 = y + h * ($a20 * ky0 + $a21 * ky1)
            $deriv 2 x2 y2 kx2 ky2
            x3 = x + h * ($a30 * kx0 + $a31 * kx1 + $a32 * kx2)
            y3 = y + h * ($a30 * ky0 + $a31 * ky1 + $a32 * ky2)
            $deriv 3 x3 y3 kx3 ky3
            x4 = x + h * ($a40 * kx0 + $a41 * kx1 + $a42 * kx2 + $a43 * kx3)
            y4 = y + h * ($a40 * ky0 + $a41 * ky1 + $a42 * ky2 + $a43 * ky3)
            $deriv 4 x4 y4 kx4 ky4
            x5 = x + h * ($a50 * kx0 + $a51 * kx1 + $a52 * kx2 + $a53 * kx3 + $a54 * kx4)
            y5 = y + h * ($a50 * ky0 + $a51 * ky1 + $a52 * ky2 + $a53 * ky3 + $a54 * ky4)
            $deriv 5 x5 y5 kx5 ky5
            # the fifth-order point; its stage k6 is the derivative there (FSAL)
            xn = x + h * ($a60 * kx0 + $a62 * kx2 + $a63 * kx3 + $a64 * kx4 + $a65 * kx5)
            yn = y + h * ($a60 * ky0 + $a62 * ky2 + $a63 * ky3 + $a64 * ky4 + $a65 * ky5)
            $deriv 5 xn yn kx6 ky6
            # err = h * (e0 * k0 + e2 * k2 + ... + e6 * k6)
            # scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new)); on
            # floats the larger is picked as max() picks it, which skips a NaN
            # in u_new that np.maximum keeps; but when xn is NaN, so is
            # k6 = g(u_new), and err_norm is NaN either way
            ax, axn, ay, ayn = abs(x), abs(xn), abs(y), abs(yn)
            qx = (h * ($e0 * kx0 + $e2 * kx2 + $e3 * kx3 + $e4 * kx4 + $e5 * kx5 + $e6 * kx6)
                  / (atol + rtol * $maxx))
            qy = (h * ($e0 * ky0 + $e2 * ky2 + $e3 * ky3 + $e4 * ky4 + $e5 * ky5 + $e6 * ky6)
                  / (atol + rtol * $maxy))
            sx = qx * qx
            sy = qy * qy
        nfev += 6
        # err_norm = sqrt(mean((err / scale) ** 2)), the 2m squares summed
        # left to right, x block first
        total = 0.0
        for q in (SX$flat) + (SY$flat):
            total += q
        err_norm = sqrt(total / n2)
        if not isfinite(err_norm):
            raise DivergenceError(
                f"non-finite stage in the step at t = {t:.6g}, h = {h:.3g}", t, h)
        if err_norm <= 1.0:
            t_prev = t
            t = T if (T - t - h) <= 1e-15 * T else t + h
            if t == t_prev:  # t + h rounded back to t
                raise StepSizeError(f"step size {h:.3g} does not advance t = {t:.6g}", t, h)
            X, Y, KX, KY = XN, YN, KXN, KYN
            $guard t_prev
            accepted += 1
            if t >= T or accepted % stride == 0:
                $sample
        else:
            rejected += 1
        # h *= min(5.0, max(0.2, factor)), then h = min(h, max_step)
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
        h *= 0.2 if not factor > 0.2 else factor if factor < 5.0 else 5.0
        if max_step < h:
            h = max_step
        if h < $min_step:
            raise StepSizeError(f"step size collapsed to {h:.3g} at t = {t:.6g}", t, h)
    return (ts, xs, ys, xdots), (accepted, rejected, nfev), KX, KY
"""

_RK4_TEMPLATE = """\
def rk4(X, Y, numbers, counts, params):
    $prelude
    t, T = t0, horizon
    nthreshold = -threshold
    $k0 t
    $sample
    accepted, rejected, nfev = 0, 0, 1
    # compared as a float: an inf step count has no integer ceiling
    span = (T - t) / fixed_step - 1e-12
    if span > max_steps:
        raise StepSizeError(
            f"nsteps = {span:.6g} steps of fixed_step = {fixed_step:.3g} "
            f"exceed max_steps = {max_steps}", t, fixed_step)
    nsteps = max(1, int(math.ceil(span)))
    h = (T - t) / nsteps
    t0 = t
    for step in range(nsteps):
        t_next = t0 + (step + 1) * h
        if t_next == t:  # the step rounded back to t
            raise StepSizeError(f"step size {h:.3g} does not advance t = {t:.6g}", t, h)
        t1 = t + 0.5 * h
        t2 = t + h
        $consts t1 t2
        $lanes XN=xn YN=yn
            x, y, kx0, ky0 = X[i], Y[i], KX[i], KY[i]
            # u + 0.5 * h * k0, u + 0.5 * h * k1, u + h * k2
            x1 = x + 0.5 * h * kx0
            y1 = y + 0.5 * h * ky0
            $deriv 1 x1 y1 kx1 ky1
            x2 = x + 0.5 * h * kx1
            y2 = y + 0.5 * h * ky1
            $deriv 1 x2 y2 kx2 ky2
            x3 = x + h * kx2
            y3 = y + h * ky2
            $deriv 2 x3 y3 kx3 ky3
            # u + (h / 6.0) * (k0 + 2.0 * k1 + 2.0 * k2 + k3)
            xn = x + (h / 6.0) * (kx0 + 2.0 * kx1 + 2.0 * kx2 + kx3)
            yn = y + (h / 6.0) * (ky0 + 2.0 * ky1 + 2.0 * ky2 + ky3)
        X, Y = XN, YN
        # the guard sees the new state before the right-hand side does
        $guard t_next-h
        t = t_next
        $k0 t
        nfev += 4
        accepted += 1
        if step == nsteps - 1 or accepted % stride == 0:
            $sample
    return (ts, xs, ys, xdots), (accepted, rejected, nfev)
"""

# name in tracebacks and template, by IntegratorSettings.method
_TEMPLATES = {"rk45_adaptive": ("dp5", _DP5_TEMPLATE), "rk4_fixed": ("rk4", _RK4_TEMPLATE)}

# Dormand-Prince 5(4) tableau, zero-based like the stages k0..k6: nodes c1..c5
# (stage 6 has c6 = c5 = 1), stage weights aij (stage i, derivative kj),
# fifth-order weights a6j (stage 6 is the new point, FSAL) and error weights
# ej; zero entries are left out.  Spliced as repr literals, which read back
# as the same floats.
_DP5_TABLEAU = {
    "c1": 0.2, "c2": 0.3, "c3": 0.8, "c4": 8.0 / 9.0, "c5": 1.0,
    "a10": 0.2,
    "a20": 3.0 / 40.0, "a21": 9.0 / 40.0,
    "a30": 44.0 / 45.0, "a31": -56.0 / 15.0, "a32": 32.0 / 9.0,
    "a40": 19372.0 / 6561.0, "a41": -25360.0 / 2187.0, "a42": 64448.0 / 6561.0,
    "a43": -212.0 / 729.0,
    "a50": 9017.0 / 3168.0, "a51": -355.0 / 33.0, "a52": 46732.0 / 5247.0,
    "a53": 49.0 / 176.0, "a54": -5103.0 / 18656.0,
    "a60": 35.0 / 384.0, "a62": 500.0 / 1113.0, "a63": 125.0 / 192.0,
    "a64": -2187.0 / 6784.0, "a65": 11.0 / 84.0,
    "e0": 35.0 / 384.0 - 5179.0 / 57600.0,
    "e2": 500.0 / 1113.0 - 7571.0 / 16695.0,
    "e3": 125.0 / 192.0 - 393.0 / 640.0,
    "e4": -2187.0 / 6784.0 + 92097.0 / 339200.0,
    "e5": 11.0 / 84.0 - 187.0 / 2100.0,
    "e6": -1.0 / 40.0,
}


@dataclass(frozen=True)
class _Variant:
    prox_source: str = ""  # float lanes: the prox's scalar source
    prox_params: tuple = ()  # and the names of its parameters

    @property
    def lane(self) -> str:
        """The lane kind: float lanes for a prox with a scalar source, else
        the numpy lane."""
        return "float" if self.prox_source else "numpy"


# a kernel's numbers (_inputs), by the kernels' names: nalpha is -alpha, and kc
# and ke the monomial of stage constant k, b, eps (e) or lambda's term (l),
# which lambda's offset lo completes: lo + lc * t ** le
_NUMBERS = ("t0", "horizon", "atol", "rtol", "max_step", "threshold", "nalpha", "beta",
            "lo", "bc", "be", "ec", "ee", "lc", "le", "fixed_step")
_TERMS = ("b", "e", "l")


def _consts_src(v: _Variant, *times: str) -> str:
    """The stage constants at each stage time variable tk (t gives k = 0):
    ak = nalpha / tk, which is -(alpha / tk), then the schedule values bk, ek
    and lk (lambda).  Each value is its monomial, bc * tk ** be and so on,
    as the scalar forms compute it; when one of those ** overflows, all of
    them are recomputed as the scalar forms compute them, 0.0 where the
    coefficient is 0.0 and else c * power(t, e), which gives +-inf there."""
    damping, fast, scalar = [], [], []
    for t in times:
        k = t[1:] or "0"
        damping.append(f"a{k} = nalpha / {t}")
        for name in _TERMS:
            lo = "lo + " if name == "l" else ""
            fast.append(f"{name}{k} = {lo}{name}c * {t} ** {name}e")
            scalar.append(f"{name}{k} = {lo}(0.0 if {name}c == 0.0"
                          f" else {name}c * power({t}, {name}e))")
    return "\n".join([*damping, "try:", *("    " + line for line in fast), "except OverflowError:",
                      *("    " + line for line in scalar)])


def _prox_src(v: _Variant, x: str, lam: str) -> str:
    """The prox's scalar source at the coordinate x and index lam, its
    parameters renamed to the kernel's locals prox_<name>."""
    names = {"u": x, "lam": lam, **{name: "prox_" + name for name in v.prox_params}}
    tree = ast.parse(v.prox_source, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            node.id = names.get(node.id, node.id)
    return f"({ast.unparse(tree)})"


def _deriv_src(v: _Variant, k: str, x: str, y: str, kx: str, ky: str) -> str:
    """(kx, ky), the derivative of one lane at the point (x, y), from the
    stage constants of suffix k; the only place the flow is written, for
    every beta.  It checks nothing."""
    prox = f"prox(l{k}, {x})" if v.lane == "numpy" else _prox_src(v, x, f"l{k}")
    # g = grad, xdot = w - beta * g, wdot = -(alpha / t) * xdot - b * g - eps * x
    return (f"g = (({x} - {prox}) / l{k})\n{kx} = {y} - beta * g\n"
            f"{ky} = a{k} * {kx} - b{k} * g - e{k} * {x}")


def _k0_src(v: _Variant, t: str) -> str:
    """KX, KY: the derivative of every lane at (t, X, Y)."""
    return (f"$consts {t}\n"
            "$lanes KX=kx0 KY=ky0\n"
            "    x, y = X[i], Y[i]\n"
            "    $deriv 0 x y kx0 ky0")


def _lanes_src(v: _Variant, *outputs: str) -> str:
    """The body run in every lane.  Each output NAME=local gathers local
    from every lane into the list NAME."""
    pairs = [output.split("=") for output in outputs]
    return "\n".join([", ".join(name for name, _ in pairs) + " = " + ", ".join(["[]"] * len(pairs)),
                      "for i in lanes:", "    $body",
                      *(f"    {name}.append({local})" for name, local in pairs)])


def _prelude_src(v: _Variant) -> str:
    """The empty sample buffers, the lanes and the kernel's inputs as
    locals: the numbers by their names in _NUMBERS, the counts max_steps and
    stride, and the prox's: the array prox on the numpy lane, and on float
    lanes the values of its source's parameters, as locals prox_<name>."""
    lines = ['ts, xs, ys, xdots = array("d"), array("d"), array("d"), array("d")',
             "lanes = range(len(X))",
             ", ".join(_NUMBERS) + " = numbers",
             "max_steps, stride = counts"]
    if v.lane == "numpy":
        lines.append("prox, = params")
    elif v.prox_params:
        lines.append(", ".join("prox_" + name for name in v.prox_params) + ", = params")
    return "\n".join(lines)


def _guard_src(v: _Variant, t_last: str) -> str:
    """The divergence guard on the coordinates of the new state (X, Y), which
    bounds the auxiliary y as well as x and fails on a NaN anywhere, as the
    chained comparison is false for NaN; its error names t_last (an
    expression without spaces) and h."""
    return ("for v in (X$flat) + (Y$flat):\n"
            "    if not nthreshold <= v <= threshold:\n"
            "        raise DivergenceError(\n"
            f'            f"state left the trust region after t = {{{t_last}:.6g}}", {t_last}, h)')


def _sample_src(v: _Variant) -> str:
    """A sample: t, x, y and the derivative of x, each appended to its typed
    buffer (array('d')) as doubles, bit for bit: a list of floats, or the
    bytes of a numpy lane's array, as float64 (an array prox of another
    dtype, such as longdouble, makes the state that dtype)."""
    put = {"float": "{}.fromlist({})",
           "numpy": "{}.frombytes({}[0].astype(float, copy=False).tobytes())"}[v.lane]
    return "\n".join(["ts.append(t)", *(put.format(buf, lane) for buf, lane in
                                         (("xs", "X"), ("ys", "Y"), ("xdots", "KX")))])


_MACROS = {"consts": _consts_src, "deriv": _deriv_src, "k0": _k0_src, "lanes": _lanes_src,
           "prelude": _prelude_src, "sample": _sample_src, "guard": _guard_src}


def _tokens(v: _Variant) -> dict:
    tokens = {name: repr(value) for name, value in _DP5_TABLEAU.items()}
    # the larger of two magnitudes, as np.maximum, or on floats as max() picks it
    pick = "maximum({0}, {1})" if v.lane == "numpy" else "({1} if {1} > {0} else {0})"
    tokens.update(min_step=repr(_MIN_STEP),
                  maxx=pick.format("ax", "axn"), maxy=pick.format("ay", "ayn"),
                  flat="[0].tolist()" if v.lane == "numpy" else "")
    return tokens


def _expand(template: str, v: _Variant, tokens: dict, body: list = ()) -> list:
    rows, lines, r = template.splitlines(), [], 0
    while r < len(rows):
        line = rows[r]
        r += 1
        text = line.lstrip()
        indent = line[:len(line) - len(text)]
        name, *args = text[1:].split() if text.startswith("$") else [None]
        if name == "body":
            lines += [indent + sub for sub in body]
        elif name in _MACROS:
            block = []  # the lines indented under the macro line
            while r < len(rows) and rows[r].startswith(indent + "    "):
                block.append(rows[r][len(indent) + 4:])
                r += 1
            block = _expand("\n".join(block), v, tokens)
            lines += [indent + sub for sub in _expand(_MACROS[name](v, *args), v, tokens, block)]
        else:
            lines.append(string.Template(line).substitute(tokens))
    return lines


def _source(kind: str, v: _Variant) -> str:
    """The generated source of the stepper kind ("rk45_adaptive" or
    "rk4_fixed") for variant v."""
    return "\n".join(_expand(_TEMPLATES[kind][1], v, _tokens(v))) + "\n"


@functools.lru_cache(maxsize=None)
def _kernel(kind: str, v: _Variant):
    """The kernel of kind for variant v, built the first time it is asked
    for and kept for the process: the compiled DP5 kernel of float lanes
    when it builds (native.dp5_kernel), else the Python kernel."""
    if kind == "rk45_adaptive" and v.lane != "numpy":
        from . import native  # its build tools stay out of the import of the package

        kernel = native.dp5_kernel(v)
        if kernel is not None:
            return kernel
    return _python_kernel(kind, v)


@functools.lru_cache(maxsize=None)
def _python_kernel(kind: str, v: _Variant):
    """The Python kernel of kind for variant v, compiled from its generated
    source the first time it is asked for.  Its source is registered with
    linecache, for the traceback module to show its lines; the name of a
    kernel with an inlined prox ends in the CRC-32 of its source, since the
    prox source tells such kernels apart."""
    src = _source(kind, v)
    filename = (f"<proxdyn {_TEMPLATES[kind][0]} {v.lane}"
                f"{f' {zlib.crc32(src.encode()):08x}' if v.prox_source else ''}>")
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = {"array": array, "math": math, "sqrt": math.sqrt, "isfinite": math.isfinite,
                 "maximum": np.maximum, "power": _power,
                 "DivergenceError": DivergenceError, "StepSizeError": StepSizeError}
    exec(compile(src, filename, "exec"), namespace)
    return namespace[_TEMPLATES[kind][0]]


def _variant(cfg: SystemConfig) -> _Variant:
    """cfg's variant, at every beta: float lanes for a prox with a scalar
    source, else the numpy lane."""
    prox = cfg.objective.prox
    source = getattr(prox, "coordinate_source", None)
    return _Variant() if source is None else _Variant(source, tuple(prox.coordinate_params))


def _variant_kernel(kind: str, cfg: SystemConfig):
    """(kernel, lane) for cfg."""
    v = _variant(cfg)
    return _kernel(kind, v), v.lane


@functools.lru_cache(maxsize=None)
def _subscripted(source: str) -> frozenset:
    """The names that the prox source subscripts (name[i])."""
    return frozenset(node.value.id for node in ast.walk(ast.parse(source, mode="eval"))
                     if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name))


def _inputs(t, T, settings: IntegratorSettings, cfg: SystemConfig) -> tuple:
    """(numbers, counts, params): a kernel's inputs for a run of cfg from t
    to T under settings, and the only values any kernel reads.  numbers are
    the floats named in _NUMBERS; counts are max_steps and the sample
    stride, ints capped at 2**62, which no run reaches; params are the array
    prox on the numpy lane, and on float lanes the prox source's parameters
    in their order, each a double, or a list of at least dim doubles for one
    that the source subscripts, else ParameterDomainError."""
    s, prox, v = cfg.schedule, cfg.objective.prox, _variant(cfg)
    numbers = (t, T, settings.atol, settings.rtol, settings.max_step,
               settings.divergence_threshold, -cfg.alpha, cfg.beta, s.lam.offset,
               s.b.coef, s.b.exponent, s.eps.coef, s.eps.exponent, s.lam.term.coef,
               s.lam.term.exponent, settings.fixed_step)
    counts = (settings.max_steps, settings.sample_stride)
    params = [prox] if v.lane == "numpy" else []
    for name in v.prox_params:
        value, what = prox.coordinate_params[name], f"prox parameter {name}"
        if name not in _subscripted(v.prox_source):
            params.append(_real(value, what))
        elif isinstance(value, (list, tuple, np.ndarray)) and len(value) >= cfg.objective.dim:
            params.append([_real(item, what) for item in value])
        else:
            raise ParameterDomainError(f"{what} must hold at least {cfg.objective.dim} numbers")
    return (tuple(map(float, numbers)), tuple(min(operator.index(n), 2 ** 62) for n in counts),
            tuple(params))


def _rhs_at(cfg: SystemConfig, t: float, x, y):
    """(xdot, ydot) at one time t, a real in (0, inf) as t0 is: the first
    stage of the variant's DP5 kernel, run from t to T = t, which takes no step."""
    if not 0.0 < _real(t, "t") < math.inf:
        raise ParameterDomainError("t must be a positive real")
    kernel, lane = _variant_kernel("rk45_adaptive", cfg)
    m = cfg.objective.dim
    X, Y = (_split(np.broadcast_to(np.asarray(v, dtype=float), (m,)), lane) for v in (x, y))
    KX, KY = kernel(X, Y, *_inputs(t, t, _DEFAULTS, cfg))[2:]
    return tuple(np.array(K[0].tolist() if lane == "numpy" else K) for K in (KX, KY))


def rhs_beta_positive(cfg: SystemConfig, t: float, x, y):
    """Right-hand side (xdot, wdot) of a Hessian-damped system (beta > 0)."""
    if cfg.beta <= 0.0:
        raise ValidationError("this reformulation needs beta > 0")
    return _rhs_at(cfg, t, x, y)


def rhs_beta_zero(cfg: SystemConfig, t: float, x, y):
    """Right-hand side (xdot, ydot) of a system without Hessian damping
    (beta = 0), where the auxiliary y is the velocity."""
    if cfg.beta != 0.0:
        raise ValidationError("this reformulation needs beta = 0")
    return _rhs_at(cfg, t, x, y)


def initial_aux(cfg: SystemConfig) -> np.ndarray:
    """Auxiliary initial value matching (x0, xdot0): w0 = xdot0 + beta *
    grad_e(t0, x0), which is xdot0 itself when beta = 0 (a copy, not
    xdot0 + 0.0 * g0, which would turn -0.0 into 0.0 and an infinite g0
    into NaN)."""
    if cfg.beta == 0.0:
        return cfg.xdot0.copy()
    # an overflow gives inf or NaN, whose first step raises DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        g0 = _grad(cfg.objective.prox, cfg.schedule.lam.scalar(float(cfg.t0)), cfg.x0)
        return cfg.xdot0 + cfg.beta * g0


def integrate(cfg: SystemConfig, settings: IntegratorSettings = None) -> Trajectory:
    """Integrate the flow from t0 to the horizon and sample the trajectory.

    Samples are the initial point, every sample_stride-th accepted step, and
    the final time.  Velocities at samples come from the algebraic relation
    xdot = w - beta * grad_e, never from differencing.
    """
    if settings is None:
        settings = _DEFAULTS
    kernel, lane = _variant_kernel(settings.method, cfg)
    # samples is four typed buffers (ts, xs, ys, xdots) of 8-byte doubles that
    # each sample extends; the returned arrays are views of them, so a sample
    # costs 8 bytes per value and is never converted or copied
    samples, counts = kernel(_split(cfg.x0, lane), _split(initial_aux(cfg), lane),
                             *_inputs(cfg.t0, cfg.horizon, settings, cfg))[:2]
    ts, xs, ys, xdots = (np.frombuffer(buf) for buf in samples)
    m = cfg.objective.dim
    return Trajectory(ts, xs.reshape(-1, m), ys.reshape(-1, m), xdots.reshape(-1, m),
                      StepStats(*counts), cfg)


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
