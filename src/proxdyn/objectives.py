"""Convex objectives with proximal maps and Moreau envelope calculus.

An :class:`Objective` bundles a proper convex function with its closed-form
proximal map, its optimal value and its least-norm minimizer.  The module
operations compute Moreau envelope values, gradients and lambda-derivatives,
smoothing compositions, and Tikhonov-regularized centers.  A derivative-free
golden-section oracle (:func:`prox_oracle`) provides an independent route to
the proximal map for cross-checking the closed forms.  The oracle has one
fixed setting: a bracket half-width of at least 1, a stopping length of
1e-10 and at most 200 golden-section iterations.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParameterDomainError, UnsupportedOracleError

__all__ = [
    "Objective",
    "as_point",
    "prox",
    "prox_oracle",
    "moreau_value",
    "moreau_gradient",
    "moreau_lambda_derivative",
    "envelope_composition_prox",
    "envelope_of_envelope_check",
    "tikhonov_center",
    "abs_plus_quad",
    "dist_to_interval",
    "l1_norm",
    "scaled_shifted_quadratic",
    "box_indicator",
    "make_objective",
    "BUILTIN_NAMES",
]


def as_point(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-D float64 array."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ParameterDomainError("point must be a scalar or a 1-D array")
    if dim is not None and arr.size != dim:
        raise ParameterDomainError(f"point has size {arr.size}, objective expects {dim}")
    if not np.all(np.isfinite(arr)):
        raise ParameterDomainError("point must be finite")
    return arr


@dataclass(frozen=True)
class Objective:
    """A proper convex function with proximal-map metadata.

    value maps a point (1-D array of length ``dim``) to a float, possibly
    ``inf`` for indicator functions.  prox(lam, x) is the closed-form proximal
    map of index lam > 0.  Both also take an ``(N, dim)`` batch of rows: value
    reads coordinates as ``x[..., i]`` and reduces over ``axis=-1``, and prox
    broadcasts lam, a scalar or an ``(N, 1)`` column, against the rows; each
    batch row of a built-in equals its single-point result bit for bit.
    phi_star is the minimal value and x_star the least-norm minimizer.
    coordinate_value(i, u) is the scalar piece of a separable objective, used
    by the oracle for dim > 1.  kink_points(lam) lists per-coordinate points
    where the envelope gradient loses smoothness, and lambda_switches(u) lists
    lambda values at which the prox formula switches branch for a fixed
    coordinate u; both exist so finite-difference checks can keep away from
    them.

    The prox of each built-in also carries a scalar form, the function
    attribute prox.coordinate_prox(i, lam, u): coordinate i of prox(lam, x)
    where x[i] = u, on Python floats.  It must equal the array prox bit for
    bit, signed zeros included (prox-selftest checks it); the integrator uses
    it instead of the array prox when present.  It lives on the function,
    not on the Objective, so replacing prox (dataclasses.replace) drops it
    and the integrator then calls the new array prox.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    phi_star: float
    x_star: np.ndarray
    coordinate_value: Optional[Callable[[int, float], float]] = None
    kink_points: Callable[[float], tuple] = field(default=lambda lam: ())
    lambda_switches: Callable[[float], tuple] = field(default=lambda u: ())


def _require_lam(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ParameterDomainError(f"lam must be a positive real, got {lam!r}")
    return lam


def prox(obj: Objective, lam: float, x) -> np.ndarray:
    """Closed-form proximal point argmin_y { obj(y) + ||x - y||^2 / (2 lam) }."""
    lam = _require_lam(lam)
    return obj.prox(lam, as_point(x, obj.dim))


# the oracle's setting (the least bracket half-width, the bracket length to
# stop at, the iteration cap) and the golden-section constants
_BRACKET_HALFWIDTH = 1.0
_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_min(fn, lo: float, hi: float) -> float:
    """Golden-section argmin of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(_MAX_ITERATIONS):
        if h <= _TOLERANCE:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fn(d)
    return c if fc < fd else d


def _localize(fn, lo: float, hi: float, npts: int = 33):
    """Shrink [lo, hi] to the grid cell pair around the coarse argmin.

    Expands the bracket geometrically if every probe is infinite, which
    happens for indicator pieces whose domain lies outside the bracket.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    for _ in range(12):
        us = np.linspace(center - half, center + half, npts)
        vals = np.array([fn(u) for u in us])
        k = int(np.argmin(vals))
        if math.isfinite(vals[k]):
            return us[max(k - 1, 0)], us[min(k + 1, npts - 1)]
        half *= 2.0
    raise UnsupportedOracleError("no finite value found in the oracle bracket")


def _coordinate_piece(obj: Objective):
    piece = obj.coordinate_value
    if piece is None:
        if obj.dim != 1:
            raise UnsupportedOracleError(
                f"objective {obj.name!r} has dim {obj.dim} and no coordinate decomposition"
            )
        piece = lambda i, u: obj.value(np.array([u]))
    return piece


def _slope_proxy(piece, i: int, u: float) -> float:
    vals = [piece(i, u - 1.0), piece(i, u), piece(i, u + 1.0)]
    finite = [v for v in vals if math.isfinite(v)]
    if len(finite) < 2:
        return 0.0
    return min(abs(max(finite) - min(finite)), 1e6)


def _bracket(piece, i: int, index: float, xi: float):
    half = max(_BRACKET_HALFWIDTH, abs(xi) + index * (1.0 + _slope_proxy(piece, i, xi)))
    return xi - half, xi + half


def _prox_1d(piece, i: int, lam: float, xi: float) -> float:
    def fn(u):
        return piece(i, u) + (u - xi) ** 2 / (2.0 * lam)

    return _golden_min(fn, *_localize(fn, *_bracket(piece, i, lam, xi)))


def prox_oracle(obj: Objective, lam: float, x) -> np.ndarray:
    """Proximal point by per-coordinate golden-section search.

    Independent of the closed-form prox: only objective values are used.
    Requires dim == 1 or a coordinate decomposition (separable objective).
    The search half-width is at least 1 and widens from the query point and
    a local slope estimate, so the bracket always contains the proximal
    point.

    Positional accuracy is limited by comparing function values in double
    precision: at a kink the error tracks the 1e-10 tolerance, but where the
    minimum is smooth the values near it differ by O(h^2 / lam) and the
    search stalls around sqrt(eps) * scale, roughly 1e-7. Comparisons
    against a closed form should allow for that floor.
    """
    lam = _require_lam(lam)
    x = as_point(x, obj.dim)
    piece = _coordinate_piece(obj)
    out = np.empty(obj.dim)
    for i in range(obj.dim):
        out[i] = _prox_1d(piece, i, lam, float(x[i]))
    return out


def moreau_value(obj: Objective, lam: float, x) -> float:
    """Moreau envelope value  obj(p) + ||x - p||^2 / (2 lam)  at p = prox."""
    lam = _require_lam(lam)
    x = as_point(x, obj.dim)
    p = obj.prox(lam, x)
    return float(obj.value(p) + np.sum((x - p) ** 2) / (2.0 * lam))


def moreau_gradient(obj: Objective, lam: float, x) -> np.ndarray:
    """Envelope gradient (x - prox(lam, x)) / lam; it is 1/lam Lipschitz."""
    lam = _require_lam(lam)
    x = as_point(x, obj.dim)
    return (x - obj.prox(lam, x)) / lam


def moreau_lambda_derivative(obj: Objective, lam: float, x) -> float:
    """Derivative of the envelope value in lam: -||gradient||^2 / 2."""
    g = moreau_gradient(obj, lam, x)
    return float(-0.5 * np.sum(g * g))


def envelope_composition_prox(obj: Objective, lam: float, mu: float, x) -> np.ndarray:
    """Proximal point of the envelope: prox of index mu applied to the
    lam-envelope equals the convex combination

        lam/(lam+mu) * x + mu/(lam+mu) * prox(lam+mu, x).
    """
    lam = _require_lam(lam)
    mu = _require_lam(mu)
    x = as_point(x, obj.dim)
    w = mu / (lam + mu)
    return (1.0 - w) * x + w * obj.prox(lam + mu, x)


def envelope_of_envelope_check(obj: Objective, lam: float, mu: float, x):
    """Both sides of the smoothing composition identity.

    Returns ``(left, right)`` where left is the mu-envelope of the
    lam-envelope evaluated numerically (nested golden-section, no closed
    forms) and right is the (lam+mu)-envelope of the objective.  The two
    agree for every proper convex function.
    """
    lam = _require_lam(lam)
    mu = _require_lam(mu)
    x = as_point(x, obj.dim)
    piece = _coordinate_piece(obj)
    left = 0.0
    for i in range(obj.dim):
        xi = float(x[i])

        def env_piece(u, i=i):
            w = _prox_1d(piece, i, lam, u)
            return piece(i, w) + (w - u) ** 2 / (2.0 * lam)

        def outer(u, i=i, xi=xi):
            return env_piece(u, i) + (u - xi) ** 2 / (2.0 * mu)

        left += outer(_golden_min(outer, *_localize(outer, *_bracket(piece, i, mu, xi))))
    right = moreau_value(obj, lam + mu, x)
    return float(left), float(right)


def tikhonov_center(obj: Objective, lam, eps) -> np.ndarray:
    """Unique zero of grad_envelope(.) + eps * Id, namely

        prox(lam + 1/eps, 0) / (lam * eps + 1).

    Its norm never exceeds ||x_star|| and it converges to the least-norm
    minimizer as eps -> 0 (with lam * eps -> 0).  lam and eps may also be
    ``(N, 1)`` columns, giving the ``(N, dim)`` centers in one prox call.
    """
    lam, eps = np.asarray(lam, dtype=float), np.asarray(eps, dtype=float)
    for name, v in (("lam", lam), ("eps", eps)):
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise ParameterDomainError(f"{name} must be a positive real, got {v}")
    zero = np.zeros(np.broadcast_shapes(lam.shape, (obj.dim,)))
    return obj.prox(lam + 1.0 / eps, zero) / (lam * eps + 1.0)


# ---------------------------------------------------------------------------
# built-in objectives


def abs_plus_quad() -> Objective:
    """Scalar |x| + x^2/2; minimizer 0, optimal value 0."""

    def value(x):
        u = x[..., 0]
        return abs(u) + 0.5 * u * u

    def prx(lam, x):
        return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0) / (1.0 + lam)

    def coordinate_prox(i, lam, u):
        # np.sign(u) inline: +0.0 for either zero, NaN for NaN
        sign = 1.0 if u > 0.0 else -1.0 if u < 0.0 else u if u != u else 0.0
        return sign * max(abs(u) - lam, 0.0) / (1.0 + lam)

    prx.coordinate_prox = coordinate_prox

    return Objective(
        name="abs_plus_quad",
        dim=1,
        value=value,
        prox=prx,
        phi_star=0.0,
        x_star=np.zeros(1),
        coordinate_value=lambda i, u: abs(u) + 0.5 * u * u,
        kink_points=lambda lam: (-lam, 0.0, lam),
        lambda_switches=lambda u: (abs(u),),
    )


def dist_to_interval() -> Objective:
    """Distance to the interval [-1, 1]; flat minimum, least-norm solution 0."""

    def value(x):
        return np.maximum(np.abs(x[..., 0]) - 1.0, 0.0)

    def prx(lam, x):
        out = np.where(x > 1.0 + lam, x - lam, np.where(x > 1.0, 1.0, x))
        out = np.where(x < -1.0 - lam, x + lam, np.where(x < -1.0, -1.0, out))
        return out.astype(float)

    def coordinate_prox(i, lam, u):
        if u > 1.0 + lam:
            return u - lam
        if u > 1.0:
            return 1.0
        if u < -1.0 - lam:
            return u + lam
        if u < -1.0:
            return -1.0
        return u

    prx.coordinate_prox = coordinate_prox

    return Objective(
        name="dist_to_interval",
        dim=1,
        value=value,
        prox=prx,
        phi_star=0.0,
        x_star=np.zeros(1),
        coordinate_value=lambda i, u: max(abs(u) - 1.0, 0.0),
        kink_points=lambda lam: (-1.0 - lam, -1.0, 1.0, 1.0 + lam),
        lambda_switches=lambda u: (abs(u) - 1.0,) if abs(u) > 1.0 else (),
    )


def l1_norm(dim: int = 1) -> Objective:
    """Sum of absolute values on R^dim; prox is the soft threshold."""
    if dim < 1:
        raise ParameterDomainError("dim must be >= 1")

    def value(x):
        return np.sum(np.abs(x), axis=-1)

    def prx(lam, x):
        return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)

    def coordinate_prox(i, lam, u):
        # np.sign(u) inline: +0.0 for either zero, NaN for NaN
        sign = 1.0 if u > 0.0 else -1.0 if u < 0.0 else u if u != u else 0.0
        return sign * max(abs(u) - lam, 0.0)

    prx.coordinate_prox = coordinate_prox

    return Objective(
        name="l1_norm",
        dim=dim,
        value=value,
        prox=prx,
        phi_star=0.0,
        x_star=np.zeros(dim),
        coordinate_value=lambda i, u: abs(u),
        kink_points=lambda lam: (-lam, 0.0, lam),
        lambda_switches=lambda u: (abs(u),),
    )


def scaled_shifted_quadratic(c: float = 1.0, z=4.0) -> Objective:
    """Quadratic (c/2) ||x - z||^2 with unique minimizer z."""
    c = float(c)
    if not 0.0 < c < math.inf:
        raise ParameterDomainError("c must be a positive real")
    zarr = as_point(z)
    zs = zarr.tolist()

    def value(x):
        return 0.5 * c * np.sum((x - zarr) ** 2, axis=-1)

    def prx(lam, x):
        return (x + lam * c * zarr) / (1.0 + lam * c)

    def coordinate_prox(i, lam, u):
        return (u + lam * c * zs[i]) / (1.0 + lam * c)

    prx.coordinate_prox = coordinate_prox

    return Objective(
        name="scaled_shifted_quadratic",
        dim=zarr.size,
        value=value,
        prox=prx,
        phi_star=0.0,
        x_star=zarr.copy(),
        coordinate_value=lambda i, u: 0.5 * c * (u - zarr[i]) ** 2,
    )


def box_indicator(lo: float = -1.0, hi: float = 1.0, dim: int = 1) -> Objective:
    """Indicator of the box [lo, hi]^dim; prox is the projection (clip)."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ParameterDomainError("box requires hi > lo")
    if dim < 1:
        raise ParameterDomainError("dim must be >= 1")

    def value(x):
        return np.where(np.all((x >= lo) & (x <= hi), axis=-1), 0.0, math.inf)[()]

    def prx(lam, x):
        return np.clip(x, lo, hi)

    def coordinate_prox(i, lam, u):
        # like np.clip, a bound replaces u only when strictly beyond it, so
        # -0.0 stays -0.0 at a bound 0.0 and NaN stays NaN
        return min(max(u, lo), hi)

    prx.coordinate_prox = coordinate_prox

    return Objective(
        name="box_indicator",
        dim=dim,
        value=value,
        prox=prx,
        phi_star=0.0,
        x_star=np.full(dim, min(max(0.0, lo), hi)),
        coordinate_value=lambda i, u: 0.0 if lo <= u <= hi else math.inf,
        kink_points=lambda lam: (lo, hi),
    )


_BUILTINS = {
    "abs_plus_quad": abs_plus_quad,
    "dist_to_interval": dist_to_interval,
    "l1_norm": l1_norm,
    "scaled_shifted_quadratic": scaled_shifted_quadratic,
    "box_indicator": box_indicator,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))

# the keyword parameters of each factory, read once rather than per call
_PARAMETERS = {name: tuple(inspect.signature(factory).parameters)
               for name, factory in _BUILTINS.items()}


def make_objective(name: str, **params) -> Objective:
    """Instantiate a built-in objective by registry name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ParameterDomainError(
            f"unknown objective {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        ) from None
    unknown = sorted(set(params) - set(_PARAMETERS[name]))
    if unknown:
        raise ParameterDomainError(
            f"objective {name!r} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(_PARAMETERS[name]) or 'none'}")
    return factory(**params)
