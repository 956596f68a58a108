"""Randomized self-test battery for the prox calculus.

Runs the library's envelope invariants against the objective registry with a
fixed seed, comparing closed forms to the bracketing oracle, checking the
identities every objective must satisfy and checking that each scalar prox
the integrator uses equals the array prox bit for bit.  This is the engine
behind the prox-selftest CLI command; the pytest suite covers the same ground
with hypothesis-driven cases, while this battery is deterministic and
reportable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import (
    Objective,
    abs_plus_quad,
    box_indicator,
    dist_to_interval,
    l1_norm,
    moreau_gradient,
    moreau_lambda_derivative,
    moreau_value,
    prox,
    prox_oracle,
    scaled_shifted_quadratic,
    tikhonov_center,
)

__all__ = ["PropertyResult", "run_prox_selftest", "default_registry"]


@dataclass
class PropertyResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    samples: int
    witness: str = ""

    def format(self) -> str:
        state = "pass" if self.passed else "FAIL"
        txt = (f"[{state}] {self.name}: max error {self.max_error:.3g} "
               f"(tol {self.tolerance:.3g}, {self.samples} samples)")
        if self.witness and not self.passed:
            txt += f"  witness: {self.witness}"
        return txt


def default_registry():
    return [
        abs_plus_quad(),
        dist_to_interval(),
        l1_norm(dim=3),
        scaled_shifted_quadratic(),
        box_indicator(-1.0, 1.0, dim=2),
    ]


def _draw(rng, obj: Objective, spread: float = 6.0) -> np.ndarray:
    return rng.uniform(-spread, spread, size=obj.dim)


def _away_from(value: float, hazards, min_gap: float) -> bool:
    return all(abs(value - h) > min_gap for h in hazards)


class _Battery:
    def __init__(self, rng, samples: int):
        self.rng = rng
        self.samples = samples
        self.results: list = []

    def run(self, name: str, tolerance: float, case_fn) -> None:
        """case_fn(rng) -> (error, witness); worst case across samples wins."""
        worst, who = 0.0, ""
        for _ in range(self.samples):
            err, witness = case_fn(self.rng)
            if err > worst:
                worst, who = err, witness
        self.results.append(PropertyResult(
            name=name, passed=worst <= tolerance, max_error=worst,
            tolerance=tolerance, samples=self.samples, witness=who))


def run_prox_selftest(objectives=None, seed: int = 12345, samples: int = 100):
    """Run the invariant battery; returns one PropertyResult per property."""
    if objectives is None:
        objectives = default_registry()
    objectives = list(objectives)
    rng = np.random.default_rng(seed)
    battery = _Battery(rng, samples)
    if not objectives:
        return battery.results

    def pick(rng):
        return objectives[int(rng.integers(len(objectives)))]

    def nonexpansive(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.05, 4.0))
        x, y = _draw(rng, obj), _draw(rng, obj)
        lhs = float(np.linalg.norm(prox(obj, lam, x) - prox(obj, lam, y)))
        rhs = float(np.linalg.norm(x - y))
        return lhs - rhs, f"{obj.name}, lam={lam:.4g}, x={x}, y={y}"

    battery.run("prox nonexpansive", 1e-10, nonexpansive)

    def envelope_bounds(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.05, 4.0))
        x = _draw(rng, obj)
        env = moreau_value(obj, lam, x)
        over = env - float(obj.value(np.asarray(x, dtype=float)))
        under = float(obj.phi_star) - env
        return max(over, under), f"{obj.name}, lam={lam:.4g}, x={x}"

    battery.run("envelope between optimum and objective", 1e-10, envelope_bounds)

    def gradient_fd(rng):
        obj = pick(rng)
        if obj.dim != 1:
            obj = abs_plus_quad()
        lam = float(rng.uniform(0.2, 3.0))
        h = 1e-6
        for _ in range(40):
            x = float(rng.uniform(-6.0, 6.0))
            if _away_from(x, obj.kink_points(lam), 50.0 * h):
                break
        g = float(moreau_gradient(obj, lam, [x])[0])
        fd = (moreau_value(obj, lam, [x + h]) - moreau_value(obj, lam, [x - h])) / (2.0 * h)
        rel = abs(g - fd) / max(1.0, abs(g))
        return rel, f"{obj.name}, lam={lam:.4g}, x={x:.6g}"

    battery.run("gradient matches finite differences", 1e-5, gradient_fd)

    def lambda_derivative_fd(rng):
        obj = pick(rng)
        if obj.dim != 1:
            obj = abs_plus_quad()
        h = 1e-5
        for _ in range(40):
            x = float(rng.uniform(-6.0, 6.0))
            lam = float(rng.uniform(0.2, 3.0))
            if _away_from(lam, obj.lambda_switches(x), 50.0 * h):
                break
        dv = moreau_lambda_derivative(obj, lam, [x])
        fd = (moreau_value(obj, lam + h, [x]) - moreau_value(obj, lam - h, [x])) / (2.0 * h)
        rel = abs(dv - fd) / max(1.0, abs(dv))
        return rel, f"{obj.name}, lam={lam:.4g}, x={x:.6g}"

    battery.run("smoothing derivative matches finite differences", 1e-4,
                lambda_derivative_fd)

    def envelope_shift(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.1, 2.0))
        mu = float(rng.uniform(0.1, 2.0))
        x = _draw(rng, obj)
        # envelope of the envelope at mu equals the envelope at lam + mu:
        # evaluate both sides through the shifted-prox identity
        direct = moreau_value(obj, lam + mu, x)
        p = prox(obj, lam + mu, x)
        mid = (lam / (lam + mu)) * np.asarray(x, dtype=float) + (mu / (lam + mu)) * p
        nested = moreau_value(obj, lam, mid) + float(np.dot(x - mid, x - mid)) / (2.0 * mu)
        return abs(direct - nested), f"{obj.name}, lam={lam:.4g}, mu={mu:.4g}, x={x}"

    battery.run("smoothing composes additively", 1e-6, envelope_shift)

    def composition_prox(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.1, 2.0))
        mu = float(rng.uniform(0.1, 2.0))
        x = _draw(rng, obj)
        from .objectives import envelope_composition_prox
        got = envelope_composition_prox(obj, lam, mu, x)
        want = (lam / (lam + mu)) * np.asarray(x, dtype=float) \
            + (mu / (lam + mu)) * prox(obj, lam + mu, x)
        return float(np.max(np.abs(got - want))), f"{obj.name}, lam={lam:.4g}, mu={mu:.4g}"

    battery.run("prox of the smoothed objective", 1e-8, composition_prox)

    def closed_form_vs_oracle(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.1, 3.0))
        x = _draw(rng, obj)
        a = prox(obj, lam, x)
        b = prox_oracle(obj, lam, x)
        return float(np.max(np.abs(a - b))), f"{obj.name}, lam={lam:.4g}, x={x}"

    # value-only bracketing cannot resolve a smooth minimum below the
    # sqrt(machine eps) valley floor, about 5e-8 at these draw scales
    battery.run("closed-form prox matches bracketing oracle", 5e-7,
                closed_form_vs_oracle)

    def tikhonov_bound(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.1, 3.0))
        eps = float(10.0 ** rng.uniform(-4.0, 1.0))
        c = tikhonov_center(obj, lam, eps)
        excess = float(np.linalg.norm(c)) - float(np.linalg.norm(obj.x_star))
        return excess, f"{obj.name}, lam={lam:.4g}, eps={eps:.4g}"

    battery.run("regularized center inside least-norm ball", 1e-9, tikhonov_bound)

    def tikhonov_residual(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.1, 3.0))
        eps = float(10.0 ** rng.uniform(-3.0, 1.0))
        c = tikhonov_center(obj, lam, eps)
        res = float(np.linalg.norm(moreau_gradient(obj, lam, c) + eps * c))
        return res, f"{obj.name}, lam={lam:.4g}, eps={eps:.4g}"

    battery.run("regularized center optimality residual", 1e-8, tikhonov_residual)

    def gradient_lipschitz(rng):
        obj = pick(rng)
        lam = float(rng.uniform(0.05, 4.0))
        x, y = _draw(rng, obj), _draw(rng, obj)
        lhs = float(np.linalg.norm(
            moreau_gradient(obj, lam, x) - moreau_gradient(obj, lam, y)))
        rhs = float(np.linalg.norm(x - y)) / lam
        return lhs - rhs, f"{obj.name}, lam={lam:.4g}, x={x}, y={y}"

    battery.run("gradient 1/lambda Lipschitz", 1e-9, gradient_lipschitz)

    # the scalar prox: the source the integrator splices in, compiled once
    # with its params; an objective without one is skipped
    scalar = [(obj, eval(f"lambda i, lam, u: {obj.prox.coordinate_source}",
                         dict(obj.prox.coordinate_params)))
              for obj in objectives if hasattr(obj.prox, "coordinate_source")]

    def scalar_prox_bits(rng):
        obj, form = scalar[int(rng.integers(len(scalar)))]
        lam = float(rng.uniform(0.05, 4.0))
        x = _draw(rng, obj)
        # the drawn point, every coordinate at +-0 and at each kink, and the
        # drawn point at each lambda where one of its coordinates switches branch
        cases = [(lam, x)] + [(lam, np.full(obj.dim, v))
                              for v in (0.0, -0.0, *obj.kink_points(lam))]
        cases += [(s, x) for u in x.tolist() for s in obj.lambda_switches(u) if s > 0.0]
        wrong = [(lam_i, p) for lam_i, p in cases
                 if not _scalar_prox_matches(obj, form, lam_i, p)]
        witness = f"{obj.name}, lam={wrong[0][0]!r}, x={wrong[0][1].tolist()}" if wrong else ""
        return float(len(wrong)), witness

    # the error is a count of mismatched cases, so any mismatch exceeds 0.5
    if scalar:
        battery.run("scalar prox equals array prox bit for bit", 0.5, scalar_prox_bits)

    return battery.results


def _scalar_prox_matches(obj: Objective, form, lam: float, x: np.ndarray) -> bool:
    got = np.array([form(i, lam, u) for i, u in enumerate(x.tolist())])
    return got.tobytes() == obj.prox(lam, x).tobytes()
