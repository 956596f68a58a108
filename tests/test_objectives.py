import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from proxdyn import (
    ParameterDomainError,
    UnsupportedOracleError,
    abs_plus_quad,
    box_indicator,
    dist_to_interval,
    envelope_composition_prox,
    envelope_of_envelope_check,
    l1_norm,
    make_objective,
    moreau_gradient,
    moreau_lambda_derivative,
    moreau_value,
    prox,
    prox_oracle,
    scaled_shifted_quadratic,
    tikhonov_center,
)
from proxdyn.objectives import Objective


def all_builtins():
    return [
        abs_plus_quad(),
        dist_to_interval(),
        l1_norm(dim=3),
        scaled_shifted_quadratic(c=1.0, z=4.0),
        box_indicator(-1.0, 1.0, dim=2),
    ]


# ---------------------------------------------------------------------------
# frozen example values, each cross-checked against the golden-section oracle


def test_prox_abs_plus_quad_example():
    f = abs_plus_quad()
    assert np.allclose(prox(f, 1.0, 2.0), 0.5)
    assert np.allclose(prox_oracle(f, 1.0, 2.0), 0.5, atol=1e-8)


def test_prox_l1_vector_example():
    f = l1_norm(dim=2)
    got = prox(f, 0.5, [1.0, -0.2])
    assert np.allclose(got, [0.5, 0.0])
    assert np.allclose(prox_oracle(f, 0.5, [1.0, -0.2]), [0.5, 0.0], atol=1e-8)


def test_moreau_value_examples():
    assert moreau_value(l1_norm(), 1.0, 2.0) == pytest.approx(1.5)
    assert moreau_value(abs_plus_quad(), 1.0, 2.0) == pytest.approx(1.75)


def test_moreau_gradient_example():
    g = moreau_gradient(abs_plus_quad(), 1.0, 2.0)
    assert np.allclose(g, 1.5)


def test_moreau_lambda_derivative_example():
    val = moreau_lambda_derivative(abs_plus_quad(), 1.0, 2.0)
    assert val == pytest.approx(-1.125)


def test_envelope_composition_prox_examples():
    f = l1_norm()
    assert np.allclose(envelope_composition_prox(f, 1.0, 1.0, 2.0), 1.0)
    assert np.allclose(envelope_composition_prox(f, 3.0, 1.0, 2.0), 1.5)


def test_envelope_of_envelope_example():
    left, right = envelope_of_envelope_check(l1_norm(), 1.0, 1.0, 3.0)
    assert right == pytest.approx(2.0)
    assert left == pytest.approx(2.0, abs=1e-6)


def test_tikhonov_center_example():
    f = scaled_shifted_quadratic(c=1.0, z=4.0)
    center = tikhonov_center(f, 1.0, 1.0)
    assert np.allclose(center, 4.0 / 3.0)
    # first-order optimality of the regularized envelope at the center
    resid = moreau_gradient(f, 1.0, center) + 1.0 * center
    assert np.linalg.norm(resid) < 1e-12


# ---------------------------------------------------------------------------
# closed form vs oracle on random draws


@pytest.mark.parametrize("obj", all_builtins(), ids=lambda o: o.name)
def test_closed_form_matches_oracle(obj):
    rng = np.random.default_rng(42)
    for _ in range(25):
        lam = float(rng.uniform(0.05, 4.0))
        x = rng.uniform(-6.0, 6.0, size=obj.dim)
        p_closed = prox(obj, lam, x)
        p_oracle = prox_oracle(obj, lam, x)
        # 5e-7 and not tighter: bracketing by values alone stalls at the
        # sqrt(machine eps) flat-valley floor when the minimum is smooth
        assert np.allclose(p_closed, p_oracle, atol=5e-7), (obj.name, lam, x)


def test_oracle_needs_coordinate_decomposition():
    # a 2-D objective without a separable piece cannot be searched
    bad = Objective(
        name="coupled",
        dim=2,
        value=lambda x: float(np.hypot(x[0], x[1])),
        prox=lambda lam, x: x,
        phi_star=0.0,
        x_star=np.zeros(2),
    )
    with pytest.raises(UnsupportedOracleError):
        prox_oracle(bad, 1.0, [1.0, 2.0])


def test_oracle_handles_offset_box():
    # indicator domain far from the query: bracket must auto-expand
    f = box_indicator(5.0, 7.0, dim=1)
    assert np.allclose(prox_oracle(f, 0.5, 1.0), 5.0, atol=1e-8)


# ---------------------------------------------------------------------------
# envelope calculus invariants


@pytest.mark.parametrize("obj", all_builtins(), ids=lambda o: o.name)
def test_envelope_bounds_and_monotonicity(obj):
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = float(rng.uniform(0.1, 3.0))
        x = rng.uniform(-3.0, 3.0, size=obj.dim)
        env = moreau_value(obj, lam, x)
        assert env >= obj.phi_star - 1e-12
        assert env <= obj.value(x) + 1e-12
        # envelope value decreases as the smoothing index grows
        assert moreau_value(obj, lam * 2.0, x) <= env + 1e-12


@pytest.mark.parametrize("obj", all_builtins(), ids=lambda o: o.name)
def test_gradient_finite_difference(obj):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 15:
        lam = float(rng.uniform(0.2, 3.0))
        x = rng.uniform(-5.0, 5.0, size=obj.dim)
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
        kinks = obj.kink_points(lam)
        if any(abs(xi - k) < 10 * h for xi in x for k in kinks):
            continue
        if not math.isfinite(obj.value(x + h)) or not math.isfinite(obj.value(x - h)):
            continue  # stay inside indicator domains shrunk by the step
        g = moreau_gradient(obj, lam, x)
        for i in range(obj.dim):
            e = np.zeros(obj.dim)
            e[i] = h
            fd = (moreau_value(obj, lam, x + e) - moreau_value(obj, lam, x - e)) / (2 * h)
            scale = max(1.0, abs(g[i]))
            assert abs(fd - g[i]) / scale < 1e-5
        checked += 1


@pytest.mark.parametrize("obj", all_builtins(), ids=lambda o: o.name)
def test_lambda_derivative_finite_difference(obj):
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 15:
        lam = float(rng.uniform(0.3, 3.0))
        x = rng.uniform(-5.0, 5.0, size=obj.dim)
        h = 1e-6 * lam
        if any(abs(lam - s) < 10 * h for xi in x for s in obj.lambda_switches(float(xi))):
            continue
        dv = moreau_lambda_derivative(obj, lam, x)
        fd = (moreau_value(obj, lam + h, x) - moreau_value(obj, lam - h, x)) / (2 * h)
        assert abs(fd - dv) / max(1.0, abs(dv)) < 1e-4
        checked += 1


@pytest.mark.parametrize("obj", all_builtins(), ids=lambda o: o.name)
def test_smoothing_composition_identities(obj):
    rng = np.random.default_rng(17)
    for _ in range(5):
        lam = float(rng.uniform(0.3, 2.0))
        mu = float(rng.uniform(0.3, 2.0))
        x = rng.uniform(-4.0, 4.0, size=obj.dim)
        left, right = envelope_of_envelope_check(obj, lam, mu, x)
        assert abs(left - right) < 1e-6
        # composition prox identity against a direct nested minimization
        p = envelope_composition_prox(obj, lam, mu, x)
        env_at_p = moreau_value(obj, lam, p) + float(np.sum((x - p) ** 2)) / (2 * mu)
        assert abs(env_at_p - left) < 1e-6


@pytest.mark.parametrize("obj", all_builtins(), ids=lambda o: o.name)
def test_tikhonov_center_norm_bound_and_limit(obj):
    rng = np.random.default_rng(19)
    xstar_norm = float(np.linalg.norm(obj.x_star))
    for _ in range(10):
        lam = float(rng.uniform(0.1, 2.0))
        eps = float(rng.uniform(0.01, 5.0))
        c = tikhonov_center(obj, lam, eps)
        assert np.linalg.norm(c) <= xstar_norm + 1e-9
        resid = moreau_gradient(obj, lam, c) + eps * c
        assert np.linalg.norm(resid) < 1e-9 * max(1.0, xstar_norm)
    # eps -> 0 with lam fixed: centers converge to the least-norm minimizer
    errs = [
        float(np.linalg.norm(tikhonov_center(obj, 1.0, eps) - obj.x_star))
        for eps in 2.0 ** -np.arange(0, 22)
    ]
    assert errs[-1] < 1e-4
    assert errs[-1] <= errs[0] + 1e-12


# ---------------------------------------------------------------------------
# hypothesis properties


@given(
    lam=st.floats(0.01, 10.0),
    x=st.floats(-50.0, 50.0),
    y=st.floats(-50.0, 50.0),
)
@hyp_settings(max_examples=60, deadline=None)
def test_prox_nonexpansive_hypothesis(lam, x, y):
    for obj in (abs_plus_quad(), dist_to_interval(), l1_norm()):
        px = prox(obj, lam, x)
        py = prox(obj, lam, y)
        assert np.linalg.norm(px - py) <= abs(x - y) + 1e-12


@given(
    lam=st.floats(0.05, 5.0),
    x=st.floats(-20.0, 20.0),
    y=st.floats(-20.0, 20.0),
)
@hyp_settings(max_examples=60, deadline=None)
def test_gradient_lipschitz_hypothesis(lam, x, y):
    # envelope gradient is 1/lam Lipschitz
    for obj in (abs_plus_quad(), dist_to_interval()):
        gx = moreau_gradient(obj, lam, x)
        gy = moreau_gradient(obj, lam, y)
        assert np.linalg.norm(gx - gy) <= abs(x - y) / lam + 1e-10


@given(lam=st.floats(0.05, 5.0), x=st.floats(-20.0, 20.0))
@hyp_settings(max_examples=60, deadline=None)
def test_envelope_same_minimum_hypothesis(lam, x):
    for obj in (abs_plus_quad(), l1_norm()):
        assert moreau_value(obj, lam, x) >= obj.phi_star - 1e-12
        assert moreau_value(obj, lam, obj.x_star) == pytest.approx(obj.phi_star, abs=1e-12)


# ---------------------------------------------------------------------------
# domain errors


def test_domain_errors():
    f = abs_plus_quad()
    with pytest.raises(ParameterDomainError):
        prox(f, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        prox(f, -1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        moreau_value(f, math.nan, 1.0)
    with pytest.raises(ParameterDomainError):
        tikhonov_center(f, 1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        prox(f, 1.0, [1.0, 2.0])  # dimension mismatch
    with pytest.raises(ParameterDomainError):
        prox(f, 1.0, math.inf)
    with pytest.raises(ParameterDomainError):
        make_objective("no_such_objective")
    with pytest.raises(ParameterDomainError):
        scaled_shifted_quadratic(c=-1.0, z=0.0)
    with pytest.raises(ParameterDomainError):
        box_indicator(2.0, 1.0)


def test_registry_lookup():
    f = make_objective("l1_norm", dim=4)
    assert f.dim == 4
    assert f.name == "l1_norm"
