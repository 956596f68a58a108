"""Energy formulas, descent checks, rate fits and strong-convergence metrics."""

import math

import numpy as np
import pytest

from proxdyn import (
    InsufficientDataError,
    IntegratorSettings,
    ParameterDomainError,
    PolyParams,
    StepStats,
    SystemConfig,
    Trajectory,
    abs_plus_quad,
    integrate,
    l1_norm,
    moreau_gradient,
    moreau_value,
    polynomial_schedule,
    scaled_shifted_quadratic,
)
from proxdyn.diagnostics import (
    DescentReport,
    check_energy_descent,
    compute_observables,
    energy_pq,
    energy_q,
    energy_q_series,
    fit_rate_slope,
    strong_convergence_metrics,
    unanchored_energy,
    unanchored_energy_series,
)


def const_schedule(t0=1.0):
    """b = lam = 1 and eps = t**-3, so b = lam = eps = 1 at t = 1, where the
    hand values are taken."""
    return polynomial_schedule(PolyParams(1.0, 0.0, 1.0, 3.0), t0)


def unit_cfg(alpha=10.0, beta=0.0, objective=None):
    return SystemConfig(
        objective=objective if objective is not None else l1_norm(),
        schedule=const_schedule(), alpha=alpha, beta=beta, t0=1.0,
        x0=2.0, xdot0=0.0, horizon=10.0)


@pytest.fixture(scope="module")
def reference_run():
    """The abs_plus_quad flow with alpha=10, beta=0, constant b, eps = t^-3."""
    cfg = SystemConfig(
        objective=abs_plus_quad(),
        schedule=polynomial_schedule(PolyParams(1.0, 0.0, 1.0, 3.0), 1.4),
        alpha=10.0, beta=0.0, t0=1.4, x0=10.0, xdot0=0.0, horizon=140.0)
    return integrate(cfg, IntegratorSettings(sample_stride=4))


# ------------------------------------------------------------------- energies


def test_energy_q_hand_values():
    sample = (1.0, [2.0], [0.0])
    assert energy_q(sample, 2.0, unit_cfg(beta=0.0)) == pytest.approx(39.5)
    assert energy_q(sample, 2.0, unit_cfg(beta=1.0)) == pytest.approx(53.0)


def test_energy_pq_hand_value_and_canonical_exponents():
    # (p, q) = (0, 2) is the strong-convergence argument's pair
    # ((alpha - 3) / 3, 2 alpha / 3) at alpha = 3
    cfg = unit_cfg(alpha=3.0)
    assert energy_pq((1.0, [2.0], [0.0]), 0.0, 2.0, cfg) == pytest.approx(11.5)


def test_energy_parameter_domains():
    cfg = unit_cfg()
    sample = (1.0, [2.0], [0.0])
    with pytest.raises(ParameterDomainError):
        energy_q(sample, 1.5, cfg)
    with pytest.raises(ParameterDomainError):
        energy_q(sample, 9.5, cfg)
    with pytest.raises(ParameterDomainError):
        unanchored_energy(sample, 1.0, cfg)
    with pytest.raises(ParameterDomainError):
        energy_pq(sample, -0.1, 2.0, cfg)
    with pytest.raises(ParameterDomainError):
        energy_pq(sample, 0.0, -2.0, cfg)


def test_energies_vanish_at_stationary_anchor():
    cfg = unit_cfg(beta=1.0)
    sample = (2.0, [0.0], [0.0])
    assert energy_q(sample, 2.0, cfg) == 0.0
    assert unanchored_energy(sample, 2.0, cfg) == 0.0
    assert energy_pq(sample, 1.0, 2.0, cfg) == 0.0


def test_unanchored_identity_along_trajectory(reference_run):
    traj = reference_run
    cfg = traj.cfg
    q = 9.0
    E = energy_q_series(traj, q)
    psi = unanchored_energy_series(traj, q)
    for i in range(len(traj)):
        lam = float(cfg.schedule.lam(traj.ts[i]))
        g = moreau_gradient(cfg.objective, lam, traj.xs[i])
        w = traj.xdots[i] + cfg.beta * g
        dx = traj.xs[i]  # x_star = 0
        expected = (E[i] - q * traj.ts[i] * float(np.dot(w, dx))
                    - 0.5 * q * (cfg.alpha - 1.0) * float(np.dot(dx, dx)))
        assert psi[i] == pytest.approx(expected, abs=1e-9 * max(1.0, abs(E[i])))


def test_single_sample_energies_match_batched_columns(reference_run):
    traj = reference_run
    cfg, s, q = traj.cfg, traj.cfg.schedule, 9.0
    obs = compute_observables(traj)
    assert obs.q == q
    for i in range(0, len(traj), 50):
        t, x, xdot = float(traj.ts[i]), traj.xs[i], traj.xdots[i]
        # per-sample reference from the scalar envelope calculus (x* = 0, beta = 0)
        lam, b, eps = float(s.lam(t)), float(s.b(t)), float(s.eps(t))
        gap = moreau_value(cfg.objective, lam, x)
        v = q * x + t * xdot
        lead = t ** 2 * b * gap + 0.5 * t ** 2 * eps * float(np.dot(x, x))
        E_ref = lead + 0.5 * float(np.dot(v, v)) + 0.5 * q * (cfg.alpha - 1.0 - q) * float(np.dot(x, x))
        psi_ref = lead + 0.5 * t ** 2 * float(np.dot(xdot, xdot))
        for scalar, column, ref in ((energy_q, obs.energy_q, E_ref),
                                    (unanchored_energy, obs.psi, psi_ref)):
            E = scalar((t, x, xdot), q, cfg)
            tol = 1e-15 * max(1.0, abs(E))
            assert abs(E - column[i]) <= tol, (scalar.__name__, i)
            assert abs(ref - column[i]) <= tol, (scalar.__name__, i)


def test_unanchored_energy_decays_on_tail(reference_run):
    traj = reference_run
    psi = unanchored_energy_series(traj, 9.0)
    quarter = int(np.searchsorted(traj.ts, traj.ts[-1] / 4.0))
    assert psi[-1] < psi[quarter]


# ----------------------------------------------------------------- observables


def test_observables_single_sample_values():
    cfg = unit_cfg()
    traj = Trajectory(ts=np.array([1.0]), xs=np.array([[2.0]]),
                      auxs=np.array([[0.0]]), xdots=np.array([[-1.0]]),
                      stats=StepStats(), cfg=cfg)
    obs = compute_observables(traj)
    assert obs.moreau_gap[0] == pytest.approx(1.5)
    assert obs.function_gap[0] == pytest.approx(1.0)
    assert obs.prox_dist[0] == pytest.approx(1.0)
    assert obs.grad_norm[0] == pytest.approx(1.0)
    assert obs.velocity_combo[0] == pytest.approx(1.0)  # beta = 0, |xdot|
    assert obs.dist_to_xstar[0] == pytest.approx(2.0)
    # center of the Tikhonov-regularized envelope at eps = 1 is the origin
    assert obs.tikhonov_gap[0] == pytest.approx(2.0)


def test_prox_decomposition_identity_along_run(reference_run):
    traj = reference_run
    obs = compute_observables(traj)
    lam = np.asarray(traj.cfg.schedule.lam(obs.ts))
    lhs = obs.moreau_gap
    rhs = obs.function_gap + obs.prox_dist ** 2 / (2.0 * lam)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-9


def test_tikhonov_gap_is_nan_without_regularization():
    cfg = SystemConfig(
        objective=abs_plus_quad(),
        schedule=polynomial_schedule(PolyParams(1.0, 0.0, 0.0, 3.0), 1.4),
        alpha=10.0, beta=0.0, t0=1.4, x0=10.0, xdot0=0.0, horizon=14.0)
    traj = integrate(cfg, IntegratorSettings(sample_stride=20))
    obs = compute_observables(traj)
    assert np.all(np.isnan(obs.tikhonov_gap))
    assert np.all(np.isfinite(obs.moreau_gap))


# -------------------------------------------------------------- energy descent


def test_energy_descent_holds_on_reference_run(reference_run):
    rep = check_energy_descent(compute_observables(reference_run, 9.0), a=2.0)
    assert isinstance(rep, DescentReport)
    assert rep.passed, rep.format()
    assert rep.violations == 0
    assert "pass" in rep.format()


def test_energy_descent_detects_ascent(reference_run):
    traj = reference_run
    backwards = Trajectory(ts=traj.ts, xs=traj.xs[::-1], auxs=traj.auxs[::-1],
                           xdots=traj.xdots[::-1], stats=traj.stats, cfg=traj.cfg)
    rep = check_energy_descent(compute_observables(backwards, 9.0), a=2.0)
    assert not rep.passed
    assert rep.violations > 0.5 * rep.intervals


def test_energy_descent_needs_horizon_past_start():
    cfg = SystemConfig(
        objective=abs_plus_quad(),
        schedule=polynomial_schedule(PolyParams(1.0, 0.0, 1.0, 3.0), 1.4),
        alpha=10.0, beta=1.0, t0=1.4, x0=10.0, xdot0=0.0, horizon=2.1)
    traj = integrate(cfg, IntegratorSettings(sample_stride=50))
    # descent start for (q=9, a=2) is t = 2, beyond all but the last samples
    with pytest.raises(InsufficientDataError):
        check_energy_descent(compute_observables(traj, 9.0), a=2.0)


# ------------------------------------------------------------------- rate fits


def test_fit_rate_slope_recovers_exact_power_law():
    ts = np.geomspace(1.0, 100.0, 200)
    fit = fit_rate_slope(ts, ts ** -4.0, theory_slope=-3.5, quantity="synthetic")
    assert fit.slope == pytest.approx(-4.0, abs=1e-12)
    assert fit.margin == pytest.approx(0.5, abs=1e-12)
    assert fit.window[0] >= 10.0
    assert not fit.warning


def test_fit_rate_slope_respects_window():
    ts = np.geomspace(1.0, 100.0, 300)
    vals = np.where(ts < 10.0, ts ** -1.0, ts ** -3.0 * 10.0 ** 2.0)
    fit = fit_rate_slope(ts, vals, window=(1.0, 9.9))
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)


def test_fit_rate_slope_truncates_at_roundoff_zeros():
    ts = np.geomspace(1.0, 100.0, 100)
    vals = ts ** -2.0
    vals[-5:] = 0.0
    fit = fit_rate_slope(ts, vals)
    assert fit.warning
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)


def test_fit_rate_slope_requires_enough_points():
    ts = np.geomspace(1.0, 100.0, 30)
    with pytest.raises(InsufficientDataError):
        fit_rate_slope(ts, ts ** -1.0, window=(90.0, 100.0))


# ------------------------------------------------------- strong-convergence


def test_strong_metrics_on_stationary_run():
    cfg = SystemConfig(
        objective=abs_plus_quad(),
        schedule=polynomial_schedule(PolyParams(1.0, 0.0, 1.0, 3.0), 1.4),
        alpha=10.0, beta=1.0, t0=1.4, x0=0.0, xdot0=0.0, horizon=14.0)
    traj = integrate(cfg, IntegratorSettings(sample_stride=10))
    rep = strong_convergence_metrics(compute_observables(traj))
    assert rep.final_dist == 0.0
    assert rep.min_dist == 0.0
    assert rep.crossings == 0
    assert rep.classification == "degenerate"


def test_strong_metrics_classifies_ball_crossing():
    cfg = SystemConfig(
        objective=scaled_shifted_quadratic(),  # least-norm minimizer at 4
        schedule=const_schedule(), alpha=10.0, beta=0.0, t0=1.0,
        x0=6.0, xdot0=0.0, horizon=10.0)
    ts = np.linspace(1.0, 2.0, 31)
    xs = np.linspace(6.0, 2.0, 31).reshape(-1, 1)
    traj = Trajectory(ts=ts, xs=xs, auxs=np.zeros_like(xs),
                      xdots=np.zeros_like(xs), stats=StepStats(), cfg=cfg)
    rep = strong_convergence_metrics(compute_observables(traj))
    assert rep.classification == "crossing"
    assert rep.crossings == 1
    assert rep.final_dist == pytest.approx(2.0)
    assert rep.min_dist == pytest.approx(0.0, abs=1e-12)


def test_strong_metrics_outside_classification(reference_run):
    rep = strong_convergence_metrics(compute_observables(reference_run))
    assert rep.classification == "outside"
    assert rep.crossings == 0
    assert rep.final_dist <= 1e-5


# ------------------------------------------------- boundedness proxy invariant


def test_scaled_gap_running_max_stabilizes(reference_run):
    traj = reference_run
    obs = compute_observables(traj)
    b = np.asarray(traj.cfg.schedule.b(traj.ts))
    scaled = traj.ts ** 2 * b * obs.moreau_gap
    running = np.maximum.accumulate(scaled)
    k = int(np.searchsorted(traj.ts, traj.ts[-1] / 10.0))
    assert running[-1] <= 1.05 * running[k]

