"""Reformulation right-hand sides, integrators and the residual validator."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import proxdyn
from proxdyn import (
    DivergenceError,
    InsufficientDataError,
    PolyParams,
    StepSizeError,
    SystemConfig,
    ValidationError,
    abs_plus_quad,
    l1_norm,
    moreau_value,
    polynomial_schedule,
    scaled_shifted_quadratic,
)
from proxdyn.dynamics import (
    IntegratorSettings,
    initial_aux,
    integrate,
    residual_second_order,
    rhs_beta_positive,
    rhs_beta_zero,
)


def make_cfg(objective=None, alpha=10.0, beta=1.0, t0=1.4, horizon=140.0,
             x0=10.0, xdot0=0.0, n=0.0, d=3.0, eps_coeff=1.0):
    return SystemConfig(
        objective=objective if objective is not None else abs_plus_quad(),
        schedule=polynomial_schedule(PolyParams(1.0, n, eps_coeff, d), t0),
        alpha=alpha, beta=beta, t0=t0, x0=x0, xdot0=xdot0, horizon=horizon,
    )


# ------------------------------------------------------------- right-hand sides


def test_rhs_beta_positive_hand_value():
    cfg = make_cfg()
    xd, yd = rhs_beta_positive(cfg, 2.0, [2.0], [0.0])
    assert xd[0] == pytest.approx(-9.5)
    assert yd[0] == pytest.approx(-2.75)


def test_rhs_beta_zero_hand_value():
    cfg = make_cfg(objective=l1_norm(), alpha=3.0, beta=0.0, t0=1.0,
                   horizon=10.0, x0=2.0, d=1.0)
    xd, yd = rhs_beta_zero(cfg, 1.0, [2.0], [1.0])
    assert xd[0] == pytest.approx(1.0)
    assert yd[0] == pytest.approx(-6.0)


def test_rhs_rejects_wrong_reformulation():
    with pytest.raises(ValidationError):
        rhs_beta_positive(make_cfg(beta=0.0), 2.0, [1.0], [0.0])
    with pytest.raises(ValidationError):
        rhs_beta_zero(make_cfg(beta=1.0), 2.0, [1.0], [0.0])


def test_rhs_stationary_at_least_norm_point():
    cfg = make_cfg(objective=l1_norm(), x0=0.0)
    xd, yd = rhs_beta_positive(cfg, 2.0, [0.0], [0.0])
    assert np.all(xd == 0.0) and np.all(yd == 0.0)
    cfg0 = make_cfg(objective=l1_norm(), beta=0.0, x0=0.0)
    xd, yd = rhs_beta_zero(cfg0, 2.0, [0.0], [0.0])
    assert np.all(xd == 0.0) and np.all(yd == 0.0)


def test_rhs_dimensions_follow_objective():
    cfg = make_cfg(objective=l1_norm(dim=3), x0=[1.0, -2.0, 0.5], xdot0=[0.0, 0.0, 0.0])
    xd, yd = rhs_beta_positive(cfg, 2.0, [1.0, -2.0, 0.5], [0.0, 0.0, 0.0])
    assert xd.shape == (3,) and yd.shape == (3,)


def test_rhs_affine_in_aux_variable():
    cfg = make_cfg()
    x = np.array([2.0])
    base = rhs_beta_positive(cfg, 2.0, x, np.array([0.0]))
    one = rhs_beta_positive(cfg, 2.0, x, np.array([3.0]))
    two = rhs_beta_positive(cfg, 2.0, x, np.array([6.0]))
    for i in range(2):
        assert two[i] - base[i] == pytest.approx(2.0 * (one[i] - base[i]))


def test_initial_aux_matches_requested_velocity():
    cfg0 = make_cfg(beta=0.0, xdot0=-3.0)
    assert initial_aux(cfg0)[0] == -3.0
    # with beta > 0 the first reconstructed velocity must equal xdot0
    cfg = make_cfg(xdot0=-3.0)
    xd, _ = rhs_beta_positive(cfg, cfg.t0, cfg.x0, initial_aux(cfg))
    assert xd[0] == pytest.approx(-3.0, abs=1e-12)


# ------------------------------------------------------------------ integrate


def test_trajectory_endpoints_and_monotone_time():
    cfg = make_cfg(horizon=14.0)
    traj = integrate(cfg, IntegratorSettings(sample_stride=7))
    assert traj.ts[0] == cfg.t0
    assert traj.ts[-1] == cfg.horizon
    assert np.all(np.diff(traj.ts) > 0)
    assert traj.xs[0, 0] == 10.0
    assert traj.xdots[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_stationary_point_is_preserved():
    for beta in (0.0, 1.0):
        cfg = make_cfg(beta=beta, x0=0.0, xdot0=0.0)
        traj = integrate(cfg)
        assert float(np.max(np.abs(traj.xs))) <= 1e-10


def test_reruns_are_bit_identical():
    cfg = make_cfg(horizon=14.0)
    a = integrate(cfg, IntegratorSettings(sample_stride=3))
    b = integrate(cfg, IntegratorSettings(sample_stride=3))
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.xdots, b.xdots)
    assert a.stats == b.stats


def test_moreau_gap_collapses_on_reference_preset():
    cfg = make_cfg(beta=0.0)
    traj = integrate(cfg, IntegratorSettings(sample_stride=10))
    obj = cfg.objective
    lam_T = float(cfg.schedule.lam(traj.ts[-1]))
    gap_T = moreau_value(obj, lam_T, traj.xs[-1]) - obj.phi_star
    gap_0 = moreau_value(obj, 1.0, traj.xs[0]) - obj.phi_star
    assert gap_T <= 1e-4 * gap_0


def test_adaptive_and_fixed_step_agree_on_smooth_problem():
    cfg = make_cfg(objective=scaled_shifted_quadratic(), horizon=11.4)
    a = integrate(cfg, IntegratorSettings(method="rk45_adaptive", rtol=1e-10, atol=1e-12))
    b = integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=2e-3))
    assert a.ts[-1] == b.ts[-1]
    assert float(np.max(np.abs(a.xs[-1] - b.xs[-1]))) <= 1e-6


def test_divergence_guard_reports_last_good_time():
    cfg = make_cfg(objective=l1_norm(), alpha=0.5, beta=0.0, t0=1.0,
                   horizon=1e5, x0=0.0, xdot0=1e11, eps_coeff=0.0)
    with pytest.raises(DivergenceError) as exc:
        integrate(cfg, IntegratorSettings())
    assert 1.0 <= exc.value.t_last < 1e5


def nan_outside_five(obj):
    """obj with a prox that returns NaN wherever |x| > 5."""
    def prox(lam, x):
        return np.where(np.abs(x) > 5.0, np.nan, obj.prox(lam, x))
    return dataclasses.replace(obj, prox=prox)


def test_non_finite_stage_is_a_divergence():
    # starts inside |x| <= 5 and runs out of it, so a stage turns NaN mid-run
    cfg = make_cfg(objective=nan_outside_five(abs_plus_quad()), beta=0.0, x0=4.0,
                   xdot0=10.0, horizon=14.0)
    with pytest.raises(DivergenceError, match=r"at t = .*, h = ") as exc:
        integrate(cfg)
    assert cfg.t0 <= exc.value.t_last < cfg.horizon


def test_divergence_guard_bounds_the_auxiliary_state():
    # y = xdot starts at 50 while x stays below 5 up to the horizon
    cfg = make_cfg(objective=l1_norm(), beta=0.0, t0=1.0, horizon=1.1, x0=0.0, xdot0=50.0)
    free = integrate(cfg)
    assert float(np.max(np.abs(free.xs))) < 20.0 < float(np.max(np.abs(free.auxs)))
    with pytest.raises(DivergenceError) as exc:
        integrate(cfg, IntegratorSettings(divergence_threshold=20.0))
    assert exc.value.t_last == cfg.t0


def test_step_budget_guard():
    cfg = make_cfg()
    with pytest.raises(StepSizeError, match=r"at t = .*, h = "):
        integrate(cfg, IntegratorSettings(max_steps=10))


def test_lambda_floor_guard_survives_optimize():
    # lambda dips below its floor strictly between two of the 512 points that
    # SystemConfig.validate samples, so only the per-call guard can catch it;
    # under python -O an assert would be stripped and the run would finish
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from proxdyn import Schedule, SystemConfig, ValidationError, abs_plus_quad
        from proxdyn.dynamics import IntegratorSettings, integrate

        grid = np.geomspace(1.0, 2.0, 512)
        lo, hi = grid[255], grid[256]
        lo, hi = lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)

        def lam(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > lo) & (t < hi), 1e-9, 1.0)

        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        cfg = SystemConfig(
            objective=abs_plus_quad(),
            schedule=Schedule(t0=1.0, b=one, b_dot=zero, lam=lam, lam_dot=zero,
                              eps=zero, eps_dot=zero),
            alpha=3.0, beta=0.0, t0=1.0, x0=10.0, xdot0=0.0, horizon=2.0)
        cfg.validate()
        try:
            integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=2e-4))
        except ValidationError as exc:
            print(f"optimize={sys.flags.optimize} raised: {exc}")
        else:
            print(f"optimize={sys.flags.optimize} finished")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("optimize=1 raised: lambda(t) = 1e-09 fell below"), res.stdout


def test_integrator_settings_validation():
    good = IntegratorSettings()
    good.validate()
    for bad in (
        IntegratorSettings(method="euler"),
        IntegratorSettings(rtol=0.0),
        IntegratorSettings(atol=-1.0),
        IntegratorSettings(fixed_step=0.0),
        IntegratorSettings(sample_stride=0),
        IntegratorSettings(max_steps=0),
        IntegratorSettings(initial_step=-1.0),
    ):
        with pytest.raises(ValidationError):
            bad.validate()


# ------------------------------------------------------- second-order residual


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_residual_shrinks_at_second_order(beta):
    res = {}
    for h in (0.01, 0.005):
        cfg = make_cfg(objective=scaled_shifted_quadratic(), beta=beta, horizon=11.4)
        traj = integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=h))
        res[h] = residual_second_order(traj, cfg)
    order = math.log2(res[0.01] / res[0.005])
    assert order >= 1.8, f"observed order {order:.3f} from residuals {res}"


def test_residual_zero_on_stationary_trajectory():
    cfg = make_cfg(x0=0.0, xdot0=0.0)
    traj = integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=0.1))
    assert residual_second_order(traj, cfg) == 0.0


def test_residual_requires_uniform_dense_samples():
    cfg = make_cfg(horizon=14.0)
    short = integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=6.3,
                                              sample_stride=1))
    with pytest.raises(InsufficientDataError):
        residual_second_order(short, cfg)
    adaptive = integrate(cfg, IntegratorSettings())
    with pytest.raises(InsufficientDataError):
        residual_second_order(adaptive, cfg)
