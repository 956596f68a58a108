"""Reformulation right-hand sides, integrators and the residual validator."""

import dataclasses
import math
import os
import pickle
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
    box_indicator,
    l1_norm,
    moreau_value,
    polynomial_schedule,
    scaled_shifted_quadratic,
)
from proxdyn.dynamics import (
    IntegratorSettings,
    _check_state,
    initial_aux,
    integrate,
    residual_second_order,
    rhs_beta_positive,
    rhs_beta_zero,
)
from proxdyn.runconfig import build_system, config_from_flat, preset_runs


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


@pytest.mark.parametrize("preset, label", [
    ("fig1", "n2"),  # beta = 0, b = t**2
    ("fig5", "tikhonov"),  # beta > 0, b = t**0.7, bounded lambda
])
def test_public_rhs_matches_the_stepper_bit_for_bit(preset, label):
    (flat,) = [f for f in preset_runs(preset) if f["label"] == label]
    cfg, settings = build_system(config_from_flat(flat))
    rhs = rhs_beta_zero if cfg.beta == 0.0 else rhs_beta_positive
    xd, _ = rhs(cfg, cfg.t0, cfg.x0, initial_aux(cfg))
    traj = integrate(cfg, settings)
    assert xd.tobytes() == traj.xdots[0].tobytes()
    # every later sample too but the last, whose step may land on T instead
    # of on t + h, where its stage ran
    for j in range(1, len(traj) - 1, 97):
        xd, _ = rhs(cfg, traj.ts[j], traj.xs[j], traj.auxs[j])
        assert xd.tobytes() == traj.xdots[j].tobytes(), traj.ts[j]


def test_schedule_overflow_is_a_divergence():
    # b = 1e-300 t**400: t**400 overflows past t = 5.9 while b is still 1e8
    cfg = make_cfg(beta=0.0, horizon=10.0)
    cfg.schedule = polynomial_schedule(PolyParams(1e-300, 400.0, 1.0, 3.0), cfg.t0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite stage"):
        integrate(cfg)


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


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
@pytest.mark.parametrize("stride", [3, 7])
def test_sample_stride_keeps_every_stride_th_step_and_the_end(method, stride):
    # 240 fixed steps: the endpoint is a stride-3 sample, not a stride-7 one
    cfg = make_cfg(horizon=13.4)
    full = integrate(cfg, IntegratorSettings(method=method, fixed_step=0.05))
    part = integrate(cfg, IntegratorSettings(method=method, fixed_step=0.05,
                                             sample_stride=stride))
    idx = np.unique(np.r_[np.arange(0, len(full), stride), len(full) - 1])
    for name in ("ts", "xs", "auxs", "xdots"):
        want, got = getattr(full, name)[idx], getattr(part, name)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
    assert part.stats == full.stats


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


VECTOR_OBJECTIVES = {
    "l1_norm/3": (l1_norm(dim=3), [1.0, -2.0, 0.5]),
    # 16 squares in the error norm: past numpy's pairwise-sum threshold
    "l1_norm/8": (l1_norm(dim=8), [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]),
    "box_indicator/2": (box_indicator(-1.0, 1.0, dim=2), [0.5, -3.0]),
    "scaled_shifted_quadratic/2": (scaled_shifted_quadratic(2.0, [1.0, -0.5]), [3.0, 2.0]),
}


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
@pytest.mark.parametrize("name", list(VECTOR_OBJECTIVES))
def test_scalar_prox_path_matches_array_prox_path(name, method):
    # the presets are all one-dimensional; here m > 1, and the swapped prox,
    # which carries no scalar form, runs as one numpy lane against m float lanes
    obj, x0 = VECTOR_OBJECTIVES[name]
    swapped = dataclasses.replace(obj, prox=lambda lam, x: obj.prox(lam, x))
    assert hasattr(obj.prox, "coordinate_prox")
    assert not hasattr(swapped.prox, "coordinate_prox")
    settings = IntegratorSettings(method=method, fixed_step=0.01)
    runs = [integrate(make_cfg(objective=o, horizon=6.0, x0=x0, xdot0=[0.0] * len(x0)),
                      settings) for o in (obj, swapped)]
    for field in ("ts", "xs", "auxs", "xdots"):
        a, b = (getattr(run, field) for run in runs)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), field
    assert runs[0].stats == runs[1].stats
    assert runs[0].xs.shape == (len(runs[0]), len(x0))


@pytest.mark.parametrize("u", [[1.0, math.nan], [math.nan, 1.0]])
def test_state_guard_fails_on_nan_anywhere(u):
    with pytest.raises(DivergenceError) as exc:
        _check_state(IntegratorSettings(), 2.0, 0.5, u)
    assert (exc.value.t_last, exc.value.h) == (2.0, 0.5)


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
    assert 0.0 < exc.value.h
    assert f"at t = {exc.value.t_last:.6g}, h = {exc.value.h:.3g}" in str(exc.value)


def test_divergence_guard_bounds_the_auxiliary_state():
    # y = xdot starts at 50 while x stays below 5 up to the horizon
    cfg = make_cfg(objective=l1_norm(), beta=0.0, t0=1.0, horizon=1.1, x0=0.0, xdot0=50.0)
    free = integrate(cfg)
    assert float(np.max(np.abs(free.xs))) < 20.0 < float(np.max(np.abs(free.auxs)))
    with pytest.raises(DivergenceError) as exc:
        integrate(cfg, IntegratorSettings(divergence_threshold=20.0))
    assert exc.value.t_last == cfg.t0
    # the first step, min((T - t0) / 100, 1), is the one that left
    assert exc.value.h == (cfg.horizon - cfg.t0) / 100.0


def test_step_budget_guard():
    cfg = make_cfg()
    with pytest.raises(StepSizeError, match=r"at t = .*, h = ") as exc:
        integrate(cfg, IntegratorSettings(max_steps=10))
    assert cfg.t0 < exc.value.t_last < cfg.horizon
    assert f"at t = {exc.value.t_last:.6g}, h = {exc.value.h:.3g}" in str(exc.value)


def test_fixed_step_budget_guard():
    # 12,600 steps of 1e-3 against a budget of 10: refused before the first step
    cfg = make_cfg(horizon=14.0)
    with pytest.raises(StepSizeError, match=r"nsteps = .* fixed_step = 0\.001") as exc:
        integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=1e-3, max_steps=10))
    assert (exc.value.t_last, exc.value.h) == (cfg.t0, 1e-3)
    # a step count past any integer still raises, and as StepSizeError
    with pytest.raises(StepSizeError, match="nsteps = inf"):
        integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=5e-324))


def test_step_size_collapse_reports_its_location():
    # a cap below the minimum step: the first step, of 1e-14, is accepted
    cfg = make_cfg(horizon=14.0)
    with pytest.raises(StepSizeError, match="collapsed") as exc:
        integrate(cfg, IntegratorSettings(max_step=1e-14))
    assert (exc.value.t_last, exc.value.h) == (cfg.t0 + 1e-14, 1e-14)


@pytest.mark.parametrize("cls", [DivergenceError, StepSizeError])
def test_integration_failures_pickle_with_their_location(cls):
    exc = pickle.loads(pickle.dumps(cls("message", 2.5, 0.125)))
    assert (type(exc), str(exc), exc.t_last, exc.h) == (cls, "message", 2.5, 0.125)


def test_lambda_floor_guard_survives_optimize():
    # lambda(t0) = 1e-9 lies below its floor; integrate validates the config
    # first, and under python -O an assert there would be stripped and the
    # run would finish
    script = textwrap.dedent("""
        import sys
        from proxdyn import (LambdaForm, PolyParams, SystemConfig, ValidationError,
                             abs_plus_quad, polynomial_schedule)
        from proxdyn.dynamics import IntegratorSettings, integrate

        params = PolyParams(lam=LambdaForm("constant", 1e-9))
        cfg = SystemConfig(
            objective=abs_plus_quad(), schedule=polynomial_schedule(params, 1.0),
            alpha=3.0, beta=0.0, t0=1.0, x0=10.0, xdot0=0.0, horizon=2.0)
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
        IntegratorSettings(divergence_threshold=math.nan),
        IntegratorSettings(divergence_threshold=0.0),
        IntegratorSettings(divergence_threshold=-1.0),
    ):
        with pytest.raises(ValidationError):
            bad.validate()
    IntegratorSettings(max_step=math.inf, divergence_threshold=math.inf).validate()
    # a bad threshold is a validation error, not a divergence on the first step
    with pytest.raises(ValidationError, match="divergence_threshold"):
        integrate(make_cfg(horizon=14.0), IntegratorSettings(divergence_threshold=math.nan))


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
