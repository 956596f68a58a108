"""Reformulation right-hand sides, integrators and the residual validator."""

import dataclasses
import linecache
import math
import os
import pickle
import subprocess
import sys
import textwrap
import traceback
import tracemalloc

import numpy as np
import pytest

import proxdyn
from proxdyn import dynamics
from proxdyn import (
    DivergenceError,
    InsufficientDataError,
    LambdaForm,
    ParameterDomainError,
    PolyParams,
    StepSizeError,
    SystemConfig,
    ValidationError,
    abs_plus_quad,
    box_indicator,
    check_alpha3_conditions,
    check_fast_rate_conditions,
    check_strong_conv_conditions,
    dist_to_interval,
    l1_norm,
    moreau_value,
    scaled_shifted_quadratic,
)
from proxdyn.diagnostics import compute_observables, fit_rate_slope
from proxdyn.dynamics import (
    IntegratorSettings,
    initial_aux,
    integrate,
    residual_second_order,
    rhs_beta_positive,
    rhs_beta_zero,
)
from proxdyn.runconfig import build_run, build_system, config_from_flat, preset_runs


def make_cfg(objective=None, alpha=10.0, beta=1.0, t0=1.4, horizon=140.0,
             x0=10.0, xdot0=0.0, n=0.0, d=3.0, eps_coeff=1.0):
    return SystemConfig(
        objective=objective if objective is not None else abs_plus_quad(),
        schedule=PolyParams(1.0, n, eps_coeff, d),
        alpha=alpha, beta=beta, t0=t0, x0=x0, xdot0=xdot0, horizon=horizon,
    )


# ------------------------------------------------------------- right-hand sides


def test_rhs_beta_positive_hand_value():
    # the envelope gradient of |x| + x**2 / 2 at x = 2, lambda = 1 is g = 1.5;
    # xdot = w - beta * g and wdot = -(alpha / t) * xdot - b * g - eps * x
    cfg = make_cfg()
    xd, wd = rhs_beta_positive(cfg, 2.0, [2.0], [0.0])
    assert xd[0] == pytest.approx(-1.5)
    assert wd[0] == pytest.approx(5.75)


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


@pytest.mark.parametrize("kernel", ["compiled", "python"])
@pytest.mark.parametrize("t", [-2.0, 0.0, math.nan, math.inf, "1", 10 ** 400],
                         ids=["-2", "0", "nan", "inf", "str", "10**400"])
def test_rhs_takes_t_as_the_configs_take_t0(t, kernel, request):
    # a real in (0, inf), or ParameterDomainError: at t = -2 the C kernel's
    # pow gave NaN where Python's ** gave a complex number, and t = 0 divided
    # by zero in -(alpha / t)
    if kernel == "python":
        request.getfixturevalue("python_kernels")
    for rhs, beta in ((rhs_beta_zero, 0.0), (rhs_beta_positive, 1.0)):
        cfg = make_cfg(beta=beta, n=0.5)
        assert np.isfinite(rhs(cfg, 2.0, [1.0], [0.0])).all()
        with pytest.raises(ParameterDomainError, match="^t "):
            rhs(cfg, t, [1.0], [0.0])


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


def preset_system(run: str):
    name, label = run.split("/")
    (flat,) = [f for f in preset_runs(name) if f["label"] == label]
    return build_system(config_from_flat(flat))


@pytest.mark.parametrize("preset, label", [
    ("fig1", "n2"),  # beta = 0, b = t**2
    ("fig5", "tikhonov"),  # beta > 0, b = t**0.7, bounded lambda
])
def test_public_rhs_matches_the_stepper_bit_for_bit(preset, label):
    cfg, settings = preset_system(f"{preset}/{label}")
    rhs = rhs_beta_zero if cfg.beta == 0.0 else rhs_beta_positive
    xd, _ = rhs(cfg, cfg.t0, cfg.x0, initial_aux(cfg))
    traj = integrate(cfg, settings)
    assert xd.tobytes() == traj.xdots[0].tobytes()
    # every later sample too but the last, whose step may land on T instead
    # of on t + h, where its stage ran
    for j in range(1, len(traj) - 1, 97):
        xd, _ = rhs(cfg, traj.ts[j], traj.xs[j], traj.auxs[j])
        assert xd.tobytes() == traj.xdots[j].tobytes(), traj.ts[j]


BETA_POSITIVE_RUNS = [f"{name}/{flat['label']}" for name in ("fig4", "fig5", "fig6")
                      for flat in preset_runs(name)]


@pytest.mark.parametrize("run", BETA_POSITIVE_RUNS)
def test_beta_positive_preset_ends_near_its_tight_tolerance_run(run):
    # (x, xdot) at the horizon, relative to the run at rtol 1e-12, atol 1e-14
    cfg, settings = preset_system(run)
    assert cfg.beta > 0.0
    got, want = (integrate(cfg, s) for s in
                 (settings, dataclasses.replace(settings, rtol=1e-12, atol=1e-14)))
    end = [np.concatenate([traj.xs[-1], traj.xdots[-1]]) for traj in (got, want)]
    err = np.linalg.norm(end[0] - end[1]) / max(float(np.linalg.norm(end[1])), 1e-3)
    assert err <= 5e-7


@pytest.mark.parametrize("run", BETA_POSITIVE_RUNS)
def test_beta_positive_aux_is_velocity_plus_beta_grad(run):
    # w = xdot + beta * grad_e(t, x) on every sample, to a few ulps
    cfg, settings = preset_system(run)
    traj = integrate(cfg, settings)
    lam = np.array([cfg.schedule.lam.scalar(t) for t in traj.ts.tolist()])[:, None]
    bg = cfg.beta * (traj.xs - cfg.objective.prox(lam, traj.xs)) / lam
    ulp = np.spacing(np.maximum(np.abs(traj.auxs), np.abs(bg)))
    assert np.all(np.abs(traj.auxs - (traj.xdots + bg)) <= 4.0 * ulp)


# b = B t**400: t**400 overflows past t = 5.897, where b jumps to inf.  With
# B = 1e-300, b is still 1e8 there; the fixed step of rk4_fixed would go
# unstable before that, so its runs take the smallest subnormal B instead.
OVERFLOW_CASES = {
    "dp5/beta=0": ("rk45_adaptive", 0.0, LambdaForm(), 1e-300, "non-finite stage"),
    "dp5/beta>0": ("rk45_adaptive", 1.0, LambdaForm(), 1e-300, "non-finite stage"),
    "dp5/beta>0/power": ("rk45_adaptive", 1.0, LambdaForm("power", 0.5), 1e-300,
                         "non-finite stage"),
    "rk4/beta=0": ("rk4_fixed", 0.0, LambdaForm(), 5e-324, "left the trust region"),
    "rk4/beta>0/bounded": ("rk4_fixed", 1.0, LambdaForm("bounded", 1.0), 5e-324,
                           "left the trust region"),
}


@pytest.mark.parametrize("case", list(OVERFLOW_CASES))
def test_schedule_overflow_is_a_divergence(case):
    # Python's ** raises OverflowError there; the step's stage constants are
    # then recomputed through the scalar forms, whose inf makes a stage NaN
    method, beta, lam, b_coeff, message = OVERFLOW_CASES[case]
    cfg = dataclasses.replace(make_cfg(beta=beta, horizon=10.0),
                              schedule=PolyParams(b_coeff, 400.0, 1.0, 3.0, lam))
    settings = IntegratorSettings(method=method, fixed_step=1e-3)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=message) as exc:
        integrate(cfg, settings)
    # the failing step is the one whose stages cross the overflow
    t_over = math.exp(math.log(sys.float_info.max) / 400.0)
    assert exc.value.t_last < t_over <= exc.value.t_last + exc.value.h


def test_kernels_compile_once_per_variant_and_only_when_run():
    dynamics._kernel.cache_clear()
    runs = {f["label"]: config_from_flat(f) for f in preset_runs("fig3")}
    for rc in runs.values():
        cfg, _ = build_run(rc)
        cfg.validate()
        for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                      check_alpha3_conditions):
            check(cfg)
    assert dynamics._kernel.cache_info().currsize == 0
    # fig3/d2_5 and fig3/d3 differ only in d, a number the kernel takes
    for label in ("d2_5", "d3"):
        integrate(*build_system(runs[label]))
    assert dynamics._kernel.cache_info().currsize == 1
    cfg, _ = build_system(runs["d3"])
    aux = initial_aux(cfg)
    for _ in range(1000):
        rhs_beta_zero(cfg, 2.0, cfg.x0, aux)
    # the public rhs runs the variant's own DP5 kernel: nothing new compiles
    assert dynamics._kernel.cache_info().currsize == 1
    assert dynamics._kernel.cache_info().misses == 1


def test_constant_power_and_bounded_lambda_share_one_kernel():
    # every form is lo + lc * t ** le, whose numbers the kernel takes; a
    # constant's term is 0 * t ** 0.  beta is one more number: a beta = 0 run
    # loads the kernel of the beta > 0 runs
    dynamics._kernel.cache_clear()
    for beta, lam in ((1.0, LambdaForm("constant", 0.5)), (1.0, LambdaForm("power", 0.5)),
                      (1.0, LambdaForm("bounded", 1.0)), (0.0, LambdaForm("power", 0.5))):
        cfg = dataclasses.replace(make_cfg(beta=beta, horizon=4.0), schedule=PolyParams(lam=lam))
        integrate(cfg)
    assert dynamics._kernel.cache_info().currsize == 1
    assert dynamics._kernel.cache_info().misses == 1


def test_kernel_source_shows_in_tracebacks():
    cfg = dataclasses.replace(make_cfg(objective=nan_outside_five(abs_plus_quad()), beta=1.0,
                                       x0=4.0, xdot0=10.0, horizon=14.0),
                              schedule=PolyParams(lam=LambdaForm("bounded", 1.0)))
    with pytest.raises(DivergenceError) as exc:
        integrate(cfg)
    frame = traceback.extract_tb(exc.value.__traceback__)[-1]
    assert frame.filename == "<proxdyn dp5 numpy>"
    src = dynamics._source("rk45_adaptive", dynamics._Variant())
    assert frame.line and frame.line == src.splitlines()[frame.lineno - 1].strip()


# ------------------------------------------------------------------ integrate


def _spherical_bessel_34(z):
    """j3, y3, j4, y4 at z, the elementary spherical Bessel functions (DLMF
    10.49): j_n = (P sin z - Q cos z) and y_n = -(P cos z + Q sin z)."""
    s, c = np.sin(z), np.cos(z)
    p3, q3 = 15.0 / z ** 4 - 6.0 / z ** 2, 15.0 / z ** 3 - 1.0 / z
    p4, q4 = 105.0 / z ** 5 - 45.0 / z ** 3 + 1.0 / z, 105.0 / z ** 4 - 10.0 / z ** 2
    return p3 * s - q3 * c, -(p3 * c + q3 * s), p4 * s - q4 * c, -(p4 * c + q4 * s)


def _linear_flow(horizon):
    """The fig1 base with f = x**2 / 2, constant lambda = 1 and eps = 0, up
    to horizon, and its exact solution x(t) on an array of times.

    The flow is the linear x'' + (10/t) x' + k**2 x = 0, k**2 = B c / (1 +
    c lambda) = 1/2, solved by x = t**-4 (A j4(kt) + C y4(kt)); A and C fit
    x0 = 10, xdot0 = 0 at t0 = 1.4, with f_4' = f_3 - (5/z) f_4 for f = j, y
    (DLMF 10.51.2).  These floats are within 1.2e-10 of A and C to 40 digits.
    """
    cfg = SystemConfig(objective=scaled_shifted_quadratic(1.0, 0.0),
                       schedule=PolyParams(1.0, 0.0, 0.0, 3.0, LambdaForm("constant", 1.0)),
                       alpha=10.0, beta=0.0, t0=1.4, x0=10.0, xdot0=0.0, horizon=horizon)
    k, t0 = math.sqrt(0.5), 1.4
    z0 = k * t0
    j3, y3, j4, y4 = _spherical_bessel_34(z0)
    dj4, dy4 = j3 - 5.0 / z0 * j4, y3 - 5.0 / z0 * y4
    # t**-4 (A j4 + C y4) = x0 and its derivative -4 x0 / t0 + k t0**-4 (A dj4 + C dy4) = 0
    u = 10.0 * t0 ** 4
    v = 4.0 * u / z0
    det = j4 * dy4 - dj4 * y4
    a, c = (u * dy4 - v * y4) / det, (v * j4 - u * dj4) / det

    def exact(ts):
        j4s, y4s = _spherical_bessel_34(k * ts)[2:]
        return ts ** -4 * (a * j4s + c * y4s)
    return cfg, exact


def _closed_form_error(settings):
    """The largest |x - exact| over the samples of the linear flow up to T = 14."""
    cfg, exact = _linear_flow(14.0)
    traj = integrate(cfg, settings)
    return float(np.abs(traj.xs[:, 0] - exact(traj.ts)).max())


def test_dp5_matches_the_closed_form_linear_flow():
    # the default tolerances leave a global error of 4.3e-9, and x(T) =
    # -1.0403e-6 against -1.0409e-6
    cfg, exact = _linear_flow(140.0)
    traj = integrate(cfg)
    want = exact(traj.ts)
    assert np.abs(traj.xs[:, 0] - want).max() < 1e-8
    assert traj.xs[-1, 0] == pytest.approx(want[-1], rel=1e-3)


def test_fitted_moreau_gap_slope_matches_the_closed_form():
    # the gap x**2 / 4 of f = x**2 / 2 at lambda = 1 decays as t**-10 times
    # an oscillation; over the last decade [14.1, 140] the fit on the run's
    # samples gives -10.15057 and on the exact x at the same times -10.15334,
    # apart by 2.77e-3.  Both bounds hold that gap within a factor of two: a
    # wrong right-hand side moves the slope by more, and a gap of 0 would
    # mean that the run's gap was not the integrated one
    cfg, exact = _linear_flow(140.0)
    traj = integrate(cfg)
    exact_gap = [moreau_value(cfg.objective, 1.0, [x]) for x in exact(traj.ts)]
    fits = [fit_rate_slope(traj.ts, gap) for gap in (compute_observables(traj).moreau_gap,
                                                      np.array(exact_gap))]
    assert fits[0].window == fits[1].window and fits[0].npoints == fits[1].npoints == 338
    assert fits[1].slope == pytest.approx(-10.1533, abs=1e-4)
    assert 1.4e-3 < fits[0].slope - fits[1].slope < 5.5e-3


def test_rk4_global_error_on_the_closed_form_falls_at_fourth_order():
    # h = 0.04, 0.02 and 0.01 up to T = 14 give 2.27e-6, 1.28e-7 and 7.58e-9:
    # observed orders 4.15 and 4.08
    errs = [_closed_form_error(IntegratorSettings(method="rk4_fixed", fixed_step=h))
            for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
    assert all(3.8 < order < 4.4 for order in orders), orders
    assert errs[-1] < 1.5e-8


def test_dp5_global_error_on_the_closed_form_scales_with_rtol():
    # rtol 1e-6 and 1e-8 (atol = rtol / 100) up to T = 14 give 4.46e-7 and
    # 4.30e-9: each below its rtol, and a hundredth of the tolerance gives
    # about a hundredth of the error (ratio 104)
    errs = [_closed_form_error(IntegratorSettings(rtol=rtol, atol=rtol / 100.0))
            for rtol in (1e-6, 1e-8)]
    assert errs[0] < 1e-6 and errs[1] < 1e-8
    assert 70.0 < errs[0] / errs[1] < 150.0, errs


def test_w_kernel_at_small_beta_tracks_the_velocity_kernel():
    # fig1/n0 at beta = 1e-6, 1e-9 and 0 runs one kernel text, w = xdot +
    # beta grad e: the same steps, and x(T) apart by a relative 7.42e-5 and
    # 7.43e-8, first order in beta (ratio 999).  A term that the kernel
    # scales by beta (its Hessian damping halved, or its viscous damping on
    # w, not xdot) moves the first-order gap, to 3.7e-8 and 6.0e-8
    cfg, settings = preset_system("fig1/n0")
    assert cfg.beta == 0.0
    base = integrate(cfg, settings)
    gaps = []
    for beta in (1e-6, 1e-9):
        traj = integrate(dataclasses.replace(cfg, beta=beta), settings)
        assert traj.stats == base.stats
        gaps.append(abs(traj.xs[-1, 0] - base.xs[-1, 0]) / abs(base.xs[-1, 0]))
    assert gaps[1] == pytest.approx(7.43e-8, rel=0.05)
    assert gaps[0] / gaps[1] == pytest.approx(1000.0, rel=0.05)


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
    # the one coordinate of a 1-D run lives in locals, not in lists
    "abs_plus_quad/1": (abs_plus_quad(), [3.0]),
    "l1_norm/3": (l1_norm(dim=3), [1.0, -2.0, 0.5]),
    # 16 squares in the error norm: past numpy's pairwise-sum threshold
    "l1_norm/8": (l1_norm(dim=8), [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]),
    "box_indicator/2": (box_indicator(-1.0, 1.0, dim=2), [0.5, -3.0]),
    "scaled_shifted_quadratic/2": (scaled_shifted_quadratic(2.0, [1.0, -0.5]), [3.0, 2.0]),
}


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
@pytest.mark.parametrize("name", list(VECTOR_OBJECTIVES))
def test_scalar_prox_path_matches_array_prox_path(name, method):
    # the swapped prox, which carries no scalar form, runs as one numpy lane
    # against m float lanes, one when m = 1
    obj, x0 = VECTOR_OBJECTIVES[name]
    swapped = dataclasses.replace(obj, prox=lambda lam, x: obj.prox(lam, x))
    assert hasattr(obj.prox, "coordinate_source")
    assert not hasattr(swapped.prox, "coordinate_source")
    settings = IntegratorSettings(method=method, fixed_step=0.01)
    runs = [integrate(make_cfg(objective=o, horizon=6.0, x0=x0, xdot0=[0.0] * len(x0)),
                      settings) for o in (obj, swapped)]
    for field in ("ts", "xs", "auxs", "xdots"):
        a, b = (getattr(run, field) for run in runs)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), field
    assert runs[0].stats == runs[1].stats
    assert runs[0].xs.shape == (len(runs[0]), len(x0))


@pytest.mark.parametrize("method", ["rk45_adaptive", "rk4_fixed"])
def test_swapped_prox_runs_instead_of_the_inlined_builtin(method):
    # same name, a different array prox: the kernel calls it on the numpy lane
    l1 = l1_norm()
    swapped = dataclasses.replace(abs_plus_quad(), prox=lambda lam, x: l1.prox(lam, x))
    cfg = make_cfg(objective=swapped, horizon=14.0, x0=3.0)
    assert dynamics._variant_kernel(method, cfg)[1] == "numpy"
    settings = IntegratorSettings(method=method, fixed_step=0.01)
    got, want, builtin = (integrate(c, settings) for c in (
        cfg, make_cfg(objective=l1, horizon=14.0, x0=3.0), make_cfg(horizon=14.0, x0=3.0)))
    for field in ("ts", "xs", "auxs", "xdots"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), field
    assert not np.array_equal(got.xs[-1], builtin.xs[-1])


@pytest.mark.parametrize("lane", ["float", "numpy"])
def test_samples_cost_little_more_than_the_arrays_returned(lane, python_kernels):
    # each sample goes into typed buffers of doubles that the returned arrays
    # view, so a run's traced peak stays below 4x the bytes it returns; lists
    # of Python floats, converted and split after the run, took 5.6x.  The
    # Python kernels: tracemalloc does not see the compiled kernel's C
    # buffers, whose bound tests/test_native.py checks
    obj = l1_norm(dim=8)
    if lane == "numpy":
        obj = dataclasses.replace(obj, prox=lambda lam, x, prox=obj.prox: prox(lam, x))
    cfg = make_cfg(objective=obj, horizon=14.0, x0=np.linspace(-3.0, 3.0, 8), xdot0=[0.0] * 8)
    assert dynamics._variant_kernel("rk45_adaptive", cfg)[1] == lane
    integrate(cfg)  # the kernel compiles outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        traj = integrate(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (traj.ts, traj.xs, traj.auxs, traj.xdots))
    assert len(traj) > 100
    assert peak < 4 * returned, (peak, returned)


@pytest.mark.parametrize("obj", [abs_plus_quad(), dist_to_interval(), l1_norm(dim=3),
                                 scaled_shifted_quadratic(2.0, [1.0, -0.5]),
                                 box_indicator(-1.0, 1.0, dim=2)], ids=lambda obj: obj.name)
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_builtin_kernels_inline_the_prox(obj, beta, python_kernels):
    # the Python kernels; the compiled DP5 kernels' C source inlines the
    # prox too, and tests/test_native.py compares the two bit for bit
    cfg = make_cfg(objective=obj, beta=beta, x0=[1.0] * obj.dim, xdot0=[0.0] * obj.dim)
    for kind in ("rk45_adaptive", "rk4_fixed"):
        kernel, lane = dynamics._variant_kernel(kind, cfg)
        assert lane == "float"
        src = "".join(linecache.getlines(kernel.__code__.co_filename))
        assert src.startswith("def ") and "prox(" not in src


@pytest.mark.parametrize("u", [[1.0, math.nan], [math.nan, 1.0]])
def test_state_guard_fails_on_nan_anywhere(u):
    # the prox puts NaN in the coordinate of a two-dimensional state where u
    # has it; RK4 has no error norm, so the guard is the first to see it,
    # while DP5's error norm would catch the NaN stage first
    l1 = l1_norm(dim=2)
    cfg = make_cfg(objective=dataclasses.replace(l1, prox=lambda lam, x: l1.prox(lam, x) * u),
                   beta=0.0, t0=1.5, horizon=14.0, x0=[1.0, 1.0], xdot0=[0.0, 0.0])
    with pytest.raises(DivergenceError, match="left the trust region") as exc:
        integrate(cfg, IntegratorSettings(method="rk4_fixed", fixed_step=0.5))
    assert (exc.value.t_last, exc.value.h) == (1.5, 0.5)


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


def test_step_that_leaves_t_where_it_was_is_refused():
    # the first step, h = 1, is half the spacing of the doubles at t0 = 1.2e16,
    # so t + h rounds back to t: refused, not sampled as a second row at t0
    t0 = 1.1719142372802612e+16
    flat = {**preset_runs("fig1")[0], "system.beta": "1", "schedule.lambda_form": "power",
            "system.t0": repr(t0), "system.horizon": repr(t0 * (1.0 + 1e-9))}
    cfg, settings = build_system(config_from_flat(flat))
    with pytest.raises(StepSizeError, match=r"step size 1 does not advance t = 1\.17191e\+16") \
            as exc:
        integrate(cfg, settings)
    assert (exc.value.t_last, exc.value.h) == (t0, 1.0)


def test_fixed_step_that_leaves_t_where_it_was_is_refused():
    # 24 RK4 steps of 0.5 from t0 = 1.2e16, where the doubles are 2 apart:
    # the first rounds back to t0; RK4 took them all and wrote 25 samples,
    # 18 of them zero-length intervals, with 25 different states
    t0 = 1.1719142372802612e+16
    flat = {**preset_runs("fig1")[0], "system.t0": repr(t0),
            "system.horizon": "1.1719142372802624e+16",
            "integrator.method": "rk4_fixed", "integrator.fixed_step": "0.5"}
    cfg, settings = build_system(config_from_flat(flat))
    with pytest.raises(StepSizeError, match=r"step size 0\.5 does not advance t = 1\.17191e\+16") \
            as exc:
        integrate(cfg, settings)
    assert (exc.value.t_last, exc.value.h) == (t0, 0.5)


@pytest.mark.parametrize("cls", [DivergenceError, StepSizeError])
def test_integration_failures_pickle_with_their_location(cls):
    exc = pickle.loads(pickle.dumps(cls("message", 2.5, 0.125)))
    assert (type(exc), str(exc), exc.t_last, exc.h) == (cls, "message", 2.5, 0.125)


def test_lambda_floor_guard_survives_optimize():
    # lambda(t0) = 1e-9 lies below its floor; the config validates itself as
    # it is built, and under python -O an assert there would be stripped and
    # the run would finish
    script = textwrap.dedent("""
        import sys
        from proxdyn import (LambdaForm, PolyParams, SystemConfig, ValidationError,
                             abs_plus_quad)
        from proxdyn.dynamics import IntegratorSettings, integrate

        params = PolyParams(lam=LambdaForm("constant", 1e-9))
        try:
            cfg = SystemConfig(
                objective=abs_plus_quad(), schedule=params,
                alpha=3.0, beta=0.0, t0=1.0, x0=10.0, xdot0=0.0, horizon=2.0)
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
    # settings check themselves as they are built
    IntegratorSettings().validate()
    for bad in (
        dict(method="euler"),
        dict(rtol=0.0),
        dict(atol=-1.0),
        dict(fixed_step=0.0),
        dict(sample_stride=0),
        dict(max_steps=0),
        dict(divergence_threshold=math.nan),
        dict(divergence_threshold=0.0),
        dict(divergence_threshold=-1.0),
    ):
        with pytest.raises(ValidationError):
            IntegratorSettings(**bad)
    IntegratorSettings(max_step=math.inf, divergence_threshold=math.inf)
    IntegratorSettings(rtol=np.float64(1e-6), max_step=1, sample_stride=np.int64(3),
                       max_steps=True)


@pytest.mark.parametrize("bad", [
    dict(rtol="1e-8"), dict(atol=None), dict(max_step=10 ** 400), dict(fixed_step=[1e-3]),
    dict(divergence_threshold="inf"), dict(sample_stride=2.5), dict(sample_stride=3.0),
    dict(max_steps="10"), dict(max_steps=np.float64(10.0)),
], ids=lambda bad: f"{next(iter(bad))}={next(iter(bad.values()))!r}"[:40])
def test_integrator_settings_reject_what_is_not_a_number(bad):
    # a validation error, exit 1, not a TypeError or an OverflowError
    with pytest.raises(ValidationError, match=next(iter(bad))):
        IntegratorSettings(**bad)
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
