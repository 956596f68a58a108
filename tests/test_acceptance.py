"""Acceptance gate: one criterion per test, at the stated tolerances.

Each test prints exactly one pass/fail line, with capture suspended so
the line survives piping the pytest run to a file.
"""

import math
import time

import numpy as np
import pytest

from proxdyn.diagnostics import check_energy_descent, compute_observables, fit_rate_slope
from proxdyn.dynamics import IntegratorSettings, integrate, residual_second_order
from proxdyn.objectives import scaled_shifted_quadratic
from proxdyn.runconfig import build_system, config_from_flat, preset_runs
from proxdyn.schedules import (ConditionQuery, LambdaForm, PolyParams,
                               check_fast_rate_conditions, check_strong_conv_conditions,
                               polynomial_schedule, suggest_t0, suggest_t0_strong)
from proxdyn.selftest import run_prox_selftest


def report(capsys, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} ({name}): {status} - {detail}", flush=True)
    return ok


def run_flat(flat, **overrides):
    flat = dict(flat)
    flat.update(overrides)
    cfg, settings = build_system(config_from_flat(flat))
    start = time.perf_counter()
    traj = integrate(cfg, settings)
    return traj, time.perf_counter() - start


# ----------------------------------------------------------- shared run caches


@pytest.fixture(scope="module")
def fast_runs():
    """(n, l) -> (trajectory, observables, wall) for the fast-rate configs."""
    out = {}
    fig1 = preset_runs("fig1")
    for i, n in enumerate((0, 1, 2)):
        traj, wall = run_flat(fig1[i])
        out[(n, 0)] = (traj, compute_observables(traj), wall)
    traj, wall = run_flat(fig1[0], **{"schedule.lambda_form": "power",
                                      "schedule.lambda_value": "1"})
    out[(0, 1)] = (traj, compute_observables(traj), wall)
    return out


@pytest.fixture(scope="module")
def smoothing_runs():
    """l -> observables for the short-horizon smoothing comparison."""
    out = {}
    for l, flat in zip((0, 1, 2), preset_runs("fig2")):
        traj, _ = run_flat(flat)
        out[l] = compute_observables(traj)
    return out


@pytest.fixture(scope="module")
def decay_sweep_runs(fast_runs):
    """d -> observables for the regularization-decay comparison."""
    fig3 = preset_runs("fig3")
    out = {2.5: compute_observables(run_flat(fig3[0])[0]),
           3.0: fast_runs[(0, 0)][1],  # identical config, reuse
           3.5: compute_observables(run_flat(fig3[2])[0])}
    return out


@pytest.fixture(scope="module")
def tikhonov_runs():
    """(figure, label) -> (trajectory, observables, wall)."""
    out = {}
    for fig in ("fig4", "fig5"):
        for flat in preset_runs(fig):
            traj, wall = run_flat(flat)
            out[(fig, flat["label"])] = (traj, compute_observables(traj), wall)
    for flat in preset_runs("fig6"):
        if flat["label"] == "d1_5":
            out[("fig6", "d1_5")] = out[("fig5", "tikhonov")]  # same config
            continue
        traj, wall = run_flat(flat)
        out[("fig6", flat["label"])] = (traj, compute_observables(traj), wall)
    return out


# ------------------------------------------------------------------- criteria


def test_criterion_1_prox_suite(capsys):
    start = time.perf_counter()
    results = run_prox_selftest(seed=12345, samples=100)
    elapsed = time.perf_counter() - start
    ok = bool(results) and all(r.passed for r in results) and elapsed < 10.0
    worst = max(results, key=lambda r: r.max_error / r.tolerance)
    detail = (f"{sum(r.passed for r in results)}/{len(results)} properties, "
              f"100 samples each, tightest headroom {worst.name!r} "
              f"{worst.max_error:.2e}/{worst.tolerance:.0e}, {elapsed:.2f} s < 10 s")
    assert report(capsys, 1, "prox calculus suite", ok, detail), detail


def _draw_fast(rng):
    alpha = rng.uniform(3.2, 8.0)
    n = rng.uniform(0.0, 0.9 * (alpha - 3.0))
    beta = rng.uniform(0.0, 2.0)
    params = PolyParams(b_coeff=rng.uniform(0.5, 3.0), n=n,
                        eps_coeff=rng.uniform(0.0, 2.0), d=rng.uniform(2.05, 4.0),
                        lam=LambdaForm("constant", rng.uniform(0.5, 2.0)))
    return params, alpha, beta


def _draw_strong(rng):
    alpha = rng.uniform(3.2, 6.0)
    n = rng.uniform(0.0, 0.9 * (alpha - 3.0) / 3.0)
    beta = rng.uniform(0.0, 1.0)
    params = PolyParams(b_coeff=rng.uniform(1.05, 2.5), n=n,
                        eps_coeff=rng.uniform(0.2, 2.0), d=rng.uniform(1.05, 1.8),
                        lam=LambdaForm("constant", rng.uniform(0.5, 2.0)))
    return params, alpha, beta


def _query(params, alpha, beta, t0):
    return ConditionQuery(alpha, beta, t0, polynomial_schedule(params, t0))


def test_criterion_2_checker_soundness(capsys):
    rng = np.random.default_rng(20260822)
    start = time.perf_counter()

    fast_fail = strong_fail = None
    for _ in range(200):
        params, alpha, beta = _draw_fast(rng)
        t0 = suggest_t0(params, alpha, beta, slack=0.05)
        rep = check_fast_rate_conditions(_query(params, alpha, beta, t0))
        if not rep.all_pass and fast_fail is None:
            fast_fail = (params, alpha, beta, rep.failed())
    for _ in range(200):
        params, alpha, beta = _draw_strong(rng)
        t0 = suggest_t0_strong(params, alpha, beta)
        rep = check_strong_conv_conditions(_query(params, alpha, beta, t0))
        if not rep.all_pass and strong_fail is None:
            strong_fail = (params, alpha, beta, rep.failed())

    unflipped = []
    for k in range(20):
        params, alpha, beta = _draw_fast(rng)
        t0 = suggest_t0(params, alpha, beta, slack=0.05)
        kind = k % 4
        if kind == 0:   # growth exponent at/above the cap
            bad = PolyParams(params.b_coeff, alpha - 3.0 + 0.2, params.eps_coeff,
                             params.d, params.lam)
        elif kind == 1:  # regularization decays too slowly to be integrable
            bad = PolyParams(params.b_coeff, params.n, max(params.eps_coeff, 0.5),
                             1.8, params.lam)
        elif kind == 2:  # damping below the threshold
            bad, alpha = params, 2.9
        else:            # decay window empty at this start time
            bad = PolyParams(params.b_coeff, params.n, 3.0, 2.5, params.lam)
            beta, t0 = 2.0, 1.0
        if check_fast_rate_conditions(_query(bad, alpha, beta, t0)).all_pass:
            unflipped.append(("fast", kind))
    for k in range(20):
        params, alpha, beta = _draw_strong(rng)
        t0 = suggest_t0_strong(params, alpha, beta)
        kind = k % 6
        if kind == 0:   # growth exponent above the strong-regime cap
            bad = PolyParams(params.b_coeff, (alpha - 3.0) / 3.0 * 1.5 + 0.05,
                             params.eps_coeff, params.d, params.lam)
        elif kind == 1:  # regularization too light for a norm floor
            bad = PolyParams(params.b_coeff, params.n, params.eps_coeff, 2.5, params.lam)
        elif kind == 2:  # regularization heavier than the tail ratio allows
            bad = PolyParams(params.b_coeff, params.n, params.eps_coeff, 0.9, params.lam)
        elif kind == 3:  # unbounded smoothing
            bad = PolyParams(params.b_coeff, params.n, params.eps_coeff, params.d,
                             LambdaForm("power", 1.0))
        elif kind == 4:  # weak scaling with positive beta never balances
            bad = PolyParams(0.9, 0.0, params.eps_coeff, params.d, params.lam)
            beta = max(beta, 0.5)
        else:            # below the critical damping value
            bad, alpha = params, 2.9
        if check_strong_conv_conditions(_query(bad, alpha, beta, t0)).all_pass:
            unflipped.append(("strong", kind))

    elapsed = time.perf_counter() - start
    ok = fast_fail is None and strong_fail is None and not unflipped and elapsed < 30.0
    detail = (f"200+200 in-box draws pass, 20+20 violations flip >= 1 verdict, "
              f"{elapsed:.2f} s < 30 s")
    if fast_fail or strong_fail or unflipped:
        detail = (f"fast_fail={fast_fail}, strong_fail={strong_fail}, "
                  f"unflipped={unflipped}, {elapsed:.2f} s")
    assert report(capsys, 2, "condition checker soundness", ok, detail), detail


def test_criterion_3_fast_rate_slopes(fast_runs, capsys):
    checks = []
    for (n, l), (traj, obs, wall) in sorted(fast_runs.items()):
        checks.append((f"(n={n},l={l}) wall", wall < 60.0, f"{wall:.1f}s"))
        grad_bound = -(1.0 + n / 2.0 + l / 2.0) + 0.3
        slope_g = fit_rate_slope(obs.ts, obs.grad_norm).slope
        checks.append((f"grad(n={n},l={l})", slope_g <= grad_bound,
                       f"{slope_g:.2f}<={grad_bound:.2f}"))
        if l == 0:
            slope_m = fit_rate_slope(obs.ts, obs.moreau_gap).slope
            checks.append((f"gap(n={n})", slope_m <= -(2.0 + n) + 0.3,
                           f"{slope_m:.2f}<={-(2.0 + n) + 0.3:.2f}"))
            slope_v = fit_rate_slope(obs.ts, obs.velocity_combo).slope
            checks.append((f"vel(n={n})", slope_v <= -0.7, f"{slope_v:.2f}<=-0.7"))
    ok = all(passed for _, passed, _ in checks)
    shown = [f"{name} {note}" for name, passed, note in checks
             if not passed] or [f"{len(checks)} slope/wall checks", "worst " + min(
                 (note for name, _, note in checks if name.startswith("gap")), default="")]
    detail = "; ".join(shown)
    assert report(capsys, 3, "fast rate slopes", ok, detail), detail


def test_criterion_4_energy_descent(fast_runs, capsys):
    lines = []
    ok = True
    for (n, l), (_, obs, _) in sorted(fast_runs.items()):
        rep = check_energy_descent(obs, a=2.0)  # q = alpha - 1
        ok = ok and rep.passed
        lines.append(f"(n={n},l={l}) {rep.violations}/{rep.intervals} "
                     f"worst {rep.worst_excess:.1e}")
    detail = "q=9 a=2: " + ", ".join(lines)
    assert report(capsys, 4, "energy descent", ok, detail), detail


def test_criterion_5_strong_convergence(tikhonov_runs, capsys):
    checks = []
    for fig in ("fig4", "fig5"):
        xr, _, wall_r = tikhonov_runs[(fig, "tikhonov")]
        xf, _, wall_f = tikhonov_runs[(fig, "no_tikhonov")]
        reg_end = abs(float(xr.xs[-1][0]))
        free_end = abs(float(xf.xs[-1][0]) - 1.0)
        checks.append((f"{fig} regularized |x(T)|", reg_end <= 0.1, reg_end))
        checks.append((f"{fig} unregularized |x(T)-1|", free_end <= 0.1, free_end))
        checks.append((f"{fig} wall", max(wall_r, wall_f) < 60.0, max(wall_r, wall_f)))
    dists = [float(tikhonov_runs[("fig6", lbl)][1].dist_to_xstar[-1])
             for lbl in ("d1_1", "d1_5", "d1_9")]
    checks.append(("decay ordering nondecreasing", dists == sorted(dists), dists))
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name}={val if not isinstance(val, float) else f'{val:.3g}'}"
                       for name, _, val in checks)
    assert report(capsys, 5, "strong convergence endpoints", ok, detail), detail


def test_criterion_6_scaling_orderings(fast_runs, smoothing_runs, decay_sweep_runs, capsys):
    gaps_n = [float(fast_runs[(n, 0)][1].moreau_gap[-1]) for n in (0, 1, 2)]
    grads_l = [float(smoothing_runs[l].grad_norm[-1]) for l in (0, 1, 2)]
    gaps_d = [float(decay_sweep_runs[d].moreau_gap[-1]) for d in (2.5, 3.0, 3.5)]
    spread = (max(gaps_d) - min(gaps_d)) / min(gaps_d)
    ok = (gaps_n[0] > gaps_n[1] > gaps_n[2]
          and grads_l[0] >= grads_l[1] >= grads_l[2]
          and spread <= 0.10)
    detail = (f"gap(T) in n {[f'{g:.2e}' for g in gaps_n]}, "
              f"grad(T) in l {[f'{g:.2e}' for g in grads_l]}, "
              f"gap spread across d {spread * 100:.1f}% <= 10%")
    assert report(capsys, 6, "scaling orderings", ok, detail), detail


def test_criterion_7_integrator_validation(capsys):
    # stationary preservation over the full horizon
    flat = dict(preset_runs("fig1")[0])
    flat["system.x0"] = "0"
    cfg, settings = build_system(config_from_flat(flat))
    still = integrate(cfg, settings)
    drift = float(np.max(np.abs(still.xs)))

    # residual convergence order under step halving on the smooth objective
    orders = []
    for beta in (1.0, 0.0):
        res = {}
        for h in (0.01, 0.005):
            rcfg, _ = build_system(config_from_flat({
                "system.alpha": "10", "system.beta": repr(beta), "system.t0": "1.4",
                "system.horizon": "11.4", "system.x0": "10",
                "objective.name": "scaled_shifted_quadratic",
                "integrator.method": "rk4_fixed", "integrator.fixed_step": repr(h),
            }))
            traj = integrate(rcfg, IntegratorSettings(method="rk4_fixed", fixed_step=h))
            res[h] = residual_second_order(traj, rcfg)
        orders.append(math.log2(res[0.01] / res[0.005]))

    # bit-identical reruns
    again = integrate(cfg, settings)
    flat1 = dict(preset_runs("fig1")[1])
    a, _ = run_flat(flat1)
    b, _ = run_flat(flat1)
    identical = (still.xs.tobytes() == again.xs.tobytes()
                 and a.xs.tobytes() == b.xs.tobytes()
                 and a.ts.tobytes() == b.ts.tobytes())

    ok = drift <= 1e-10 and all(o >= 1.8 for o in orders) and identical
    detail = (f"stationary drift {drift:.1e} <= 1e-10, residual orders "
              f"{[f'{o:.2f}' for o in orders]} >= 1.8, reruns bit-identical: {identical}")
    assert report(capsys, 7, "integrator validation", ok, detail), detail
