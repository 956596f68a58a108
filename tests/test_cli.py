"""CLI subcommands and the exit-code contract."""

import contextlib
import dataclasses
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import proxdyn
from proxdyn import cli, csvio, dynamics, objectives, runconfig
from proxdyn.csvio import read_csv

FAST_CONFIG = """
label = demo
objective.name = abs_plus_quad
system.alpha = 10
system.t0 = 1.4
system.horizon = 10
system.x0 = 10
schedule.d = 3
"""

ALPHA3_CONFIG = """
label = critical
system.alpha = 3
system.beta = 0
system.t0 = 1
system.horizon = 10
system.x0 = 4
schedule.b_coeff = 1.5
schedule.n = 0
schedule.eps_coeff = 1
schedule.d = 1.5
"""

RUNAWAY_CONFIG = """
label = runaway
objective.name = l1_norm
system.alpha = 0.5
system.t0 = 1
system.horizon = 1e5
system.x0 = 0
system.xdot0 = 1e11
schedule.eps_coeff = 0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "demo" / "trajectory.csv").exists()
    assert (out / "demo" / "summary.txt").exists()
    assert "conditions pass" in capsys.readouterr().out


def test_simulate_preset_emits_all_runs(tmp_path):
    args = ["simulate", "--preset", "fig1", "--set", "system.horizon=5",
            "--svg", "off", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    for label in ("n0", "n1", "n2"):
        assert (tmp_path / label / "trajectory.csv").exists()


def test_check_passes_fast_setting(capsys):
    assert cli.main(["check", "--preset", "fig1"]) == 0
    assert "all conditions hold" in capsys.readouterr().out


def test_check_fails_wrong_setting(capsys):
    # the fast-rate preset decays eps too quickly for the strong regime
    assert cli.main(["check", "--preset", "fig1", "--setting", "strong"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_check_reports_grid_overflow_without_warnings(capsys):
    # t**2 overflows on the whole condition grid from t0 = 1e200: the two
    # growth-cap verdicts of each fig1 run fail with margin -inf, not NaN,
    # and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["check", "--preset", "fig1", "--set", "system.t0=1e200",
                         "--set", "system.horizon=1e201"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("margin -inf at t=1e+200  (") == 6
    assert out.count("grid values not finite from t=1e+200") == 6
    assert "margin nan" not in out


@pytest.mark.parametrize("args", [
    # the admissible-a bound t0**(d - 1) overflows
    ["--preset", "fig1", "--set", "system.t0=1e200", "--set", "system.horizon=1e201",
     "--set", "system.beta=1"],
    # beta**2 overflows in the damping constants of both regimes
    ["--preset", "fig4", "--set", "system.beta=1e200"],
    ["--preset", "fig4", "--set", "system.beta=1e200", "--setting", "alpha3"],
])
def test_check_reports_overflowing_constants_as_verdicts(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["check", *args])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert "result: FAILED" in out and "margin nan" not in out


def test_check_names_an_infinite_dominant_term(capsys):
    # beta**2 overflows in the damping constant: the tail note names the
    # inf term instead of calling the expression vanishing
    assert cli.main(["check", "--preset", "fig4", "--set", "system.beta=1e200"]) == 1
    damping = [line for line in capsys.readouterr().out.splitlines() if "] damping_balance" in line]
    assert len(damping) == 2
    assert all(line.endswith("tail: dominant term inf * t^0)") for line in damping)


_MAX = sys.float_info.max


def _log_uniform(lo=5e-324, zero=False, hi=_MAX):
    """Floats from lo to hi, the largest double unless given, uniform in log,
    the two ends (and 0.0 with zero set) included."""
    ends = [lo, hi] + ([0.0] if zero else [])
    return st.sampled_from(ends) | st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _start_times():
    """_log_uniform() t0 values from the square root of the smallest normal
    double, where t0**2 is still a normal double, to half the largest, where
    the horizon t0 * (1 + gap) is finite and above t0 for every gap drawn, so
    the run reaches the integrator.  At the ends of _log_uniform() it rounds
    back to t0 (5e-324) or overflows (the largest double), and the run stops
    at "horizon must exceed t0"; those two are @examples.  Below the square
    root, alpha / t0 and the first step leave the normal doubles, and a run
    ends in exit 2; the smallest normal double, with beta = 0, and t0 =
    6.9e-197, with beta > 0, are @examples too."""
    return _log_uniform(math.sqrt(sys.float_info.min), hi=_MAX / 2)


@settings(max_examples=150, deadline=None)
@given(preset=st.sampled_from(sorted(runconfig.PRESETS)),
       setting=st.sampled_from(sorted(runconfig._CHECKERS)),
       alpha=_log_uniform(), beta=_log_uniform(zero=True), t0=_log_uniform(),
       gap=st.sampled_from([2.0 ** -52, 1e-6, 1.0]),
       b_coeff=_log_uniform(), n=_log_uniform(zero=True),
       eps_coeff=_log_uniform(zero=True), d=_log_uniform(),
       lambda_form=st.sampled_from(["constant", "power", "bounded"]),
       lambda_value=_log_uniform(zero=True))
def test_check_exits_0_or_1_on_any_numbers_in_their_domains(
        preset, setting, alpha, beta, t0, gap, b_coeff, n, eps_coeff, d, lambda_form,
        lambda_value):
    # every system.* and schedule.* number of check's input, from dust to the
    # largest double, with the horizon just past t0: a verdict or a
    # validation error, never an internal error or a numpy warning
    numbers = {"system.alpha": alpha, "system.beta": beta, "system.t0": t0,
               "system.horizon": t0 * (1.0 + gap), "schedule.b_coeff": b_coeff,
               "schedule.n": n, "schedule.eps_coeff": eps_coeff, "schedule.d": d,
               "schedule.lambda_value": lambda_value}
    args = ["check", "--preset", preset, "--setting", setting,
            "--set", f"schedule.lambda_form={lambda_form}"]
    for key, value in numbers.items():
        args += ["--set", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(args)
    assert code in (0, 1), err.getvalue()


def _signed_log_uniform(lo, hi):
    """_log_uniform(lo, True, hi) values with either sign."""
    return st.builds(math.copysign, _log_uniform(lo, True, hi), st.sampled_from([1.0, -1.0]))


_LAMBDA_FLOOR = runconfig.RunConfig.lambda_floor  # validation's floor on lambda(t0)


def _accepted_lambda_values(t0: float, form: str):
    """lambda_value draws that validation accepts at t0: lambda(t0), that is
    c, t0**l or 1 - t0**(-l), at least its floor.  A constant from the floor
    up, a power exponent up to log(floor) / log(t0) when t0 < 1, a bounded
    exponent from about floor / log(t0), and never 0 for those two forms."""
    if form == "constant":
        lo, zero, hi = _LAMBDA_FLOOR, False, _MAX
    elif form == "power":
        lo, zero = 5e-324, True
        hi = _MAX if t0 >= 1.0 else math.log(_LAMBDA_FLOOR) / math.log(t0) * (1.0 - 1e-9)
    else:
        lo, zero, hi = 2.0 * _LAMBDA_FLOOR / math.log(t0), False, _MAX
    return _log_uniform(lo, zero, hi).filter(
        lambda v: proxdyn.LambdaForm(form, v).scalar(t0) >= _LAMBDA_FLOOR)


def _eps_drops(t0: float, gap: float, eps_coeff: float, d: float) -> bool:
    """Whether validation accepts eps = eps_coeff t**(-d) over [t0, t0 (1 +
    gap)]: eps(t0) = 0, or eps strictly smaller at the horizon."""
    eps = proxdyn.PolyParams(eps_coeff=eps_coeff, d=d).eps.scalar
    eps0 = eps(t0)
    return not eps0 > 0.0 or eps(t0 * (1.0 + gap)) < eps0


def _accepted_eps_coeffs(t0: float, gap: float, d: float):
    """eps_coeff draws that validation accepts with d: 0, and where t0**(-d)
    is finite, the values from which eps(t0) is a normal double from 2**-1000
    to half the largest, so that its drop over the horizon is not lost to
    rounding, or any value where t0**(-d) underflows to 0."""
    p0 = proxdyn.PolyParams(d=d).eps.scalar(t0)  # t0**(-d)
    if p0 == 0.0:
        return _log_uniform(zero=True)
    lo, hi = max(5e-324, 2.0 ** -1000 / p0), min(_MAX, _MAX / 2.0 / p0)
    if not lo < hi:
        return st.just(0.0)
    return _log_uniform(lo, True, hi).filter(lambda e: _eps_drops(t0, gap, e, d))


_DESCENT_A = runconfig.RunConfig.descent_a  # the energy-descent check's a


def _accepted_growth_exponents(t0: float):
    """n draws for which t0**n lies between 2**-1000 and 2**1000, so that
    some b_coeff puts b(t0) above 1/descent_a: any n at t0 = 1."""
    return _log_uniform(zero=True, hi=_MAX if t0 == 1.0 else
                        1000.0 * math.log(2.0) / abs(math.log(t0)))


def _b0_accepted(t0: float, b_coeff: float, n: float) -> bool:
    """Whether b(t0) = b_coeff t0**n, in the package's scalar form, is a
    normal double above 1/descent_a, as validation and the energy-descent
    check's start time need."""
    b0 = proxdyn.PolyParams(b_coeff=b_coeff, n=n).b.scalar(t0)
    return sys.float_info.min <= b0 < math.inf and b0 * _DESCENT_A > 1.0


def _accepted_b_coeffs(t0: float, n: float):
    """b_coeff draws that put b(t0) above 1/descent_a and below the largest
    double, each end by a relative 1e-12 so that rounding keeps it inside."""
    p0 = proxdyn.PolyParams(n=n).b.scalar(t0)  # t0**n
    lo = max(5e-324, 1.0 / (_DESCENT_A * p0) * (1.0 + 1e-12))
    hi = min(_MAX, _MAX / p0 * (1.0 - 1e-12))
    return _log_uniform(lo, hi=hi).filter(lambda b_coeff: _b0_accepted(t0, b_coeff, n))


# The simulate test draws alpha, beta, x0 and xdot0 within a few decades of
# the presets' (alpha 6 or 10, beta 0 or 1, x0 2 or 10, xdot0 0); over the
# whole double range nearly every run overflowed in its first step (exit 2).
# Its schedule numbers are drawn near the presets' in about half the
# examples, where a run can finish and write its CSV and SVG: t0 from 1.1
# (lambda(t0) >= its floor for every form) to 10, a horizon 1e-3 past it,
# b_coeff from 1 (b(t0) > 1/descent_a) to 10, n to 3, eps_coeff to 100, d
# from 1 to 4 and lambda's value from 0.1 to 3.  In the others they range
# over all that validation accepts.
_SIM_NEAR = st.shared(st.booleans(), key="simulate near")


def _near_or(near, wide):
    """The near strategy in the examples that draw near the presets, else wide."""
    return _SIM_NEAR.flatmap(lambda is_near: near if is_near else wide)


# the wide draws that validation checks against one another, shared between
# their strategies: t0 and the gap fix the horizon, lambda's form needs
# t0 > 1 to be bounded, eps_coeff goes with d, and b_coeff with n
_SIM_T0 = st.shared(_near_or(_log_uniform(1.1, hi=10.0), _start_times()), key="simulate t0")
_SIM_GAP = st.shared(_near_or(st.just(1e-3), st.sampled_from([2.0 ** -52, 1e-9, 1e-6])),
                     key="simulate gap")
_SIM_FORM = st.shared(_SIM_T0.flatmap(lambda t0: st.sampled_from(
    ["constant", "power", "bounded"] if t0 > 1.0 else ["constant", "power"])),
    key="simulate lambda form")
# d log(1 + gap) from 2**-48, 16 ulps: eps drops by more than pow rounds
_SIM_D = st.shared(_near_or(_log_uniform(1.0, hi=4.0), st.tuples(_SIM_T0, _SIM_GAP).flatmap(
    lambda tg: _log_uniform(2.0 ** -48 / math.log1p(tg[1])))), key="simulate d")
_SIM_N = st.shared(_near_or(_log_uniform(0.1, True, 3.0),
                            _SIM_T0.flatmap(_accepted_growth_exponents)), key="simulate n")


@settings(max_examples=150, deadline=None)
@given(preset=st.sampled_from(sorted(runconfig.PRESETS)),
       alpha=_log_uniform(1e-2, hi=1e3), beta=_log_uniform(1e-3, True, 1e2), t0=_SIM_T0,
       gap=_SIM_GAP,
       b_coeff=_near_or(_log_uniform(1.0, hi=10.0), st.tuples(_SIM_T0, _SIM_N).flatmap(
           lambda tn: _accepted_b_coeffs(*tn))),
       n=_SIM_N,
       eps_coeff=_near_or(_log_uniform(1e-2, True, 1e2), st.tuples(
           _SIM_T0, _SIM_GAP, _SIM_D).flatmap(lambda tgd: _accepted_eps_coeffs(*tgd))),
       d=_SIM_D, lambda_form=_SIM_FORM,
       lambda_value=_near_or(_log_uniform(0.1, hi=3.0), st.tuples(_SIM_T0, _SIM_FORM).flatmap(
           lambda tf: _accepted_lambda_values(*tf))),
       x0=_signed_log_uniform(1e-3, 1e3), xdot0=_signed_log_uniform(1e-3, 1e3))
# a finished run for each lambda form, whatever the seed draws
@example(preset="fig1", alpha=10.0, beta=0.0, t0=1.4, gap=1e-3, b_coeff=1.0, n=1.0,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=1.0, x0=10.0, xdot0=0.0)
@example(preset="fig2", alpha=10.0, beta=0.0, t0=1.4, gap=1e-3, b_coeff=1.0, n=0.0,
         eps_coeff=1.0, d=3.0, lambda_form="power", lambda_value=1.0, x0=10.0, xdot0=0.0)
@example(preset="fig5", alpha=6.0, beta=1.0, t0=1.4, gap=1e-3, b_coeff=1.0, n=0.7,
         eps_coeff=1.0, d=1.5, lambda_form="bounded", lambda_value=1.0, x0=2.0, xdot0=0.0)
# the ends of the former draws of alpha, beta, x0 and xdot0, the whole
# double range: the smallest and the largest values
@example(preset="fig6", alpha=5e-324, beta=5e-324, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.7,
         eps_coeff=1.0, d=1.5, lambda_form="bounded", lambda_value=1.0, x0=5e-324,
         xdot0=-5e-324)
@example(preset="fig6", alpha=_MAX, beta=_MAX, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.7,
         eps_coeff=1.0, d=1.5, lambda_form="bounded", lambda_value=1.0, x0=_MAX,
         xdot0=-_MAX)
# the ends of the former draws of d, eps_coeff, lambda_value, n and b_coeff,
# outside what validation accepts (exit 1): eps(t) = t**(-5e-324) keeps its
# value over the horizon, lambda's zero and smallest values, a bounded
# lambda 1 - t**(-l) at t0 < 1, -inf for the largest l, b(t0) = 0.5**n
# underflowing to 0 for the largest n, and b(t0) = 5e-324 below 1/descent_a
@example(preset="fig3", alpha=10.0, beta=0.0, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.0,
         eps_coeff=1.0, d=5e-324, lambda_form="constant", lambda_value=1.0, x0=1.0,
         xdot0=0.0)
@example(preset="fig3", alpha=10.0, beta=0.0, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.0,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=0.0, x0=1.0, xdot0=0.0)
@example(preset="fig3", alpha=10.0, beta=0.0, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.0,
         eps_coeff=1.0, d=3.0, lambda_form="bounded", lambda_value=0.0, x0=1.0, xdot0=0.0)
@example(preset="fig3", alpha=10.0, beta=0.0, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.0,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=5e-324, x0=1.0,
         xdot0=0.0)
@example(preset="fig3", alpha=10.0, beta=0.0, t0=0.5, gap=1e-6, b_coeff=1.0, n=0.0,
         eps_coeff=1.0, d=3.0, lambda_form="bounded", lambda_value=_MAX, x0=1.0, xdot0=0.0)
@example(preset="fig3", alpha=10.0, beta=0.0, t0=0.5, gap=1e-6, b_coeff=1.0, n=_MAX,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=1.0, x0=1.0, xdot0=0.0)
@example(preset="fig3", alpha=10.0, beta=0.0, t0=1.4, gap=1e-6, b_coeff=5e-324, n=1.0,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=1.0, x0=1.0, xdot0=0.0)
# the two ends of _log_uniform(): the horizon rounds back to t0 or overflows
@example(preset="fig1", alpha=10.0, beta=1.0, t0=5e-324, gap=1e-6, b_coeff=1.0, n=1.0,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=1.0, x0=10.0, xdot0=0.0)
@example(preset="fig1", alpha=10.0, beta=0.0, t0=_MAX, gap=2.0 ** -52, b_coeff=1.0, n=1.0,
         eps_coeff=1.0, d=3.0, lambda_form="constant", lambda_value=1.0, x0=10.0, xdot0=0.0)
# the smallest normal double, below _start_times(): with b = 1 and eps = 0
# the run reaches the integrator, where alpha / t overflows (exit 2)
@example(preset="fig1", alpha=10.0, beta=0.0, t0=sys.float_info.min, gap=1e-6, b_coeff=1.0,
         n=0.0, eps_coeff=0.0, d=3.0, lambda_form="constant", lambda_value=1.0, x0=10.0,
         xdot0=0.0)
# b(t0) overflowed in energy_descent_start's numpy monomial
@example(preset="fig3", alpha=_MAX, beta=1.0000610370189331, t0=1.0854368296331174e+80,
         gap=1e-6, b_coeff=_MAX, n=1.0000610370189331, eps_coeff=0.0, d=5e-324,
         lambda_form="bounded", lambda_value=1.0000610370189331, x0=10.0, xdot0=0.0)
# initial_aux overflowed, in b(t0) x0 and in beta**2 g0
@example(preset="fig4", alpha=1.0, beta=1.0, t0=1.0, gap=2.0 ** -52, b_coeff=_MAX, n=_MAX,
         eps_coeff=1.0, d=4.816738706938668e+183, lambda_form="constant",
         lambda_value=9.170348025144893e+60, x0=2.0, xdot0=0.0)
@example(preset="fig1", alpha=4.940956882139345e-50, beta=4.901136885052138e+202, t0=1.0,
         gap=1e-6, b_coeff=5e-324, n=_MAX, eps_coeff=_MAX, d=1.0, lambda_form="power",
         lambda_value=4.940956882139345e-50, x0=10.0, xdot0=0.0)
# ... and in the envelope gradient (x - prox(x)) / lambda at x0 = -1.8e308
@example(preset="fig6", alpha=6.0, beta=1.0, t0=1.4, gap=1e-6, b_coeff=1.0, n=0.7,
         eps_coeff=1.0, d=1.5, lambda_form="constant", lambda_value=_MAX, x0=-_MAX,
         xdot0=0.0)
# the observables overflowed: |x - p|^2 / (2 lambda) with lambda = 1.8e308
@example(preset="fig5", alpha=1.0, beta=0.0, t0=1.0, gap=1e-9, b_coeff=1.0, n=5e-324,
         eps_coeff=0.0, d=1.0, lambda_form="constant", lambda_value=_MAX, x0=2.0, xdot0=0.0)
# the linear t axis of trajectory.svg looped forever: its tick step was
# below the spacing of the doubles at t0 = 1e154
@example(preset="fig5", alpha=1.0, beta=0.0, t0=1.0885586470282513e+154, gap=2.0 ** -52,
         b_coeff=1.0, n=1.0, eps_coeff=7.190766037562327e-299, d=_MAX,
         lambda_form="constant", lambda_value=4.4816890703380645,
         x0=3.0010878586492214e-124, xdot0=7.190766037562327e-299)
# below _start_times() with beta > 0: t0**2 underflows to 0, which no
# right-hand side takes; the step size collapses near t0 (exit 2)
@example(preset="fig3", alpha=6.89755700379712e-197, beta=0.0024787521766663585,
         t0=6.89755700379712e-197, gap=1e-6, b_coeff=5e-324, n=6.89755700379712e-197,
         eps_coeff=0.0, d=8.725057778574719e+74, lambda_form="power",
         lambda_value=2.950223274711047e-249, x0=0.0, xdot0=0.0)
def test_simulate_exits_0_1_or_2_on_any_numbers_in_their_domains(
        preset, alpha, beta, t0, gap, b_coeff, n, eps_coeff, d, lambda_form, lambda_value,
        x0, xdot0):
    # the numbers of the check test above, and the initial state, with SVG
    # on: a run, a validation error or a divergence, never an internal error
    # or a numpy warning.  A run that needs more than 20,000 steps stops with
    # StepSizeError (exit 2), as one past the default 5,000,000 does; this
    # bounds an example's time (about 3 ms each, 0.4 s at most)
    numbers = {"system.alpha": alpha, "system.beta": beta, "system.t0": t0,
               "system.horizon": t0 * (1.0 + gap), "schedule.b_coeff": b_coeff,
               "schedule.n": n, "schedule.eps_coeff": eps_coeff, "schedule.d": d,
               "schedule.lambda_value": lambda_value, "system.x0": x0, "system.xdot0": xdot0}
    budget = functools.partial(dynamics.IntegratorSettings, max_steps=20_000)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, \
            mock.patch.object(runconfig, "IntegratorSettings", budget):
        args = ["simulate", "--preset", preset, "--svg", "on", "--out", outdir,
                "--set", f"schedule.lambda_form={lambda_form}"]
        for key, value in numbers.items():
            args += ["--set", f"{key}={value!r}"]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(args)
    assert code in (0, 1, 2), err.getvalue()


def test_simulate_to_the_largest_horizon_without_warnings(tmp_path):
    # the steps grow to t = 1.79e308: the descent bound took inf * 0 there,
    # and the padded linear t axis of trajectory.svg overflowed to inf
    args = ["simulate", "--preset", "fig3", "--set", "system.x0=0",
            "--set", "system.horizon=1.79e308", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 0
    assert (tmp_path / "d3" / "trajectory.svg").exists()


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from(sorted(runconfig.PRESETS)),
       param=st.sampled_from(sorted(cli._SWEEP_KEYS)),
       values=st.lists(_log_uniform(zero=True), min_size=1, max_size=3, unique=True),
       lambda_form=st.sampled_from(["constant", "power", "bounded"]),
       t0=st.just(1.4) | _start_times(), gap=st.sampled_from([2.0 ** -52, 1e-9, 1e-6, 1e-3]))
# the two ends of _log_uniform(): the horizon rounds back to t0 or overflows
@example(preset="fig3", param="d", values=[2.5], lambda_form="constant", t0=5e-324, gap=1e-3)
@example(preset="fig3", param="d", values=[2.5], lambda_form="constant", t0=_MAX, gap=2.0 ** -52)
# the smallest normal double, below _start_times(): fig3 has beta = 0, and
# eps = t**-0.5 stays finite, so the run reaches the integrator (exit 2)
@example(preset="fig3", param="d", values=[0.5], lambda_form="constant",
         t0=sys.float_info.min, gap=1e-3)
# the first step, h = 1 at t0 = 1.2e16, left t where it was, and the
# descent check divided by that interval's length, 0; the integrator now
# refuses such a step with StepSizeError (exit 2)
@example(preset="fig1", param="beta", values=[1.0], lambda_form="power",
         t0=1.1719142372802612e+16, gap=1e-9)
# the energy overflowed to inf at t0 = 1.5e154, and its differences were
# inf - inf
@example(preset="fig6", param="n", values=[5e-324], lambda_form="power",
         t0=1.4946554004725342e+154, gap=1e-9)
# log t varied too little over the rate fit's window for polyfit's rank
@example(preset="fig4", param="n", values=[5e-324], lambda_form="power",
         t0=4.708527339044277e+213, gap=1e-9)
# the combined table's geomspace grid overflowed next to the largest double
@example(preset="fig1", param="alpha", values=[5e-324], lambda_form="constant",
         t0=1.7976931348622732e+308, gap=2.0 ** -52)
def test_sweep_exits_0_1_or_2_on_any_values_in_their_domains(
        preset, param, values, lambda_form, t0, gap):
    # every --param over values from dust to the largest double, from the
    # presets' t0 = 1.4 or any t0, with SVG on and the simulate test's
    # 20,000-step budget: each variant runs, fails validation or diverges,
    # never an internal error or a numpy warning.  The variants run in this
    # process, under the patched budget and the warnings filter
    budget = functools.partial(dynamics.IntegratorSettings, max_steps=20_000)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, \
            mock.patch.object(runconfig, "IntegratorSettings", budget):
        args = ["sweep", "--preset", preset, "--param", param,
                "--values", ",".join(map(repr, values)), "--svg", "on", "--out", outdir,
                "--set", f"schedule.lambda_form={lambda_form}",
                "--set", f"system.t0={t0!r}", "--set", f"system.horizon={t0 * (1.0 + gap)!r}"]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(args)
    assert code in (0, 1, 2), err.getvalue() + out.getvalue()


def _math_log_grid(t_lo, t_hi):
    """The sweep table's 256 points, from math alone: geomspace's spacing,
    each 10 ** y by math.pow, inf where it overflows, capped at t_hi."""
    lo, hi = math.log10(t_lo), math.log10(t_hi)
    grid = [t_lo]
    for i in range(1, 255):
        try:
            t = math.pow(10.0, lo + i * ((hi - lo) / 255))
        except OverflowError:
            t = math.inf
        grid.append(min(t, t_hi))
    return grid + [t_hi]


@pytest.mark.parametrize("t_lo, t_hi", [
    (1.4, 140.0), (1.4, 1e5), (1e-300, 1e300), (5e-324, _MAX), (1.0, 1.0),
    # log10 of both ends rounds to one value, whose 10 ** y overflows
    (1.7976931348622732e+308, _MAX)])
def test_sweep_grid_is_libm_bit_for_bit(t_lo, t_hi):
    # the combined table's grid takes no numpy power, whose SIMD forms move
    # some points by 1 ulp between targets
    grid = cli._sweep_grid(t_lo, t_hi)
    assert grid.tobytes() == np.array(_math_log_grid(t_lo, t_hi)).tobytes()
    assert grid[0] == t_lo and grid[-1] == t_hi and grid.max() == t_hi
    if t_hi < 1e300:
        # it is geomspace's grid, but for the last bits
        np.testing.assert_allclose(grid, np.geomspace(t_lo, t_hi, 256), rtol=1e-14, atol=0)


def test_check_alpha3_example(tmp_path):
    cfg = write_config(tmp_path, ALPHA3_CONFIG)
    assert cli.main(["check", "--config", cfg, "--setting", "alpha3"]) == 0


def test_stationary_start_gives_constant_rows(tmp_path):
    # x0 = x*: every CSV row repeats the stationary state, and every rate
    # series is 0, so there is no rates chart to draw on a log axis
    cfg = write_config(tmp_path, FAST_CONFIG.replace("system.x0 = 10", "system.x0 = 0"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--svg", "on"]) == 0
    table = read_csv(out / "demo" / "trajectory.csv")
    assert np.all(table.xs == 0.0)
    assert np.all(table.xdots == 0.0)
    assert (out / "demo" / "trajectory.svg").exists()
    assert not (out / "demo" / "rates.svg").exists()


def test_sweep_writes_runs_and_combined(tmp_path):
    args = ["sweep", "--preset", "fig1", "--param", "d", "--values", "2.5,3.5",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert (tmp_path / "d_2_5" / "trajectory.csv").exists()
    assert (tmp_path / "d_2_5" / "summary.txt").exists()
    assert (tmp_path / "d_3_5" / "trajectory.csv").exists()
    combined = (tmp_path / "sweep_d.csv").read_text().splitlines()
    assert combined[0].startswith("d,t,moreau_gap")
    values = {line.split(",")[0] for line in combined[1:]}
    assert values == {"2.5", "3.5"}
    assert (tmp_path / "sweep_d_summary.txt").exists()


def test_sweep_csv_bytes_equal_percent_format(tmp_path, monkeypatch):
    # the columns the sweep hands the writer, kept to build a per-value
    # reference; each variant's trajectory.csv goes through the writer too
    written = []
    write_rows = csvio._write_rows

    def record(path, header, columns):
        written.append((os.fspath(path), header, np.column_stack(columns)))
        write_rows(path, header, columns)

    monkeypatch.setattr(csvio, "_write_rows", record)
    args = ["sweep", "--preset", "fig1", "--param", "alpha", "--values", "3,4.5,6",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    [(header, table)] = [(header, table) for path, header, table in written
                         if path == str(tmp_path / "sweep_alpha.csv")]
    assert len(table) == 3 * 256
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in table.tolist()]
    assert (tmp_path / "sweep_alpha.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_sweep_single_value_matches_simulate(tmp_path):
    args = ["sweep", "--preset", "fig1", "--param", "n", "--values", "0",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path / "s")]
    assert cli.main(args) == 0
    # the sweep's base run, fig1's first; the whole preset would repeat the label
    base = "".join(f"{key} = {value}\n" for key, value in runconfig.preset_runs("fig1")[0].items())
    sim = ["simulate", "--config", write_config(tmp_path, base), "--set", "system.horizon=5",
           "--set", "schedule.n=0", "--set", "label=n_0_0", "--svg", "off",
           "--out", str(tmp_path / "m")]
    assert cli.main(sim) == 0
    a = read_csv(tmp_path / "s" / "n_0_0" / "trajectory.csv")
    b = read_csv(tmp_path / "m" / "n_0_0" / "trajectory.csv")
    assert a.ts.tobytes() == b.ts.tobytes()
    assert a.xs.tobytes() == b.xs.tobytes()


def test_sweep_fail_fast_runs_nothing(tmp_path):
    # an invalid second value (d <= 0), or one that repeats the first under
    # another spelling: no run directory may appear
    for values in ("3,-1", "3,3.0"):
        args = ["sweep", "--preset", "fig1", "--param", "d", "--values", values,
                "--set", "system.horizon=5", "--out", str(tmp_path / "x")]
        assert cli.main(args) == 1
        assert not (tmp_path / "x").exists()


def test_sweep_keeps_variants_when_one_diverges(tmp_path, capsys):
    cfg = write_config(tmp_path, RUNAWAY_CONFIG)
    out = tmp_path / "w"
    args = ["sweep", "--config", cfg, "--param", "alpha", "--values", "10,0.5,12",
            "--svg", "off", "--out", str(out)]
    assert cli.main(args) == 2
    assert "alpha_0_5: alpha = 0.5, FAILED (exit 2)" in capsys.readouterr().out
    combined = (out / "sweep_alpha.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in combined[1:]} == {"10", "12"}
    lines = (out / "sweep_alpha_summary.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines] == ["alpha_10_0", "alpha_0_5", "alpha_12_0"]
    assert lines[1].startswith("alpha_0_5: alpha = 0.5, FAILED (exit 2): divergence:")
    assert "last good t" in lines[1]
    assert not (out / "alpha_0_5").exists()


def test_sweep_keeps_variants_when_one_raises(tmp_path, monkeypatch, capsys):
    # a bug in one variant's run is that variant's exit 3, not the sweep's end
    execute = runconfig._execute

    def boom_on_d3(rc, *args):
        if rc.label == "d_3_0":
            raise RuntimeError("synthetic failure")
        return execute(rc, *args)

    monkeypatch.setattr(cli, "_execute", boom_on_d3)
    args = ["sweep", "--preset", "fig1", "--param", "d", "--values", "2.5,3,3.5",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path)]
    assert cli.main(args) == 3
    lines = (tmp_path / "sweep_d_summary.txt").read_text().splitlines()
    assert capsys.readouterr().out.startswith("\n".join(lines) + "\n")
    assert lines[1] == ("d_3_0: d = 3.0, FAILED (exit 3): "
                        "internal error: RuntimeError: synthetic failure")
    for line in (lines[0], lines[2]):
        assert "final moreau_gap" in line
    combined = (tmp_path / "sweep_d.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in combined[1:]} == {"2.5", "3.5"}
    assert (tmp_path / "d_2_5" / "trajectory.csv").exists()
    assert (tmp_path / "d_3_5" / "trajectory.csv").exists()


def no_integration(*args, **kwargs):
    raise AssertionError("integrate must not run")


def test_bad_energy_index_fails_before_integrating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runconfig, "integrate", no_integration)
    bad = ["--preset", "fig1", "--set", "diagnostics.energy_q=20"]
    sim = ["simulate", *bad, "--out", str(tmp_path / "s")]
    swp = ["sweep", *bad, "--param", "d", "--values", "2.5,3", "--out", str(tmp_path / "w")]
    for args in (sim, swp):
        assert cli.main(args) == 1
        assert "q must lie in [2, alpha - 1]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert not (tmp_path / "w").exists()


def test_bad_descent_a_fails_before_integrating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runconfig, "integrate", no_integration)
    # a < 1, then b(t0) a <= 1 with b(t0) = 1
    for a, message in (("0.5", "a must be >= 1"), ("1", "need b(t0) > 1/a")):
        for cmd in (["simulate"], ["sweep", "--param", "d", "--values", "2.5,3"]):
            args = [*cmd, "--preset", "fig1", "--set", f"diagnostics.descent_a={a}",
                    "--out", str(tmp_path / cmd[0])]
            assert cli.main(args) == 1
            assert message in capsys.readouterr().err
    assert not (tmp_path / "simulate").exists()
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("label", ["../../x", "absolute", "a/b", ".", ".."])
def test_bad_label_fails_before_integrating(tmp_path, monkeypatch, capsys, label):
    # the label must name one directory inside --out; before, ../../x wrote
    # two levels up, an absolute label ignored --out and a/b nested
    monkeypatch.setattr(runconfig, "integrate", no_integration)
    if label == "absolute":
        label = str(tmp_path / "abs")
    cfg = write_config(tmp_path, FAST_CONFIG)
    out = tmp_path / "a" / "b" / "out"
    assert cli.main(["simulate", "--config", cfg, "--set", f"label={label}",
                     "--out", str(out)]) == 1
    assert "label must be a single path component" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["run.cfg"]


def test_note_with_hash_fails_before_integrating(tmp_path, monkeypatch, capsys):
    # summary.txt echoes the notes, and reading the echo back would cut the
    # note at its #; preset notes, which hold none, read back whole
    # (test_runconfig.test_preset_config_echo_reads_back)
    monkeypatch.setattr(runconfig, "integrate", no_integration)
    cfg = write_config(tmp_path, FAST_CONFIG)
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", cfg, "--set", "notes=see #3",
                     "--out", str(out)]) == 1
    assert "notes: a note cannot hold '#', got 'see #3'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_repeated_label(tmp_path, monkeypatch, capsys):
    # all three fig2 runs would write runs/same/, each over the last
    monkeypatch.setattr(runconfig, "integrate", no_integration)
    out = tmp_path / "out"
    args = ["simulate", "--preset", "fig2", "--set", "label=same", "--out", str(out)]
    assert cli.main(args) == 1
    assert "label 'same' names more than one run" in capsys.readouterr().err
    assert not out.exists()


def test_output_io_error_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    cfg = write_config(tmp_path, FAST_CONFIG)
    assert cli.main(["simulate", "--config", cfg, "--out", str(blocker / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    # a sweep variant whose run directory cannot be made fails alone, with exit 1
    out = tmp_path / "w"
    out.mkdir()
    (out / "d_2_5").write_text("in the way\n")
    args = ["sweep", "--config", cfg, "--param", "d", "--values", "2.5,3",
            "--svg", "off", "--out", str(out)]
    assert cli.main(args) == 1
    lines = (out / "sweep_d_summary.txt").read_text().splitlines()
    assert lines[0].startswith("d_2_5: d = 2.5, FAILED (exit 1): error: ")
    assert (out / "d_3_0" / "trajectory.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("overrides", [
    ["schedule.d=nan"],
    ["schedule.n=nan"],
    ["schedule.eps_coeff=nan"],
    ["schedule.lambda_value=nan"],
    ["schedule.b_coeff=inf"],
    ["integrator.rtol=nan"],
    ["integrator.atol=nan"],
    ["integrator.method=rk4_fixed", "integrator.fixed_step=nan"],
    ["system.lambda_floor=nan"],
    ["integrator.max_step=nan"],
    ["diagnostics.descent_a=nan"],
    ["objective.name=scaled_shifted_quadratic", "objective.c=nan"],
], ids=" ".join)
def test_non_finite_config_fails_before_integrating(tmp_path, monkeypatch, capsys, overrides):
    monkeypatch.setattr(runconfig, "integrate", no_integration)
    cfg = write_config(tmp_path, FAST_CONFIG)
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    assert cli.main(["simulate", "--config", cfg, *sets, "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_objective_parameter_it_does_not_take(tmp_path, capsys):
    args = ["simulate", "--preset", "fig4", "--set", "objective.lo=-2", "--out", str(tmp_path)]
    assert cli.main(args) == 1
    assert "'dist_to_interval' does not take lo" in capsys.readouterr().err
    args = ["check", "--preset", "fig1", "--set", "objective.name=box_indicator",
            "--set", "objective.c=2"]
    assert cli.main(args) == 1
    assert "does not take c; it takes lo, hi, dim" in capsys.readouterr().err


def test_sweep_l_requires_exponent_form(tmp_path):
    args = ["sweep", "--preset", "fig1", "--param", "l", "--values", "0,1",
            "--out", str(tmp_path)]
    assert cli.main(args) == 1


def test_prox_selftest_passes(capsys):
    assert cli.main(["prox-selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 11


def test_exit_codes_for_bad_usage(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where the default --out runs/ would appear
    assert cli.main(["bogus"]) == 1
    assert cli.main(["simulate"]) == 1  # neither --config nor --preset
    assert cli.main(["simulate", "--preset", "fig1", "--config", "x"]) == 1
    assert cli.main(["simulate", "--preset", "fig9"]) == 1
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg = write_config(tmp_path, FAST_CONFIG + "nope.key = 3\n")
    assert cli.main(["simulate", "--config", cfg]) == 1
    assert not (tmp_path / "runs").exists()
    capsys.readouterr()


def test_exit_code_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, RUNAWAY_CONFIG)
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")])
    assert code == 2
    assert "last good t" in capsys.readouterr().err


def test_exit_code_non_finite_stage(tmp_path, monkeypatch, capsys):
    # the prox turns NaN once the run leaves |x| <= 5: a divergence, not a bad config
    def make_objective(name, **params):
        obj = objectives.make_objective(name, **params)
        nan_outside = lambda lam, x: np.where(np.abs(x) > 5.0, np.nan, obj.prox(lam, x))
        return dataclasses.replace(obj, prox=nan_outside)

    monkeypatch.setattr(runconfig, "make_objective", make_objective)
    cfg = write_config(tmp_path, FAST_CONFIG.replace("system.x0 = 10", "system.x0 = 4")
                       + "system.xdot0 = 10\n")
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "n")])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite stage" in err and "h = " in err


def test_exit_code_schedule_overflow(tmp_path, capsys):
    # b = 1e308 t**0.7 is near the largest double: the first step's stages,
    # which take b * grad, overflow in a beta > 0 run
    code = cli.main(["simulate", "--preset", "fig6", "--set", "schedule.b_coeff=1e308",
                     "--set", "system.horizon=10", "--svg", "off", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite stage" in err and "last good t" in err
    assert "internal error" not in err


def test_import_leaves_out_unused_modules():
    # xml.sax.saxutils pulls in urllib.request (numpy's pathlib has urllib.parse
    # already); no subcommand starts a process pool; the CSV writer's power-of-ten
    # table is built from ints, without fractions or decimal
    script = ("import sys, proxdyn.cli; print(sorted(m for m in sys.modules if m in "
              "('xml.sax', 'urllib.request', 'concurrent.futures.process', 'fractions', "
              "'decimal')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_exit_code_step_size_collapse(tmp_path, capsys):
    # a step cap below the controller's minimum step fails on the first step
    cfg = write_config(tmp_path, FAST_CONFIG + "integrator.max_step = 1e-14\n")
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "step size collapsed" in err
    assert "internal error" not in err


def test_exit_code_internal_error(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "_execute", boom)
    cfg = write_config(tmp_path, FAST_CONFIG)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
