"""Schedule families, condition checkers and starting-time helpers."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxdyn import (
    ConditionQuery,
    InfeasibleError,
    LambdaForm,
    ParameterDomainError,
    PolyParams,
    Schedule,
    SystemConfig,
    ValidationError,
    abs_plus_quad,
    check_alpha3_conditions,
    check_fast_rate_conditions,
    check_strong_conv_conditions,
    energy_descent_start,
    polynomial_schedule,
    suggest_t0,
    suggest_t0_alpha3,
    suggest_t0_strong,
)
from proxdyn import schedules


def fast_example_query(t0=1.4):
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=3.0)
    return ConditionQuery(10.0, 1.0, t0, polynomial_schedule(p, t0))


def strong_example_query():
    p = PolyParams(b_coeff=1.0, n=0.7, eps_coeff=1.0, d=1.5, lam=LambdaForm("bounded", 1.0))
    t0 = suggest_t0_strong(p, 6.0, 0.1)
    return ConditionQuery(6.0, 0.1, t0, polynomial_schedule(p, t0))


def alpha3_example_query():
    p = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=1.0, d=1.5)
    t0 = suggest_t0_alpha3(p, 0.0)
    return ConditionQuery(3.0, 0.0, t0, polynomial_schedule(p, t0))


# ---------------------------------------------------------------- evaluation


def test_polynomial_schedule_point():
    s = polynomial_schedule(PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=3.0), 1.0)
    values = (s.b(2.0), s.lam(2.0), s.eps(2.0), s.b_dot(2.0), s.lam_dot(2.0), s.eps_dot(2.0))
    assert values == (1.0, 1.0, 0.125, 0.0, 0.0, -0.1875)


def test_polynomial_schedule_bounded_lambda():
    s = polynomial_schedule(PolyParams(lam=LambdaForm("bounded", 1.0)), 1.1)
    assert s.lam(2.0) == 0.5
    assert s.lam_dot(2.0) == 0.25


def test_parameter_domains():
    with pytest.raises(ParameterDomainError):
        PolyParams(b_coeff=0.0)
    with pytest.raises(ParameterDomainError):
        PolyParams(n=-0.5)
    with pytest.raises(ParameterDomainError):
        PolyParams(d=0.0)
    with pytest.raises(ParameterDomainError):
        PolyParams(eps_coeff=-1.0)
    with pytest.raises(ParameterDomainError):
        LambdaForm("constant", 0.0)
    with pytest.raises(ParameterDomainError):
        LambdaForm("bounded", 0.0)
    with pytest.raises(ParameterDomainError):
        LambdaForm("spline", 1.0)
    for t0 in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterDomainError):
            polynomial_schedule(PolyParams(), t0)


@settings(max_examples=40, deadline=None)
@given(
    b_coeff=st.floats(0.2, 4.0),
    n=st.floats(0.0, 2.0),
    eps_coeff=st.floats(0.0, 2.0),
    d=st.floats(0.3, 4.0),
    kind=st.sampled_from(["constant", "power", "bounded"]),
    lv=st.floats(0.2, 2.0),
    t=st.floats(1.5, 40.0),
)
def test_schedule_derivatives_match_finite_differences(b_coeff, n, eps_coeff, d, kind, lv, t):
    s = polynomial_schedule(PolyParams(b_coeff, n, eps_coeff, d, LambdaForm(kind, lv)), 1.0)
    h = 1e-6 * t
    for fn, dfn in ((s.b, s.b_dot), (s.lam, s.lam_dot), (s.eps, s.eps_dot)):
        fd = (float(fn(t + h)) - float(fn(t - h))) / (2.0 * h)
        scale = max(1.0, abs(float(dfn(t))))
        assert float(dfn(t)) == pytest.approx(fd, abs=1e-5 * scale)


@pytest.mark.parametrize("n, eps_coeff, d", [(0.0, 1.0, 3.0), (2.0, 0.0, 1.5),
                                             (0.7, 2.0, 1.1), (1.3, 0.5, 3.5)])
@pytest.mark.parametrize("kind, lv", [("constant", 0.5), ("power", 0.0), ("power", 0.7),
                                      ("bounded", 0.3), ("bounded", 1.3)])
def test_scalar_forms_match_array_forms(n, eps_coeff, d, kind, lv):
    s = polynomial_schedule(PolyParams(1.5, n, eps_coeff, d, LambdaForm(kind, lv)), 1.0)
    ts = np.geomspace(1.0, 1e4, 1001)
    for name in ("b", "b_dot", "lam", "eps", "eps_dot"):
        fn = getattr(s, name)
        # libm's and numpy's pow may differ in the last bit; in 1 - t**(-l)
        # that is an ulp of t**(-l) <= 1, not of the possibly smaller result
        scale = 1.0 if name == "lam" and kind == "bounded" else 0.0
        for t, want in zip(ts.tolist(), fn(ts).tolist()):
            got = fn.scalar(t)
            assert type(got) is float
            assert abs(got - want) <= 2.0 * math.ulp(max(abs(want), scale)), (name, t)
            if want == 0.0:  # a zero coefficient gives exactly +0.0
                assert math.copysign(1.0, got) == 1.0 and got == 0.0, (name, t)


def test_scalar_forms_overflow_to_inf_as_array_forms_do():
    s = polynomial_schedule(PolyParams(1e-300, 400.0, 1.0, 3.0, LambdaForm("power", 400.0)), 1.0)
    with np.errstate(over="ignore"):
        for fn in (s.b, s.b_dot, s.lam):
            assert fn.scalar(10.0) == float(fn(np.array([10.0]))[0]) == math.inf


# ---------------------------------------------------------------- fast checker


def test_fast_checker_reference_configuration_passes():
    rep = check_fast_rate_conditions(fast_example_query())
    assert rep.setting == "fast"
    assert rep.all_pass
    names = [v.condition for v in rep.verdicts]
    assert names == ["alpha_above_3", "b_growth_cap", "b_growth_margin",
                     "eps_decay_speed", "b0_vs_beta", "t_eps_integrable"]
    lo, hi = rep.feasible_a
    assert lo == pytest.approx(1.0)
    # 2 d / (beta eps_coeff) * t0^(d-1) at t0 = 1.4, d = 3
    assert hi == pytest.approx(11.76)
    assert "all conditions hold" in rep.format()


def test_fast_checker_flags_excessive_time_scale_growth():
    # n above alpha - 3 makes the growth cap fail in the tail
    p = PolyParams(b_coeff=1.0, n=7.5, eps_coeff=1.0, d=3.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, polynomial_schedule(p, 1.4)))
    assert not rep.all_pass
    assert "b_growth_cap" in rep.failed()
    assert "b_growth_margin" in rep.failed()


def test_fast_checker_flags_slow_tikhonov_decay():
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=1.8)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, polynomial_schedule(p, 1.4)))
    assert "t_eps_integrable" in rep.failed()


def test_fast_checker_flags_empty_damping_window():
    # d < 1 sends the admissible a interval to zero width
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=0.5)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, polynomial_schedule(p, 1.4)))
    assert "eps_decay_speed" in rep.failed()
    assert rep.feasible_a is None


def test_fast_checker_flags_small_initial_time_scale():
    p = PolyParams(b_coeff=0.2, n=0.0, eps_coeff=0.0, d=3.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 2.0, 1.0, polynomial_schedule(p, 1.0)))
    assert "b0_vs_beta" in rep.failed()


def test_fast_checker_low_alpha_fails():
    p = PolyParams()
    rep = check_fast_rate_conditions(ConditionQuery(3.0, 0.0, 1.0, polynomial_schedule(p, 1.0)))
    assert "alpha_above_3" in rep.failed()


def test_fast_checker_zero_eps_is_admissible():
    p = PolyParams(eps_coeff=0.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, polynomial_schedule(p, 1.4)))
    assert rep.all_pass
    assert rep.feasible_a[1] == math.inf


def test_strict_margin_sits_on_boundary_at_bare_suggestion():
    # at the exact suggested time the plain growth cap holds with margin zero,
    # so the strictly-margined variant needs a positive slack
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=3.0)
    t_exact = suggest_t0(p, 10.0, 1.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, t_exact, polynomial_schedule(p, t_exact)))
    assert rep.failed() == ["b_growth_margin"]
    t_pad = suggest_t0(p, 10.0, 1.0, slack=0.05)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, t_pad, polynomial_schedule(p, t_pad)))
    assert rep.all_pass


# -------------------------------------------------------------- suggest_t0


def test_suggest_t0_known_values():
    assert suggest_t0(PolyParams(1.0, 0.0, 1.0, 3.0), 10.0, 1.0) == pytest.approx(8.0 / 7.0)
    assert suggest_t0(PolyParams(1.0, 1.0, 1.0, 3.0), 5.0, 2.0) == pytest.approx(math.sqrt(6.0))


def test_suggest_t0_beta_zero_floor():
    assert suggest_t0(PolyParams(1.0, 0.0, 1.0, 3.0), 10.0, 0.0) == 1.0


def test_suggest_t0_rejects_bad_exponents():
    with pytest.raises(InfeasibleError):
        suggest_t0(PolyParams(1.0, 7.5, 1.0, 3.0), 10.0, 1.0)
    with pytest.raises(InfeasibleError):
        suggest_t0(PolyParams(1.0, 0.0, 1.0, 1.5), 10.0, 1.0)
    with pytest.raises(InfeasibleError):
        suggest_t0(PolyParams(1.0, 0.0, 2.0, 2.5), 10.0, 3.0)


# alpha and beta out of ConditionQuery's domains, and slack outside [0, inf),
# raise ParameterDomainError; a finite alpha <= 3 + n stays infeasible
@pytest.mark.parametrize("alpha, beta, slack, error", [
    (math.nan, 1.0, 0.0, ParameterDomainError),
    (math.inf, 1.0, 0.0, ParameterDomainError),
    (0.0, 1.0, 0.0, ParameterDomainError),
    (10.0, -1.0, 0.0, ParameterDomainError),
    (10.0, math.nan, 0.0, ParameterDomainError),
    (10.0, math.inf, 0.0, ParameterDomainError),
    (10.0, 1.0, -1.0, ParameterDomainError),
    (10.0, 1.0, -2.0, ParameterDomainError),
    (10.0, 1.0, math.nan, ParameterDomainError),
    (10.0, 1.0, math.inf, ParameterDomainError),
    (3.0, 1.0, 0.0, InfeasibleError),
    (0.5, 1.0, 0.0, InfeasibleError),
])
def test_suggest_t0_rejects_out_of_domain_inputs(alpha, beta, slack, error):
    with pytest.raises(error):
        suggest_t0(PolyParams(), alpha, beta, slack=slack)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(3.6, 12.0),
    beta=st.floats(0.0, 3.0),
    b_coeff=st.floats(0.2, 5.0),
    n_frac=st.floats(0.0, 0.8),
    eps_coeff=st.floats(0.0, 2.0),
    d=st.floats(2.1, 6.0),
)
# beta / b_coeff underflows to t0 = 0; a subnormal t0^2 breaks b_growth_margin
@example(alpha=12.0, beta=5e-324, b_coeff=5.0, n_frac=0.0, eps_coeff=0.0, d=2.1)
@example(alpha=4.0, beta=1e-300, b_coeff=1.0, n_frac=0.8, eps_coeff=0.0, d=2.1)
def test_suggested_time_certifies_fast_rates(alpha, beta, b_coeff, n_frac, eps_coeff, d):
    if eps_coeff > 0 and d < beta * eps_coeff / 2.0:
        d = beta * eps_coeff / 2.0 + 0.1
    p = PolyParams(b_coeff, n_frac * (alpha - 3.0), eps_coeff, d)
    t0 = suggest_t0(p, alpha, beta, slack=0.05)
    rep = check_fast_rate_conditions(ConditionQuery(alpha, beta, t0, polynomial_schedule(p, t0)))
    assert rep.all_pass, rep.format()


# ------------------------------------------------------------ descent start


def test_energy_descent_start_values():
    q = fast_example_query()
    assert energy_descent_start(q, q=9.0, a=2.0) == pytest.approx(2.0)
    assert energy_descent_start(q, q=5.0, a=4.0) == pytest.approx(1.4)


def test_energy_descent_start_domains():
    q = fast_example_query()
    with pytest.raises(ParameterDomainError):
        energy_descent_start(q, q=1.0, a=2.0)
    with pytest.raises(ParameterDomainError):
        energy_descent_start(q, q=9.5, a=2.0)
    with pytest.raises(ParameterDomainError):
        energy_descent_start(q, q=5.0, a=0.5)
    weak = PolyParams(b_coeff=0.4, n=0.0, eps_coeff=1.0, d=3.0)
    with pytest.raises(InfeasibleError):
        energy_descent_start(
            ConditionQuery(10.0, 1.0, 1.0, polynomial_schedule(weak, 1.0)), q=5.0, a=2.0)


# ------------------------------------------------------------ strong checker


def test_strong_checker_reference_configuration_passes():
    rep = check_strong_conv_conditions(strong_example_query())
    assert rep.all_pass, rep.format()
    assert rep.setting == "strong"
    assert not rep.warnings
    names = [v.condition for v in rep.verdicts]
    assert names == ["alpha_above_3", "lambda_bounded", "b0_half_plus_beta",
                     "b_growth_cap", "b_growth_cap_third", "eps_decay_speed",
                     "eps_over_tb_integrable", "t2_eps_floor", "damping_balance",
                     "eps_tail_ratio", "poly_exponent_box"]


def test_strong_checker_rejects_unbounded_smoothing():
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=1.5, lam=LambdaForm("power", 1.0))
    t0 = 10.0
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, t0, polynomial_schedule(p, t0)))
    assert "lambda_bounded" in rep.failed()


def test_strong_checker_rejects_fast_eps_decay():
    # d > 2 empties the t^2 eps floor in the tail even though it holds at t0
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=100.0, d=2.5)
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, 2.0, polynomial_schedule(p, 2.0)))
    assert "t2_eps_floor" in rep.failed()
    assert "poly_exponent_box" in rep.failed()


def test_strong_checker_rejects_small_time_scale_with_hessian_damping():
    # constant b below 1 cannot absorb the Hessian-driven term for any t0
    p = PolyParams(b_coeff=0.9, n=0.0, eps_coeff=1.0, d=1.5)
    for t0 in (2.0, 50.0, 5000.0):
        rep = check_strong_conv_conditions(
            ConditionQuery(6.0, 0.5, t0, polynomial_schedule(p, t0)))
        assert "damping_balance" in rep.failed()


def test_strong_checker_flags_borderline_tail_average():
    # d = 1 passes the polynomial rule but carries an explicit warning
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=1.0)
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, 5.0, polynomial_schedule(p, 5.0)))
    assert rep.all_pass, rep.format()
    assert len(rep.warnings) == 1
    assert "d = 1" in rep.warnings[0]


def test_strong_checker_rejects_sub_linear_eps_decay():
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=0.9)
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, 5.0, polynomial_schedule(p, 5.0)))
    assert "eps_tail_ratio" in rep.failed()
    assert "poly_exponent_box" in rep.failed()


def test_suggest_t0_strong_rejects_zero_eps():
    with pytest.raises(InfeasibleError):
        suggest_t0_strong(PolyParams(eps_coeff=0.0, d=1.5), 6.0, 0.1)


@pytest.mark.parametrize("d", [1.2, 1.5])
def test_suggest_t0_strong_negative_floor_is_infeasible(d):
    # alpha < 3 makes the floor 2 alpha (alpha - 3) negative; at d = 1.2 its
    # power 1 / (2 - d) would be complex, at d = 1.5 the exponent is 2.0
    with pytest.raises(InfeasibleError, match="alpha_above_3"):
        suggest_t0_strong(PolyParams(d=d), 2.9, 0.0)


# ------------------------------------------------------------ alpha-3 checker


def test_alpha3_checker_reference_configuration_passes():
    rep = check_alpha3_conditions(alpha3_example_query())
    assert rep.all_pass, rep.format()
    assert rep.setting == "alpha3"


def test_alpha3_checker_with_hessian_damping():
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=1.5, lam=LambdaForm("bounded", 1.0))
    t0 = suggest_t0_alpha3(p, 0.5)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.5, t0, polynomial_schedule(p, t0)))
    assert rep.all_pass, rep.format()


def test_alpha3_checker_requires_constant_time_scale():
    p = PolyParams(b_coeff=1.5, n=0.3, eps_coeff=1.0, d=1.5)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.0, 2.0, polynomial_schedule(p, 2.0)))
    assert "b_constant" in rep.failed()


def test_alpha3_checker_requires_slow_eps_decay():
    p = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=1.0, d=2.0)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.0, 2.0, polynomial_schedule(p, 2.0)))
    assert "t2_eps_diverges" in rep.failed()
    assert "poly_exponent_box" in rep.failed()
    pz = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=0.0, d=1.5)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.0, 2.0, polynomial_schedule(pz, 2.0)))
    assert "t2_eps_diverges" in rep.failed()


def test_alpha3_checker_requires_alpha_exactly_three():
    p = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=1.0, d=1.5)
    rep = check_alpha3_conditions(ConditionQuery(3.2, 0.0, 2.0, polynomial_schedule(p, 2.0)))
    assert "alpha_is_3" in rep.failed()


def test_suggest_t0_alpha3_rejects_small_time_scale():
    with pytest.raises(InfeasibleError):
        suggest_t0_alpha3(PolyParams(b_coeff=0.4, n=0.0, eps_coeff=1.0, d=1.5), 1.0)


# ------------------------------------------- start-time search and grid


def scan_like_draw(rng):
    """(params, alpha, beta) from a box spanning the three regimes' boxes
    and the ways a draw leaves them: n past the caps, d outside [1, 2],
    eps = 0, b(t) < 1, a power lambda, alpha at or off 3, beta = 0."""
    lam = (LambdaForm("constant", rng.uniform(0.5, 2.0)), LambdaForm("bounded", rng.uniform(0.5, 2.0)),
           LambdaForm("power", rng.uniform(0.0, 1.5)))[rng.integers(3)]
    params = PolyParams(b_coeff=rng.uniform(0.5, 3.0),
                        n=0.0 if rng.uniform() < 0.5 else rng.uniform(0.0, 2.0),
                        eps_coeff=0.0 if rng.uniform() < 0.2 else rng.uniform(0.2, 3.0),
                        d=rng.uniform(0.8, 4.0), lam=lam)
    alpha = 3.0 if rng.uniform() < 0.3 else rng.uniform(2.9, 8.0)
    beta = 0.0 if rng.uniform() < 0.3 else rng.uniform(0.0, 2.0)
    return params, alpha, beta


def t0_free_rows(setting, params, alpha, beta, t0):
    report = schedules._check(setting, ConditionQuery(alpha, beta, t0, polynomial_schedule(params, t0)))
    return [(v.condition, v.passed, v.margin, v.witness_t, v.detail)
            for v in report.verdicts if v.condition in schedules._T0_FREE]


def test_t0_free_rules_give_the_same_verdict_at_every_start_time():
    rng = np.random.default_rng(13)
    seen = set()
    for setting in schedules._FAMILIES:
        for _ in range(60):
            params, alpha, beta = scan_like_draw(rng)
            t0 = rng.uniform(1.05, 4.0)
            rows = t0_free_rows(setting, params, alpha, beta, t0)
            seen.update(row[0] for row in rows)
            for k in (1, 3, 10, 40, 79):
                assert t0_free_rows(setting, params, alpha, beta, t0 * 1.5 ** k) == rows, \
                    (setting, params, alpha, beta, t0, k)
    assert seen == schedules._T0_FREE  # every declared rule is some regime's condition


SEARCH_CHECKERS = {"strong": ("check_strong_conv_conditions", check_strong_conv_conditions),
                   "alpha3": ("check_alpha3_conditions", check_alpha3_conditions)}


def reference_search(setting, params, alpha, beta, t0):
    """The start-time search as a plain loop of 80 checks: the first passing
    t0, or the InfeasibleError text and the last start time checked."""
    check = SEARCH_CHECKERS[setting][1]
    for _ in range(80):
        report = check(ConditionQuery(alpha, beta, t0, polynomial_schedule(params, t0)))
        if report.all_pass:
            return t0
        last, t0 = t0, t0 * 1.5
    return f"no starting time found; still failing: {', '.join(report.failed())}", last


def counted_search(monkeypatch, setting, params, alpha, beta):
    """The public search through a wrapped checker: (t0 or error text, start times checked)."""
    name, check = SEARCH_CHECKERS[setting]
    starts = []

    def counting(q):
        starts.append(q.t0)
        return check(q)
    monkeypatch.setattr(schedules, name, counting)
    try:
        if setting == "strong":
            return suggest_t0_strong(params, alpha, beta), starts
        return suggest_t0_alpha3(params, beta), starts
    except InfeasibleError as exc:
        return str(exc), starts
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("setting, params, alpha, beta", [
    ("strong", PolyParams(1.5, 0.8, 1.0, 1.5), 4.5, 0.3),  # n above (alpha - 3) / 3
    ("strong", PolyParams(1.5, 0.1, 1.0, 1.5, LambdaForm("power", 1.0)), 4.5, 0.3),
    ("alpha3", PolyParams(1.5, 0.0, 1.0, 2.2), 3.0, 0.3),
    ("alpha3", PolyParams(0.9, 0.0, 1.0, 1.5), 3.0, 0.0),
], ids=["strong_n", "strong_power_lambda", "alpha3_d", "alpha3_b"])
def test_search_stops_at_a_t0_free_failure(monkeypatch, setting, params, alpha, beta):
    result, starts = counted_search(monkeypatch, setting, params, alpha, beta)
    assert (result, starts[-1]) == reference_search(setting, params, alpha, beta, starts[0])
    assert len(starts) <= 2


@pytest.mark.parametrize("setting, params, alpha, beta, steps", [
    # eps_decay_speed and damping_balance fail at the first start times
    ("strong", PolyParams(1.94, 0.0, 5.9, 1.18), 5.4, 0.4, 4),
    ("alpha3", PolyParams(1.94, 0.0, 5.9, 1.18), 3.0, 0.4, 2),
    ("strong", PolyParams(1.5, 0.0, 5.0, 1.5, LambdaForm("bounded", 1.0)), 6.0, 0.5, 5),
])
def test_search_that_succeeds_matches_the_full_search(monkeypatch, setting, params, alpha, beta,
                                                      steps):
    result, starts = counted_search(monkeypatch, setting, params, alpha, beta)
    reference = reference_search(setting, params, alpha, beta, starts[0])
    assert isinstance(result, float) and repr(result) == repr(reference)
    assert len(starts) == steps


# subnormal and tiny start times; ordinary ones; t^2 overflowing on the grid;
# and 1e6 t0, then 100 t0 overflowing, where the grid holds inf and NaN
@pytest.mark.parametrize("t0", [5e-324, 1e-310, 1e-300, 1.4, 1.7, 1e150, 1e302,
                                1.7e306, 1e307, 1.7e308])
def test_condition_grid_is_geomspace_bit_for_bit(t0):
    with np.errstate(all="ignore"):
        ts = schedules._grid(t0)
        fresh = np.concatenate([np.geomspace(t0, 100.0 * t0, 512),
                                np.geomspace(100.0 * t0, 1e6 * t0, 64)])
    assert ts.tobytes() == fresh.tobytes()
    if t0 == 1e307:
        assert not np.isfinite(ts).all()
        q = ConditionQuery(10.0, 0.0, t0, polynomial_schedule(PolyParams(), t0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                          check_alpha3_conditions):
                check(q)


def test_condition_grid_is_built_once_per_start_time():
    t0 = 1.7
    ts = schedules._grid(t0)
    assert schedules._grid(t0) is ts
    with pytest.raises(ValueError):
        ts[0] = 0.0

    def rows(t0):
        q = ConditionQuery(10.0, 1.0, t0, polynomial_schedule(PolyParams(), t0))
        return [[(v.condition, v.passed, v.margin, v.witness_t, v.detail) for v in rep.verdicts]
                + [rep.feasible_a, rep.warnings]
                for rep in (check_fast_rate_conditions(q), check_strong_conv_conditions(q),
                            check_alpha3_conditions(q))]
    schedules._grid.cache_clear()
    first, other, again = rows(1.4), rows(2.0), rows(1.4)
    assert again == first
    assert other != first


def report_bits(q):
    """The three families' reports on q, each float as its repr, so that a
    -0.0 or a NaN counts."""
    return [[(v.condition, v.passed, repr(v.margin), repr(v.witness_t), v.detail)
             for v in rep.verdicts] + [repr(rep.feasible_a), rep.warnings]
            for rep in (check_fast_rate_conditions(q), check_strong_conv_conditions(q),
                        check_alpha3_conditions(q))]


def clear_grid_caches():
    schedules._grid.cache_clear()
    schedules._grid_values.cache_clear()


def test_shared_grid_values_give_the_reports_of_fresh_ones():
    # per draw, two schedules at one t0 and four queries on each, which differ
    # in alpha or beta; alpha = 3 with beta = 0 gives the two growth caps the
    # constants (0, -0.0) and (0, 0)
    rng = np.random.default_rng(7)
    queries = []
    for _ in range(30):
        params, alpha, beta = scan_like_draw(rng)
        t0 = rng.uniform(1.05, 4.0)
        for p in (params, dataclasses.replace(params, n=params.n + 0.5)):
            s = polynomial_schedule(p, t0)
            queries += [ConditionQuery(a, b, t0, s) for a, b in
                        ((alpha, beta), (alpha + 1.0, beta), (alpha, beta + 0.5), (3.0, 0.0))]
    # alpha = 3 - 2^-51 and 3 - 3 * 2^-51 give the plain cap and the alpha/3
    # cap one c1 and the constants -0.0 and 0.0; where c1 t b underflows to
    # -0.0, the two caps differ in the sign of a zero margin
    t0 = 1e-310
    s = polynomial_schedule(PolyParams(b_coeff=1e-20), t0)
    queries += [ConditionQuery(a, 0.0, t0, s) for a in (3.0 - 2.0 ** -51, 3.0 - 3.0 * 2.0 ** -51)]
    clear_grid_caches()
    shared = [report_bits(q) for q in queries]
    assert schedules._grid_values.cache_info().misses == 61  # one per schedule
    fresh = []
    for q in queries:
        clear_grid_caches()
        fresh.append(report_bits(q))
    assert shared == fresh


def test_shared_grid_values_are_read_only():
    q = strong_example_query()
    for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                  check_alpha3_conditions):
        check(q)
    g = schedules._grid_values(q.schedule, q.t0)
    assert len(g.caps) == 2  # the plain cap, shared by two families, and its alpha/3 form
    for values in (g.ts, g.b, g.b_dot, g.t2, g.lam_dot, g.eps, g.tb, *g.caps.values()):
        with pytest.raises(ValueError):
            values[0] = 0.0
        with pytest.raises(ValueError):
            values *= 2.0


def test_grid_overflow_fails_its_condition_and_keeps_finite_margins():
    # from t0 = 1e150 the grid reaches 1e156, where 9 t^2 overflows: the
    # floor on 9 t^2 eps(t) fails, with the margin and witness of its finite
    # values, and numpy warns of nothing
    t0 = 1e150
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=1.5)
    q = ConditionQuery(4.0, 0.0, t0, polynomial_schedule(p, t0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast, strong, _ = [check(q) for check in (check_fast_rate_conditions,
                                                  check_strong_conv_conditions,
                                                  check_alpha3_conditions)]
    ts = schedules._grid(t0)
    with np.errstate(over="ignore"):
        vals = 9.0 * ts ** 2 * (1.0 * ts ** -1.5) - schedules._strong_floor(4.0, 0.0)
    finite = np.isfinite(vals)
    assert finite.any() and not finite.all()
    (floor,) = [v for v in strong.verdicts if v.condition == "t2_eps_floor"]
    assert not floor.passed
    assert floor.margin == vals[finite].min() and floor.witness_t == t0
    assert f"grid values not finite from t={ts[~finite][0]:.6g}" in floor.detail
    # t^2 b_dot is inf * 0 where t^2 overflows: the plain cap, t - t^2 * 0,
    # and its relative margin keep their values at t0
    caps = [v for v in fast.verdicts if v.condition in ("b_growth_cap", "b_growth_margin")]
    assert [(v.passed, v.margin, v.witness_t) for v in caps] == [(False, t0, t0), (False, 1.0, t0)]
    assert all("grid values not finite from t=" in v.detail for v in caps)


@pytest.mark.parametrize("alpha, beta, t0, start", [
    (10.0, 1.0, math.nan, 1.0),
    (10.0, 1.0, 0.0, 1.0),
    (10.0, 1.0, -1.4, 1.0),
    (10.0, 1.0, math.inf, 1.0),
    (0.0, 1.0, 1.4, 1.4),
    (-10.0, 1.0, 1.4, 1.4),
    (math.nan, 1.0, 1.4, 1.4),
    (math.inf, 1.0, 1.4, 1.4),
    (10.0, -0.1, 1.4, 1.4),
    (10.0, math.nan, 1.4, 1.4),
    (10.0, math.inf, 1.4, 1.4),
    (10.0, 1.0, 1.4, 5.0),  # the schedule starts after t0
])
def test_condition_query_rejects_out_of_domain_fields(alpha, beta, t0, start):
    with pytest.raises(ParameterDomainError):
        check_fast_rate_conditions(ConditionQuery(alpha, beta, t0,
                                                  polynomial_schedule(PolyParams(), start)))


def test_condition_query_accepts_its_domain_edges():
    ConditionQuery(10.0, 0.0, 1.4, polynomial_schedule(PolyParams(), 1.4 * (1.0 + 1e-13)))
    ConditionQuery(10.0, 1.0, 1.4, polynomial_schedule(PolyParams(), 0.5))


# ------------------------------------------------------------- SystemConfig


def make_config(**over):
    obj = abs_plus_quad()
    kw = dict(
        objective=obj,
        schedule=polynomial_schedule(PolyParams(), 1.0),
        alpha=10.0,
        beta=1.0,
        t0=1.4,
        x0=10.0,
        xdot0=0.0,
        horizon=140.0,
    )
    kw.update(over)
    return SystemConfig(**kw)


def test_system_config_validates_reference_setup():
    make_config().validate()


def test_system_config_rejects_bad_scalars():
    with pytest.raises(ValidationError):
        make_config(alpha=-1.0).validate()
    with pytest.raises(ValidationError):
        make_config(beta=-0.1).validate()
    with pytest.raises(ValidationError):
        make_config(horizon=1.0).validate()
    with pytest.raises(ValidationError):
        make_config(t0=0.0).validate()
    with pytest.raises(ValidationError):
        make_config(lambda_floor=0.0).validate()


def test_system_config_rejects_schedule_starting_late():
    sched = polynomial_schedule(PolyParams(), 5.0)
    with pytest.raises(ValidationError):
        make_config(schedule=sched).validate()


def test_system_config_enforces_lambda_floor():
    sched = polynomial_schedule(PolyParams(lam=LambdaForm("constant", 1e-12)), 1.0)
    with pytest.raises(ValidationError):
        make_config(schedule=sched).validate()


@pytest.mark.parametrize("params, t0, horizon, message", [
    # 1 - t**(-1) = -1 at t0 = 0.5
    (PolyParams(lam=LambdaForm("bounded", 1.0)), 0.5, 140.0,
     "lambda(t) = -1 fell below its floor 1e-08"),
    (PolyParams(lam=LambdaForm("power", 2.0)), 1e-5, 140.0,
     "lambda(t) = 1e-10 fell below its floor 1e-08"),
    # 1e-300 * (1e-10)**50 underflows to 0
    (PolyParams(b_coeff=1e-300, n=50.0), 1e-10, 1.0,
     "b(t) must stay positive on [t0, horizon]"),
    # t**(-1e-300) rounds to 1 on the whole horizon
    (PolyParams(d=1e-300), 1.4, 140.0, "eps(t) must strictly decrease over the horizon"),
], ids=["bounded_lambda", "power_lambda", "b_underflow", "flat_eps"])
def test_system_config_checks_the_schedule_at_its_end_points(params, t0, horizon, message):
    cfg = make_config(schedule=polynomial_schedule(params, t0), t0=t0, horizon=horizon)
    with pytest.raises(ValidationError) as info:
        cfg.validate()
    assert str(info.value) == message


def test_schedule_callables_are_derived_from_its_parameters():
    params = PolyParams(2.0, 1.5, 0.5, 2.5, LambdaForm("bounded", 0.7))
    s, ref = Schedule(3.0, params), polynomial_schedule(params, 3.0)
    assert s == ref
    for name in ("b", "b_dot", "lam", "lam_dot", "eps", "eps_dot"):
        assert getattr(s, name)(7.0) == getattr(ref, name)(7.0), name
    with pytest.raises(TypeError):
        Schedule(3.0, params, b=lambda t: t)
    with pytest.raises(ParameterDomainError):
        Schedule(0.0, params)


def test_system_config_coerces_points():
    cfg = make_config(x0=3.0, xdot0=-1.0)
    assert cfg.x0.shape == (1,)
    assert cfg.xdot0.shape == (1,)
    with pytest.raises(ParameterDomainError):
        make_config(x0=np.array([1.0, 2.0]))
