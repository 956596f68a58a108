"""Schedule families, condition checkers and starting-time helpers."""

import dataclasses
import math
import pickle
import sys
import threading
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
    SystemConfig,
    ValidationError,
    abs_plus_quad,
    check_alpha3_conditions,
    check_fast_rate_conditions,
    check_strong_conv_conditions,
    energy_descent_start,
    suggest_t0,
    suggest_t0_alpha3,
    suggest_t0_strong,
)
from proxdyn import schedules


def fast_example_query(t0=1.4):
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=3.0)
    return ConditionQuery(10.0, 1.0, t0, p)


def strong_example_query():
    p = PolyParams(b_coeff=1.0, n=0.7, eps_coeff=1.0, d=1.5, lam=LambdaForm("bounded", 1.0))
    t0 = suggest_t0_strong(p, 6.0, 0.1)
    return ConditionQuery(6.0, 0.1, t0, p)


def alpha3_example_query():
    p = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=1.0, d=1.5)
    t0 = suggest_t0_alpha3(p, 0.0)
    return ConditionQuery(3.0, 0.0, t0, p)


# ---------------------------------------------------------------- evaluation


def test_polynomial_schedule_point():
    s = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=3.0)
    values = (s.b(2.0), s.lam(2.0), s.eps(2.0), s.b_dot(2.0), s.lam_dot(2.0), s.eps_dot(2.0))
    assert values == (1.0, 1.0, 0.125, 0.0, 0.0, -0.1875)


def test_polynomial_schedule_bounded_lambda():
    s = PolyParams(lam=LambdaForm("bounded", 1.0))
    assert s.lam(2.0) == 0.5
    assert s.lam_dot(2.0) == 0.25


def _power(t, y):
    try:
        return t ** y
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("kind, lv", [("constant", 0.5), ("constant", 3.0), ("power", 0.0),
                                      ("power", 0.7), ("power", 2.0), ("power", 3.5),
                                      ("bounded", 0.3), ("bounded", 1.0), ("bounded", 2.5)])
def test_lambda_forms_equal_their_expressions_bit_for_bit(kind, lv):
    # offset + term, and the term's derivative, against the forms written
    # out: c, t**l and 1 - t**(-l); power 2 and 3.5 and bounded 2.5 overflow
    # to inf at one end, and the others underflow toward 0 or 1
    form = LambdaForm(kind, lv)
    ts = np.geomspace(1e-300, 1e300, 1201)
    with np.errstate(over="ignore"):
        if kind == "constant":
            want, want_dot = np.full_like(ts, lv), np.zeros_like(ts)
            scalar, scalar_dot = (lambda t: lv), (lambda t: 0.0)
        elif kind == "power":
            want = ts ** lv
            want_dot = np.zeros_like(ts) if lv == 0.0 else lv * ts ** (lv - 1.0)
            scalar = lambda t: _power(t, lv)
            scalar_dot = lambda t: 0.0 if lv == 0.0 else lv * _power(t, lv - 1.0)
        else:
            want, want_dot = 1.0 - ts ** -lv, lv * ts ** (-lv - 1.0)
            scalar = lambda t: 1.0 - _power(t, -lv)
            scalar_dot = lambda t: lv * _power(t, -lv - 1.0)
        got, got_dot = form(ts), form.dot(ts)
    assert got.tobytes() == want.tobytes()
    assert got_dot.tobytes() == want_dot.tobytes()
    t_list = ts.tolist()
    assert [form.scalar(t) for t in t_list] == [scalar(t) for t in t_list]
    assert [form.dot.scalar(t) for t in t_list] == [scalar_dot(t) for t in t_list]
    # and the schedule's lam and lam_dot are these forms
    s = PolyParams(lam=form)
    assert (s.lam, s.lam_dot) == (form, form.dot)


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
            ConditionQuery(10.0, 0.0, t0, PolyParams())


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
    s = PolyParams(b_coeff, n, eps_coeff, d, LambdaForm(kind, lv))
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
    s = PolyParams(1.5, n, eps_coeff, d, LambdaForm(kind, lv))
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
    s = PolyParams(1e-300, 400.0, 1.0, 3.0, LambdaForm("power", 400.0))
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
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, p))
    assert not rep.all_pass
    assert "b_growth_cap" in rep.failed()
    assert "b_growth_margin" in rep.failed()


def test_fast_checker_flags_slow_tikhonov_decay():
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=1.8)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, p))
    assert "t_eps_integrable" in rep.failed()


def test_fast_checker_flags_empty_damping_window():
    # d < 1 sends the admissible a interval to zero width
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=0.5)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, p))
    assert "eps_decay_speed" in rep.failed()
    assert rep.feasible_a is None


def test_fast_checker_flags_small_initial_time_scale():
    p = PolyParams(b_coeff=0.2, n=0.0, eps_coeff=0.0, d=3.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 2.0, 1.0, p))
    assert "b0_vs_beta" in rep.failed()


def test_fast_checker_low_alpha_fails():
    p = PolyParams()
    rep = check_fast_rate_conditions(ConditionQuery(3.0, 0.0, 1.0, p))
    assert "alpha_above_3" in rep.failed()


def test_fast_checker_zero_eps_is_admissible():
    p = PolyParams(eps_coeff=0.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, 1.4, p))
    assert rep.all_pass
    assert rep.feasible_a[1] == math.inf


def test_strict_margin_sits_on_boundary_at_bare_suggestion():
    # at the exact suggested time the plain growth cap holds with margin zero,
    # so the strictly-margined variant needs a positive slack
    p = PolyParams(b_coeff=1.0, n=0.0, eps_coeff=1.0, d=3.0)
    t_exact = suggest_t0(p, 10.0, 1.0)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, t_exact, p))
    assert rep.failed() == ["b_growth_margin"]
    t_pad = suggest_t0(p, 10.0, 1.0, slack=0.05)
    rep = check_fast_rate_conditions(ConditionQuery(10.0, 1.0, t_pad, p))
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


def test_start_time_searches_survive_overflowing_powers():
    # b(t0) = B t0**n overflows inside the search for a nonempty a interval
    p = PolyParams(b_coeff=1.3155038493265984e-64, n=6.415769350275602e+133,
                   eps_coeff=3.2079564038892995e+26, d=17.39303404410185)
    assert math.isfinite(suggest_t0(p, 8.375088703436102e+260, 2.5624577203778328e-82))
    # (beta / B)**(1/(n + 1)) is inf: no start time is a float
    with pytest.raises(InfeasibleError, match="overflows"):
        suggest_t0(PolyParams(b_coeff=1e-300, n=100.0, eps_coeff=1e-12), 200.0, 1e12)
    # a_lo beta E and 2 d both overflow in the admissible-a loop: the ratio is
    # taken in logs, not as inf / inf = NaN, and the interval is nonempty at
    # the settle time
    p = PolyParams(b_coeff=1e-300, n=0.0, eps_coeff=1e308, d=1e308)
    assert suggest_t0(p, 4.0, 1.0) == 1.9999999999999998e+300
    # the strong floor's candidate (floor / 9E)**(1/(2 - d)) overflows
    p = PolyParams(eps_coeff=1e-3, d=1.999, lam=LambdaForm("bounded", 1.0))
    with pytest.raises(InfeasibleError, match="overflows"):
        suggest_t0_strong(p, 6.0, 0.1)


def test_start_time_searches_survive_underflowing_products():
    # B (alpha - 3 - n) underflows to 0 in the growth cap's settle time: with
    # beta > 0 that start time overflows, with beta = 0 it asks for none
    p = PolyParams(b_coeff=5e-324, n=0.0, eps_coeff=1.0, d=1.5)
    with pytest.raises(InfeasibleError, match="overflows"):
        suggest_t0_strong(p, 3.0000000000000004, 1.0)
    assert suggest_t0(PolyParams(b_coeff=5e-324), 3.0000000000000004, 0.0) == 1.0
    # b(t0) underflows to 0, so b(t0) > 1/a asks for an a, and a start time,
    # that overflow
    p = PolyParams(b_coeff=5e-324, n=1e200, eps_coeff=7.0, d=1e308)
    with pytest.raises(InfeasibleError, match="overflows"):
        suggest_t0(p, 1e308, 1e-308)


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


# the checkers' entry points take every number as SystemConfig does: a
# real that a double holds, else ParameterDomainError, where an int beyond
# the doubles or a str raised OverflowError, TypeError or struct.error
NOT_DOUBLES = {
    "query alpha": lambda: ConditionQuery(10 ** 400, 0.0, 1.4, PolyParams()),
    "query beta": lambda: ConditionQuery(10.0, "1", 1.4, PolyParams()),
    "query t0": lambda: ConditionQuery(10.0, 0.0, 10 ** 400, PolyParams()),
    "suggest_t0 alpha": lambda: suggest_t0(PolyParams(), 10 ** 400, 0.0),
    "suggest_t0 beta": lambda: suggest_t0(PolyParams(), 10.0, "0"),
    "suggest_t0 slack": lambda: suggest_t0(PolyParams(), 10.0, 0.0, slack=10 ** 400),
    "suggest_t0_strong alpha": lambda: suggest_t0_strong(PolyParams(), 10 ** 400, 1.0),
    "suggest_t0_strong beta": lambda: suggest_t0_strong(PolyParams(), 10.0, "1"),
    "suggest_t0_alpha3 beta": lambda: suggest_t0_alpha3(PolyParams(), 10 ** 400),
    "energy_descent_start a": lambda: energy_descent_start(fast_example_query(), 9.0, 10 ** 400),
    "energy_descent_start q": lambda: energy_descent_start(fast_example_query(), "9", 2.0),
}


@pytest.mark.parametrize("case", list(NOT_DOUBLES))
def test_checker_entry_points_refuse_what_no_double_holds(case):
    with pytest.raises(ParameterDomainError, match="must be a real number|too large for a double"):
        NOT_DOUBLES[case]()
    # an int that a double holds is checked, not replaced: the query keeps it
    assert type(ConditionQuery(10, 0, 1, PolyParams()).alpha) is int


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
# t0 = 1e-129 has a normal t0^2 but a subnormal t0 b(t0) = t0^2.5
@example(alpha=5.0, beta=5e-324, b_coeff=1.0, n_frac=0.75, eps_coeff=0.0, d=3.0)
def test_suggested_time_certifies_fast_rates(alpha, beta, b_coeff, n_frac, eps_coeff, d):
    if eps_coeff > 0 and d < beta * eps_coeff / 2.0:
        d = beta * eps_coeff / 2.0 + 0.1
    p = PolyParams(b_coeff, n_frac * (alpha - 3.0), eps_coeff, d)
    t0 = suggest_t0(p, alpha, beta, slack=0.05)
    rep = check_fast_rate_conditions(ConditionQuery(alpha, beta, t0, p))
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
        energy_descent_start(ConditionQuery(10.0, 1.0, 1.0, weak), q=5.0, a=2.0)


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
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, t0, p))
    assert "lambda_bounded" in rep.failed()


def test_strong_checker_rejects_fast_eps_decay():
    # d > 2 empties the t^2 eps floor in the tail even though it holds at t0
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=100.0, d=2.5)
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, 2.0, p))
    assert "t2_eps_floor" in rep.failed()
    assert "poly_exponent_box" in rep.failed()


def test_strong_checker_rejects_small_time_scale_with_hessian_damping():
    # constant b below 1 cannot absorb the Hessian-driven term for any t0
    p = PolyParams(b_coeff=0.9, n=0.0, eps_coeff=1.0, d=1.5)
    for t0 in (2.0, 50.0, 5000.0):
        rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.5, t0, p))
        assert "damping_balance" in rep.failed()


def test_strong_checker_flags_borderline_tail_average():
    # d = 1 passes the polynomial rule but carries an explicit warning
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=1.0)
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, 5.0, p))
    assert rep.all_pass, rep.format()
    assert len(rep.warnings) == 1
    assert "d = 1" in rep.warnings[0]


def test_strong_checker_rejects_sub_linear_eps_decay():
    p = PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=0.9)
    rep = check_strong_conv_conditions(ConditionQuery(6.0, 0.1, 5.0, p))
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
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.5, t0, p))
    assert rep.all_pass, rep.format()


def test_alpha3_checker_requires_constant_time_scale():
    p = PolyParams(b_coeff=1.5, n=0.3, eps_coeff=1.0, d=1.5)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.0, 2.0, p))
    assert "b_constant" in rep.failed()


def test_alpha3_checker_requires_slow_eps_decay():
    p = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=1.0, d=2.0)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.0, 2.0, p))
    assert "t2_eps_diverges" in rep.failed()
    assert "poly_exponent_box" in rep.failed()
    pz = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=0.0, d=1.5)
    rep = check_alpha3_conditions(ConditionQuery(3.0, 0.0, 2.0, pz))
    assert "t2_eps_diverges" in rep.failed()


def test_alpha3_checker_requires_alpha_exactly_three():
    p = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=1.0, d=1.5)
    rep = check_alpha3_conditions(ConditionQuery(3.2, 0.0, 2.0, p))
    assert "alpha_is_3" in rep.failed()


def test_alpha3_damping_candidate_survives_an_underflowing_denominator(monkeypatch):
    # 2 beta (B - 1) underflows to 0 at beta = 5e-324, B = 1.2: the candidate
    # is (2 beta + 1) / (2 (B - 1)), 2.5, not a ZeroDivisionError
    result, starts = counted_search(monkeypatch, "alpha3", PolyParams(b_coeff=1.2), 3.0, 5e-324)
    assert starts[0] == pytest.approx(2.5)
    assert result == "no starting time found; still failing: t2_eps_diverges, poly_exponent_box"
    assert suggest_t0_alpha3(PolyParams(b_coeff=1.2, d=1.5), 5e-324) == pytest.approx(2.5)


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
    report = schedules._check(setting, ConditionQuery(alpha, beta, t0, params))
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
        report = check(ConditionQuery(alpha, beta, t0, params))
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
        q = ConditionQuery(10.0, 0.0, t0, PolyParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                          check_alpha3_conditions):
                check(q)


def test_condition_grid_is_built_once_per_query(monkeypatch):
    # a strong search that passes at its first start time, then the three
    # regimes' checks at that t0: one query, so one grid, which
    # _geomspace_into writes in two pieces
    pieces = []
    geomspace_into = schedules._geomspace_into

    def counted(out, ramp, a, b):
        pieces.append(a)
        geomspace_into(out, ramp, a, b)

    monkeypatch.setattr(schedules, "_geomspace_into", counted)
    forget_last_context()
    p = PolyParams(b_coeff=1.0, n=0.7, eps_coeff=1.0, d=1.5, lam=LambdaForm("bounded", 1.0))
    t0 = suggest_t0_strong(p, 6.0, 0.1)
    q = ConditionQuery(6.0, 0.1, t0, p)
    for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                  check_alpha3_conditions):
        check(q)
    assert pieces == [t0, 100.0 * t0]
    ts = schedules._context(q).ts
    with pytest.raises(ValueError):
        ts[0] = 0.0
    # a second query at the same t0 builds a grid of its own and takes the
    # one kept context, so the first query, checked again, builds a third
    other = ConditionQuery(7.0, 0.1, t0, p)
    check_fast_rate_conditions(other)
    assert pieces == [t0, 100.0 * t0] * 2
    assert schedules._context(other).ts is not ts
    assert schedules._context(other).ts.tobytes() == ts.tobytes()
    check_fast_rate_conditions(q)
    assert pieces == [t0, 100.0 * t0] * 3

    def rows(t0):
        q = ConditionQuery(10.0, 1.0, t0, PolyParams())
        return [[(v.condition, v.passed, v.margin, v.witness_t, v.detail) for v in rep.verdicts]
                + [rep.feasible_a, rep.warnings]
                for rep in (check_fast_rate_conditions(q), check_strong_conv_conditions(q),
                            check_alpha3_conditions(q))]
    forget_last_context()
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


def forget_last_context():
    schedules._LAST_CONTEXT = (None, None)


def test_shared_grid_values_give_the_reports_of_fresh_ones(monkeypatch):
    # per draw, two schedules at one t0 and four queries on each, which differ
    # in alpha or beta; alpha = 3 with beta = 0 gives the two growth caps the
    # constants (0, -0.0) and (0, 0)
    rng = np.random.default_rng(7)
    queries = []
    for _ in range(30):
        params, alpha, beta = scan_like_draw(rng)
        t0 = rng.uniform(1.05, 4.0)
        for p in (params, dataclasses.replace(params, n=params.n + 0.5)):
            queries += [ConditionQuery(a, b, t0, p) for a, b in
                        ((alpha, beta), (alpha + 1.0, beta), (alpha, beta + 0.5), (3.0, 0.0))]
    # alpha = 3 - 2^-51 and 3 - 3 * 2^-51 give the plain cap and the alpha/3
    # cap one c1 and the constants -0.0 and 0.0; where c1 t b underflows to
    # -0.0, the two caps differ in the sign of a zero margin
    t0 = 1e-310
    s = PolyParams(b_coeff=1e-20)
    queries += [ConditionQuery(a, 0.0, t0, s) for a in (3.0 - 2.0 ** -51, 3.0 - 3.0 * 2.0 ** -51)]
    # each query after a twin that differs from it only in the sign of a zero
    # (n, beta, eps_coeff or a power lambda's value): the twins are equal as
    # values, but b_constant reports n = -0.0 with margin 0.0 and "n = -0",
    # and beta = -0.0 gives the underflowed plain cap above the constant 0.0
    # and so the margin 0.0, not -0.0
    twins = len(queries)
    zero = PolyParams(b_coeff=1.5, n=0.0, eps_coeff=0.0, d=1.5, lam=LambdaForm("power", 0.0))
    q = ConditionQuery(3.0, 0.0, 1.7, zero)
    tiny = ConditionQuery(3.0 - 2.0 ** -51, 0.0, t0, s)
    for first, twin in (
            (q, dataclasses.replace(q, schedule=dataclasses.replace(zero, n=-0.0))),
            (tiny, dataclasses.replace(tiny, beta=-0.0)),
            (q, dataclasses.replace(q, schedule=dataclasses.replace(zero, eps_coeff=-0.0))),
            (q, dataclasses.replace(q, schedule=dataclasses.replace(
                zero, lam=LambdaForm("power", -0.0))))):
        queries += [first, twin]
    queries.append(queries[-1])
    built = []

    class Counted(schedules._Context):
        def __init__(self, q):
            built.append(q)
            super().__init__(q)

    monkeypatch.setattr(schedules, "_Context", Counted)
    forget_last_context()
    shared = [report_bits(q) for q in queries]
    # one context per query, but none for the appended repeat: the last
    # query's context is kept, and only that one
    assert len(built) == len(queries) - 1
    fresh = []
    for q in queries:
        forget_last_context()
        fresh.append(report_bits(q))
    assert shared == fresh
    # n = -0.0 and beta = -0.0 change some margins or details of their twins'
    assert shared[twins + 1] != shared[twins] and shared[twins + 3] != shared[twins + 2]


def test_a_query_evaluates_each_rule_once(monkeypatch):
    # every rule wrapped once, so that the families still share their rules
    calls = {}

    def counted(rule):
        def wrapper(c):
            calls[rule] = calls.get(rule, 0) + 1
            return rule(c)
        return wrapper

    wrapped = {}
    families = {setting: tuple(wrapped.setdefault(rule, counted(rule)) for rule in rules)
                for setting, rules in schedules._FAMILIES.items()}
    monkeypatch.setattr(schedules, "_FAMILIES", families)
    forget_last_context()
    # the search's last report is the one the caller then asks for at t0
    p = PolyParams(b_coeff=1.0, n=0.7, eps_coeff=1.0, d=1.5, lam=LambdaForm("bounded", 1.0))
    t0 = suggest_t0_strong(p, 6.0, 0.1)
    searched = dict(calls)
    assert searched
    assert check_strong_conv_conditions(ConditionQuery(6.0, 0.1, t0, p)).all_pass
    assert calls == searched
    # the three regimes on one query: each rule once, b_growth_cap included,
    # though the fast and strong regimes both list it
    calls.clear()
    q = fast_example_query()
    fast, strong, _ = [check(q) for check in (check_fast_rate_conditions,
                                              check_strong_conv_conditions,
                                              check_alpha3_conditions)]
    assert sorted(calls.values()) == [1] * len(wrapped) == [1] * 20
    assert calls[schedules._PLAIN_CAP] == 1
    # so both reports list the one b_growth_cap Verdict, and a report asked
    # for again lists the same Verdicts, in a list of its own
    (cap,) = [v for v in fast.verdicts if v.condition == "b_growth_cap"]
    assert any(v is cap for v in strong.verdicts)
    again = check_fast_rate_conditions(q)
    assert again.verdicts is not fast.verdicts
    assert len(again.verdicts) == len(fast.verdicts)
    assert all(a is b for a, b in zip(again.verdicts, fast.verdicts))


def test_editing_a_report_leaves_the_next_one_on_its_query_unchanged():
    # d = 1 with beta > 0 gives the strong report a warning and an a interval;
    # the edited reports are a fresh query's, then ones that list its kept
    # Verdicts: those cannot be set, and a report's lists are its own
    q = ConditionQuery(6.0, 0.1, 5.0, PolyParams(b_coeff=2.0, n=0.0, eps_coeff=1.0, d=1.0))
    before = report_bits(q)
    forget_last_context()
    for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                  check_alpha3_conditions):
        rep = check(q)
        for name, value in (("margin", -1.0), ("passed", False), ("detail", "edited")):
            with pytest.raises(AttributeError):
                setattr(rep.verdicts[0], name, value)
        rep.verdicts[1] = rep.verdicts[1]._replace(margin=-1.0)
        rep.verdicts.pop()
        rep.warnings.append("edited")
        rep.feasible_a = (0.0, 0.0)
    assert report_bits(q) == before
    assert before[1][-1] and before[1][-2] != repr(None)  # the strong warning and interval


def test_threads_that_swap_the_kept_context_get_their_own_queries_reports():
    # six threads, more than the cores, start together and alternate between
    # two queries, with a switch interval short enough that they swap the one
    # kept context under each other: every report must be its query's (a key
    # and a context kept in two globals fail this)
    queries = [fast_example_query(), strong_example_query()]
    want = {repr(q): report_bits(q) for q in queries}
    start, got, errors = threading.Barrier(6), [], []

    def work():
        try:
            start.wait(timeout=60.0)
            for q in queries * 50:
                got.append(report_bits(q) == want[repr(q)])
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(got) == 6 * 100 and all(got)


def test_shared_grid_values_are_read_only():
    q = strong_example_query()
    for check in (check_fast_rate_conditions, check_strong_conv_conditions,
                  check_alpha3_conditions):
        check(q)
    g = schedules._context(q)
    for values in (g.ts, g.b, g.b_dot, g.t2, g.lam_dot, g.eps, g.tb, g.plain_cap, g.third_cap):
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
    q = ConditionQuery(4.0, 0.0, t0, p)
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



@pytest.mark.parametrize("beta, t0, params, passed, margin, detail", [
    # 2 d / (beta E) overflows to inf and t0**(d - 1) underflows to 0: the
    # bound is 6e-80, below a_lo = (1 + 1e-12) / b(t0), where b(t0) = 1
    (1e-300, 1e-200, PolyParams(eps_coeff=1e-20), False, -1.000000000001,
     "empty interval: upper bound 6e-80 below lower bound 1"),
    # 2 d / (beta E) underflows to 0 and t0**(d - 1) overflows to inf: the
    # bound is 8e-9, or 2e592, which overflows to inf
    (1e200, 1e10, PolyParams(eps_coeff=1e200, d=40.0), False, -0.9999999920010001,
     "empty interval: upper bound 8e-09 below lower bound 1"),
    (1e200, 1e10, PolyParams(eps_coeff=1e200, d=100.0), True, math.inf, "a in [1, inf]"),
])
def test_eps_decay_speed_decides_an_inf_times_zero_bound_in_logs(beta, t0, params, passed,
                                                                    margin, detail):
    report = check_fast_rate_conditions(ConditionQuery(10.0, beta, t0, params))
    (speed,) = [v for v in report.verdicts if v.condition == "eps_decay_speed"]
    assert (speed.passed, speed.margin, speed.detail) == (passed, margin, detail)
    assert passed or not report.all_pass


def test_an_infinite_coefficient_rules_the_tail():
    # beta**2 overflows in a damping constant: its term is the dominant one
    # however large the others are, and NaN (inf - inf) is dust
    assert schedules._dominant_term(((1e300, 2.0), (math.inf, 0.0))) == (0.0, math.inf)
    assert schedules._dominant_term(((-math.inf, 0.0), (1.0, -1.0))) == (0.0, -math.inf)
    assert schedules._dominant_term(((math.inf, 1.0), (-math.inf, 1.0))) is None


def test_constant_lambda_adds_no_damping_term():
    # 9 b_coeff overflows, and a term 9 b_coeff lam_dot of the constant
    # lambda's zero lam_dot would be inf * 0 = NaN at exponent n - 1 = 1,
    # which would sum into 18 beta's term there and hide the t^3 tail
    query = ConditionQuery(10.0, 1e-300, 1.4, PolyParams(b_coeff=1e308, n=2.0))
    (damping,) = [v for v in check_strong_conv_conditions(query).verdicts
                  if v.condition == "damping_balance"]
    assert damping.detail.endswith("tail: dominant term -1.8e+09 * t^3")


# each query has a schedule of its own b_coeff, which no domain check reads
@pytest.mark.parametrize("alpha, beta, t0, b_coeff", [
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
])
def test_condition_query_rejects_out_of_domain_fields(alpha, beta, t0, b_coeff):
    with pytest.raises(ParameterDomainError):
        check_fast_rate_conditions(ConditionQuery(alpha, beta, t0, PolyParams(b_coeff=b_coeff)))


def test_condition_query_accepts_its_domain_edges():
    ConditionQuery(10.0, 0.0, 1.4, PolyParams())
    ConditionQuery(10.0, 1.0, 1.4, PolyParams())


# ------------------------------------------------------------- SystemConfig


def make_config(**over):
    obj = abs_plus_quad()
    kw = dict(
        objective=obj,
        schedule=PolyParams(),
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
    # a config checks itself at construction
    for over in (dict(alpha=-1.0), dict(beta=-0.1), dict(horizon=1.0), dict(t0=0.0),
                 dict(lambda_floor=0.0)):
        with pytest.raises(ValidationError):
            make_config(**over)


@pytest.mark.parametrize("over", [dict(alpha=10 ** 400), dict(beta="0"), dict(t0=None),
                                  dict(horizon=10 ** 400), dict(lambda_floor=[1e-8])],
                         ids=lambda over: next(iter(over)))
def test_system_config_rejects_what_no_double_holds(over):
    # a validation error, exit 1, not an OverflowError or a TypeError
    with pytest.raises(ValidationError, match=next(iter(over))):
        make_config(**over)


def test_schedule_rejects_what_no_double_holds():
    for bad in (dict(b_coeff=10 ** 400), dict(n="1"), dict(eps_coeff=None), dict(d=10 ** 400)):
        with pytest.raises(ParameterDomainError, match=next(iter(bad))):
            PolyParams(**bad)
    for value in (10 ** 400, "0.5", None):
        with pytest.raises(ParameterDomainError, match="lambda value"):
            LambdaForm("power", value)
    # an int that a double holds is that double
    params = PolyParams(2, 1, np.float64(0.5), 3, LambdaForm("power", 1))
    assert [type(v) for v in (params.b.coef, params.eps.exponent, params.lam.term.exponent)] == [
        float, float, float]
    assert params.b(7.0) == PolyParams(2.0, 1.0, 0.5, 3.0).b(7.0)


def test_system_config_enforces_lambda_floor():
    sched = PolyParams(lam=LambdaForm("constant", 1e-12))
    with pytest.raises(ValidationError):
        make_config(schedule=sched)


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
    with pytest.raises(ValidationError) as info:
        make_config(schedule=params, t0=t0, horizon=horizon)
    assert str(info.value) == message


def test_schedule_callables_are_derived_from_its_parameters():
    params = PolyParams(2.0, 1.5, 0.5, 2.5, LambdaForm("bounded", 0.7))
    twin = pickle.loads(pickle.dumps(params))  # the callables pickle too
    # the callables take no part in equality, hashing or repr
    assert twin == params and hash(twin) == hash(params)
    assert repr(params) == ("PolyParams(b_coeff=2.0, n=1.5, eps_coeff=0.5, d=2.5, "
                            "lam=LambdaForm(kind='bounded', value=0.7))")
    for name in ("b", "b_dot", "lam", "lam_dot", "eps", "eps_dot"):
        assert getattr(twin, name)(7.0) == getattr(params, name)(7.0), name
    assert dataclasses.replace(params, n=0.5).b(7.0) == PolyParams(2.0, 0.5).b(7.0)
    with pytest.raises(TypeError):
        PolyParams(2.0, b=lambda t: t)
    with pytest.raises(ValueError):
        dataclasses.replace(params, b=lambda t: t)


def test_system_config_coerces_points():
    cfg = make_config(x0=3.0, xdot0=-1.0)
    assert cfg.x0.shape == (1,)
    assert cfg.xdot0.shape == (1,)
    with pytest.raises(ParameterDomainError):
        make_config(x0=np.array([1.0, 2.0]))
