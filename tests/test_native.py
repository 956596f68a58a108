"""The compiled DP5 kernels against the Python kernels, bit for bit, and the
cache and fallbacks around them."""

import ast
import ctypes
import dataclasses
import math
import os
import platform
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from proxdyn import csvio, dynamics, native, objectives
from proxdyn import (
    DivergenceError,
    IntegratorSettings,
    LambdaForm,
    ParameterDomainError,
    PolyParams,
    StepSizeError,
    SystemConfig,
    abs_plus_quad,
    box_indicator,
    dist_to_interval,
    integrate,
    l1_norm,
    scaled_shifted_quadratic,
)
from proxdyn.runconfig import PRESETS, build_system, config_from_flat, preset_runs

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import test_dynamics  # noqa: E402
import test_trajectory_pins as pins  # noqa: E402

needs_cc = pytest.mark.skipif(native._compiler() is None, reason="no C compiler on PATH")


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _raised(exc):
    return ("raised", type(exc), str(exc), _bits(getattr(exc, "t_last", math.nan)),
            _bits(getattr(exc, "h", math.nan)))


def outcome(kernel, lane, cfg, settings):
    """What a kernel returns, as bytes, or the type, text, t_last and h of
    what it raises."""
    args = (dynamics._split(cfg.x0, lane), dynamics._split(dynamics.initial_aux(cfg), lane),
            *dynamics._inputs(cfg.t0, cfg.horizon, settings, cfg))
    try:
        samples, counts, KX, KY = kernel(*args)
    except (DivergenceError, StepSizeError, ZeroDivisionError) as exc:
        return _raised(exc)
    return ("returned", [memoryview(buf).tobytes() for buf in samples], tuple(counts),
            _bits(KX), _bits(KY))


def python_kernel(cfg):
    return dynamics._python_kernel("rk45_adaptive", dynamics._variant(cfg))


def both(cfg, settings):
    """The outcomes of cfg's compiled DP5 kernel and of its Python kernel."""
    kernel, lane = dynamics._variant_kernel("rk45_adaptive", cfg)
    assert isinstance(kernel, native.CompiledKernel), "the C kernel did not build"
    return outcome(kernel, lane, cfg, settings), outcome(python_kernel(cfg), lane, cfg, settings)


@pytest.fixture
def private_cache(monkeypatch, tmp_path):
    """A temporary kernel cache, for a prox source that only a test uses."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))


def pin_system(run):
    preset, label, overrides = pins.RUNS[run]
    (flat,) = [f for f in preset_runs(preset) if f["label"] == label]
    flat.update(overrides)
    cfg, settings = build_system(config_from_flat(flat))
    # the RK4 pins' configs run on DP5 here: the C kernels are DP5's
    return cfg, dataclasses.replace(settings, method="rk45_adaptive")


@needs_cc
@pytest.mark.parametrize("run", list(pins.RUNS))
def test_compiled_kernel_matches_python_on_the_pinned_configs(run):
    compiled, python = both(*pin_system(run))
    assert compiled[0] == "returned"
    assert compiled == python


def _objectives():
    """Every built-in at each dim it takes of 1, 3 and 8."""
    out = {"abs_plus_quad/1": abs_plus_quad(), "dist_to_interval/1": dist_to_interval()}
    for dim in (1, 3, 8):
        z = np.linspace(-1.0, 0.5, dim).tolist()
        out[f"l1_norm/{dim}"] = l1_norm(dim)
        out[f"box_indicator/{dim}"] = box_indicator(-1.0, 0.5, dim)
        out[f"scaled_shifted_quadratic/{dim}"] = scaled_shifted_quadratic(2.0, z)
    return out


OBJECTIVES = _objectives()


def make_cfg(obj, beta, **kw):
    kw = {"alpha": 10.0, "t0": 1.4, "horizon": 30.0, **kw}
    x0 = np.linspace(-3.0, 2.5, obj.dim)
    return SystemConfig(objective=obj, schedule=kw.pop("schedule", PolyParams(1.0, 1.0, 1.0, 3.0)),
                        beta=beta, x0=x0, xdot0=np.zeros(obj.dim), **kw)


@needs_cc
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_compiled_kernel_matches_python_on_every_builtin(name, beta):
    cfg = make_cfg(OBJECTIVES[name], beta)
    for settings in (IntegratorSettings(), IntegratorSettings(sample_stride=7, rtol=1e-6)):
        compiled, python = both(cfg, settings)
        assert compiled[0] == "returned"
        assert compiled == python
    # t = T: the first stage alone, as the public rhs_* take it
    kernel, lane = dynamics._variant_kernel("rk45_adaptive", cfg)
    args = (dynamics._split(cfg.x0, lane), dynamics._split(cfg.xdot0, lane),
            *dynamics._inputs(5.0, 5.0, IntegratorSettings(), cfg))
    got, want = kernel(*args), python_kernel(cfg)(*args)
    assert [memoryview(a).tobytes() for a in got[0]] == [memoryview(a).tobytes() for a in want[0]]
    assert [_bits(k) for k in got[2:]] == [_bits(k) for k in want[2:]]
    assert got[1] == want[1] == (0, 0, 1)


@needs_cc
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_an_overflowing_power_takes_the_scalar_forms(beta):
    # eps = 0 * t**-400 overflows its power below t = 0.17: there 0 * inf is
    # NaN, and the scalar forms give 0.0, as for every other step
    cfg = make_cfg(abs_plus_quad(), beta, t0=0.1, horizon=2.0,
                   schedule=PolyParams(1.0, 0.0, 0.0, 400.0))
    compiled, python = both(cfg, IntegratorSettings())
    assert compiled[0] == "returned" and compiled[2][0] > 10
    assert compiled == python


def _failures():
    """Configs whose runs raise, each (cfg, settings): the schedule overflow
    cases of test_dynamics, then each error of the stepper."""
    cases = {}
    for name, (method, beta, lam, b_coeff, _) in test_dynamics.OVERFLOW_CASES.items():
        if method == "rk45_adaptive":
            schedule = PolyParams(b_coeff, 400.0, 1.0, 3.0, lam)
            cases[name] = (make_cfg(abs_plus_quad(), beta, horizon=10.0, schedule=schedule),
                           IntegratorSettings())
    runaway = make_cfg(l1_norm(), 0.0, alpha=0.5, t0=1.0, horizon=1e5,
                       schedule=PolyParams(1.0, 0.0, 0.0, 3.0))
    cases["trust region"] = (dataclasses.replace(runaway, xdot0=np.array([1e11])),
                             IntegratorSettings())
    # y = xdot starts at 50 while x stays below 5
    cases["trust region on y"] = (
        dataclasses.replace(make_cfg(l1_norm(2), 0.0, t0=1.0, horizon=1.1),
                            x0=np.zeros(2), xdot0=np.array([0.0, 50.0])),
        IntegratorSettings(divergence_threshold=20.0))
    cases["budget"] = (make_cfg(l1_norm(3), 1.0), IntegratorSettings(max_steps=10))
    cases["collapse"] = (make_cfg(abs_plus_quad(), 1.0), IntegratorSettings(max_step=1e-14))
    t0 = 1.1719142372802612e+16
    cases["stuck"] = (make_cfg(abs_plus_quad(), 1.0, t0=t0, horizon=t0 * (1.0 + 1e-9),
                               schedule=PolyParams(lam=LambdaForm("power", 1.0))),
                      IntegratorSettings())
    return cases


FAILURES = _failures()


@needs_cc
@pytest.mark.parametrize("case", list(FAILURES))
def test_compiled_kernel_raises_what_python_raises(case):
    with np.errstate(over="ignore"):
        compiled, python = both(*FAILURES[case])
    assert compiled[0] == "raised"
    assert compiled == python


def _custom(source, array_prox=None, **params):
    """l1_norm with the scalar source source and params."""
    base = l1_norm()

    def prx(lam, x):
        return (array_prox or base.prox)(lam, x)

    return dataclasses.replace(base, prox=objectives._scalar_form(prx, source, **params))


@needs_cc
def test_a_division_by_zero_raises_in_c_as_python_does(private_cache):
    # Python's own ZeroDivisionError, with its text, in the prox source and
    # at t = 0 in the damping -(alpha / t)
    cfg = make_cfg(_custom("u / (lam - lam)"), 0.0)
    compiled, python = both(cfg, IntegratorSettings())
    assert compiled == python
    assert compiled[:2] == ("raised", ZeroDivisionError)
    cfg = make_cfg(abs_plus_quad(), 0.0)
    args = ([1.0], [0.0], *dynamics._inputs(0.0, 0.0, IntegratorSettings(), cfg))
    texts = []
    for kernel in (dynamics._variant_kernel("rk45_adaptive", cfg)[0], python_kernel(cfg)):
        with pytest.raises(ZeroDivisionError) as exc:
            kernel(*args)
        texts.append(str(exc.value))
    assert texts[0] == texts[1] == compiled[2]


@needs_cc
def test_an_int_horizon_runs_in_c():
    # the kernels take T as a double, as every number
    cfg = make_cfg(abs_plus_quad(), 1.0, horizon=30)
    assert type(cfg.horizon) is int
    compiled, python = both(cfg, IntegratorSettings())
    assert compiled[0] == "returned"
    assert compiled == python


@needs_cc
def test_int_prox_parameters_run_in_c_as_doubles(private_cache):
    # the ints are doubles on both kernels, where c * k = 2**1200 in
    # u * (c * k) is inf, not Python's exact int, and the first step diverges
    cfg = make_cfg(_custom("u * (c * k)", c=2 ** 600, k=2 ** 600), 0.0)
    params = dynamics._inputs(1.4, 30.0, IntegratorSettings(), cfg)[2]
    assert params == (2.0 ** 600, 2.0 ** 600)
    compiled, python = both(cfg, IntegratorSettings())
    assert compiled == python
    assert compiled[:2] == ("raised", DivergenceError)


SSQ_SOURCE = "(u + lam * c * z[i]) / (1.0 + lam * c)"


def _ssq(**params):
    return _custom(SSQ_SOURCE, scaled_shifted_quadratic(2.0, 1.0).prox, **params)


def test_prox_parameters_become_doubles_before_either_kernel_runs(private_cache):
    # a parameter that the source subscripts is a list of at least dim
    # doubles, any other a double; the rest raise before a kernel runs
    for params in ({"c": np.float64(2.0), "z": [1.0]}, {"c": 2.0, "z": np.array([1.0])},
                   {"c": 2, "z": [1]}, {"c": 2.0, "z": (np.float64(1.0), 5.0)}):
        cfg = make_cfg(_ssq(**params), 1.0)
        values = dynamics._inputs(1.4, 30.0, IntegratorSettings(), cfg)[2]
        assert values[0] == 2.0 and values[1][0] == 1.0
        assert type(values[0]) is float and type(values[1]) is list
        assert {type(v) for v in values[1]} == {float}
    for params in ({"c": 2.0, "z": []}, {"c": 2.0, "z": 1.0}, {"c": "2", "z": [1.0]},
                   {"c": [2.0], "z": [1.0]}, {"c": 10 ** 400, "z": [1.0]},
                   {"c": 2.0, "z": ["1"]}):
        with pytest.raises(ParameterDomainError, match="prox parameter"):
            integrate(make_cfg(_ssq(**params), 1.0))
    a, b = (integrate(make_cfg(obj, 1.0)) for obj in (_ssq(c=2.0, z=[1.0]),
                                                      _ssq(c=np.float64(2.0), z=np.array([1]))))
    assert a.xs.tobytes() == b.xs.tobytes() and a.stats == b.stats


def _typed():
    """Runs whose numbers are not all Python floats, each (cfg, settings)."""
    return {
        "int horizon": (make_cfg(abs_plus_quad(), 1.0, horizon=30), IntegratorSettings()),
        "int max_step": (make_cfg(abs_plus_quad(), 1.0), IntegratorSettings(max_step=1)),
        "numpy sample_stride": (make_cfg(l1_norm(3), 0.0),
                                IntegratorSettings(sample_stride=np.int64(7))),
        "numpy alpha": (make_cfg(abs_plus_quad(), 0.0, alpha=np.float64(10.0)),
                        IntegratorSettings()),
        "int prox parameters": (make_cfg(_ssq(c=2, z=[1]), 1.0), IntegratorSettings()),
        "numpy prox parameters": (make_cfg(_ssq(c=np.float64(2.0), z=np.array([1.0])), 1.0),
                                  IntegratorSettings()),
        "zero division": (make_cfg(_custom("u / (lam - lam)"), 0.0), IntegratorSettings()),
    }


TYPED = _typed()


@needs_cc
@pytest.mark.parametrize("case", list(TYPED))
def test_no_path_leads_back_to_python(case, private_cache, monkeypatch):
    # with its compiled kernel built, a run needs no Python kernel: integrate
    # gives what the Python kernel gave on the same inputs
    cfg, settings = TYPED[case]
    kernel, lane = dynamics._variant_kernel("rk45_adaptive", cfg)
    assert isinstance(kernel, native.CompiledKernel)
    want = outcome(python_kernel(cfg), lane, cfg, settings)

    def no_python_kernel(*args):
        raise AssertionError("a run asked for its Python kernel")

    monkeypatch.setattr(dynamics, "_python_kernel", no_python_kernel)
    try:
        traj = integrate(cfg, settings)
    except ZeroDivisionError as exc:
        assert _raised(exc) == want
    else:
        samples = [a.tobytes() for a in (traj.ts, traj.xs, traj.auxs, traj.xdots)]
        stats = (traj.stats.accepted, traj.stats.rejected, traj.stats.nfev)
        assert ("returned", samples, stats) == want[:3]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_numpy_scalars_in_the_schedule_integrate_like_floats(compiled, request):
    # numpy's ** gives inf where Python's raises OverflowError: as doubles,
    # eps = 0 * t**-400 takes the scalar forms below t = 0.17, as with floats
    if not compiled:
        request.getfixturevalue("python_kernels")
    elif native._compiler() is None:
        pytest.skip("no C compiler on PATH")
    runs = [integrate(make_cfg(abs_plus_quad(), 0.0, t0=0.1, horizon=2.0,
                               schedule=PolyParams(1.0, 0.0, E, d)))
            for E, d in ((0.0, 400.0), (np.float64(0.0), np.float64(400.0)))]
    kernel, _ = dynamics._variant_kernel("rk45_adaptive", runs[0].cfg)
    assert isinstance(kernel, native.CompiledKernel) == compiled
    a, b = ([r.ts.tobytes(), r.xs.tobytes(), r.auxs.tobytes(), r.xdots.tobytes()] for r in runs)
    assert a == b and runs[0].stats == runs[1].stats and runs[0].stats.accepted > 10


@pytest.mark.parametrize("source", [
    "float(u)", "u ** 2.0", "u * 2", "u if u else lam", "u and lam", "-u if not u else u",
    "max([u, lam])", "max(u, lam, key=abs)", "u[i]", "z[0]", "u + i", "h", "math.fabs(u)",
    "u if lam < u is not None else lam", "abs(u, lam)", "min(u)", "+u", "u % lam", "1e999 * u",
])
def test_translator_refuses_what_it_does_not_know(source):
    # the prox source is checked alone, then translated as deriv reads it
    with pytest.raises(native._Refused):
        names = native._prox_params(source, ("z",))
        prox = dynamics._prox_src(dynamics._Variant(source, ("z",)), "x", "l")
        native._Translator({"x": "x", "l": "l"},
                           frozenset(f"prox_{n}" for n, array in names if array)).expr(
            ast.parse(prox, mode="eval").body)


@pytest.mark.parametrize("source", [
    "if x:\n    g = x",
    "while x > 0.0:\n    g = x\nelse:\n    g = x",
    "while x > 0.0:\n    break",
    "raise ValueError(f'{x}')",
    "g = x ** 2.0",
    "g = x ** x if x > 0.0 else 5.0",
    "g = x ** -0.2 if x >= 0.0 else 5.0",
    "n = 0\nn = x",
    "n = 0\nn += 1.0",
    "g = x % x",
    "g = power(x, 2.0)",
    "for i in range(3):\n    g = x",
    "for j in lanes:\n    g = x",
    "try:\n    g = x ** 2.0\nexcept ZeroDivisionError:\n    g = power(x, 2.0)",
    "try:\n    g = x ** 2.0\nexcept (OverflowError, ValueError):\n    g = power(x, 2.0)",
    "try:\n    g = x ** 2.0\nexcept OverflowError:\n    k = power(x, 2.0)",
    "try:\n    g = x ** 2.0\nexcept OverflowError:\n    g = x\nexcept ValueError:\n    g = x",
    "for i in lanes:\n    A = []\n    A.append(x)",
    "g = x\ng, k = x, g",
    "x = 2.0",
    "A = []\nA.append(x)",
    "A = []\nfor i in lanes:\n    A.append(x)\n    A.append(x)",
    "B = []",
    "g = X[i]",
])
def test_translator_refuses_statements_it_does_not_know(source):
    # among them an if on a float, while with else, break, the raise of
    # another exception, ** outside the stage constants' try on a base that
    # may not be positive or to a power that is not a constant, a float in an
    # int, % on floats, a loop over anything but the lanes or lists and an
    # except of anything but OverflowError
    with pytest.raises(native._Refused):
        native._Translator({"x"}, frozenset({"X"}), frozenset({"A"})).block(ast.parse(source).body)


def test_translator_writes_the_lanes_and_the_overflow_branch():
    src = ("A, B = [], []\nfor i in lanes:\n    x, y = X[i], 2.0\n    A.append(x * y)\n"
           "    B.append(y)\ntry:\n    b = c ** x\nexcept OverflowError:\n    b = power(c, x)")
    translate = native._Translator({"c"}, frozenset({"X"}), frozenset({"A", "B"}))
    assert translate.block(ast.parse(src).body) == [
        "for (i = 0; i < m; i++) {", "    x = X[i];", "    y = 2.0;", "    A[i] = (x * y);",
        "    B[i] = y;", "}", "over = 0;", "b = power(c, x, &over);", "if (over) {",
        "    b = power(c, x, &over);", "}"]
    assert translate.locals == ["x", "y", "b"]


def test_translator_writes_the_loop_the_branches_and_the_raises():
    src = ("g = x\nn = 0\nwhile g < 1.0:\n    n += 1\n    if n % 2 == 0 or not g > 0.0:\n"
           "        g *= 2.0\n    else:\n        raise StepSizeError(f'g = {g:.3g}', g, x)")
    translate = native._Translator({"x"})
    assert translate.block(ast.parse(src).body) == [
        "g = x;", "n = 0;", "while (g < 1.0) {", "    n = (n + 1);",
        "    if (((n % 2) == 0) || (!(g > 0.0))) {", "        g = (g * 2.0);", "    } else {",
        "        if (zdiv)", "            return 1;", "        o->at[0] = g;",
        "        o->at[1] = x;", "        return 2;", "    }", "    if (zdiv)", "        return 1;",
        "}"]
    assert translate.locals == ["g", "n"]
    assert translate.kinds == {"x": float, "g": float, "n": int}
    # failure k raises line k, the lambda of its exception over o->at
    assert translate.raises == ["lambda: 1.0 / 0.0",
                                "lambda g, x: StepSizeError(f'g = {g:.3g}', g, x)"]
    exc = eval(translate.raises[1], dict(native._EXCEPTIONS))(0.5, 2.0)
    assert (type(exc), str(exc), exc.t_last, exc.h) == (StepSizeError, "g = 0.5", 0.5, 2.0)


# each a change of dynamics._DP5_TEMPLATE: one stage combination, then
# numbers of the loop around the step
MUTANTS = {
    "stage": ("x1 = x + h * ($a10 * kx0)", "x1 = x + h * (($a10 * 1.01) * kx0)"),
    "safety factor": ("factor = 0.9 * err_norm", "factor = 0.91 * err_norm"),
    "growth cap": ("factor if factor < 5.0 else 5.0", "factor if factor < 4.0 else 4.0"),
    "error exponent": ("err_norm ** -0.2", "err_norm ** -0.21"),
    "accept test": ("if err_norm <= 1.0:", "if err_norm <= 0.9:"),
    "first step": ("(T - t) / 100.0", "(T - t) / 90.0"),
}


@needs_cc
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_both_kernels_step_by_one_text(mutant, monkeypatch, private_cache):
    # a change to the Python kernel's text, in a stage or in the loop around
    # the step, moves the compiled kernel by the same bits: the whole loop is
    # that text, translated
    cfg, settings = make_cfg(l1_norm(3), 1.0), IntegratorSettings()
    (name, template), (old, new) = dynamics._TEMPLATES["rk45_adaptive"], MUTANTS[mutant]
    assert template.count(old) == 1
    dynamics._kernel.cache_clear()
    dynamics._python_kernel.cache_clear()
    try:
        before = both(cfg, settings)
        monkeypatch.setitem(dynamics._TEMPLATES, "rk45_adaptive",
                            (name, template.replace(old, new)))
        dynamics._kernel.cache_clear()
        dynamics._python_kernel.cache_clear()
        after = both(cfg, settings)
    finally:
        dynamics._kernel.cache_clear()
        dynamics._python_kernel.cache_clear()
    assert before[0] == before[1] and before[0][0] == "returned"
    assert after[0] == after[1] and after[0][0] == "returned"
    assert after[0] != before[0] and after[1] != before[1]


def _builtin_source(name) -> str:
    """The C source of a built-in objective's kernel, or the CSV writer's."""
    if name == "csv_writer":
        return csvio._SOURCE
    obj = objectives.make_objective(name)
    return native.c_source(dynamics._Variant(obj.prox.coordinate_source,
                                             tuple(obj.prox.coordinate_params)))


@needs_cc
@pytest.mark.parametrize("name", [*objectives.BUILTIN_NAMES, "csv_writer"])
def test_every_builtin_source_compiles_without_a_warning(name, tmp_path):
    src = tmp_path / "kernel.c"
    src.write_text(_builtin_source(name))
    res = subprocess.run([native._compiler(), "-O0", "-c", "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "kernel.o"), str(src)],
                         stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _abs_plus_quad_c_source():
    v = dynamics._Variant(abs_plus_quad().prox.coordinate_source, ())
    return native.c_source(v)


def test_every_source_refuses_wide_double_evaluation():
    for src in (_abs_plus_quad_c_source(), csvio._SOURCE):
        guard = src.index("#if FLT_EVAL_METHOD != 0\n#error ")
        assert src.index("#include <float.h>") < guard < src.index("static ")


@needs_cc
@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="needs x86-64's x87")
def test_x87_double_evaluation_fails_the_build(tmp_path):
    # gcc and clang on x86-64 take -mfpmath=387, and then FLT_EVAL_METHOD is 2
    command = [native._compiler(), *native._FLAGS]
    for src in (_abs_plus_quad_c_source(), csvio._SOURCE):
        with pytest.raises(native._BuildFailed, match="FLT_EVAL_METHOD|IEEE binary64"):
            native._build(str(tmp_path), "x87.so", src, [*command, "-mfpmath=387"])
        assert native._build(str(tmp_path), "sse.so", src, command)
        assert sorted(os.listdir(tmp_path)) == ["sse.so"]
        os.remove(tmp_path / "sse.so")


def test_translator_keeps_python_order_and_choices():
    def c(src):
        return native._Translator({"a": "a", "b": "b", "c": "c"}).expr(
            ast.parse(src, mode="eval").body)

    assert c("a - b - c") == "((a - b) - c)"
    assert c("a - (b - c)") == "(a - (b - c))"
    assert c("a / b * c") == "(DIV(a, b) * c)"
    assert c("-a * b") == "((-a) * b)"
    assert c("max(a, b, c)") == "pymax(pymax(a, b), c)"
    assert c("min(max(a, b), c)") == "pymin(pymax(a, b), c)"
    assert c("a if a < b <= c else -0.0") == "(((a < b) && (b <= c)) ? a : (-0.0))"
    assert c("abs(a) + 0.1") == "(fabs(a) + 0.1)"


def test_every_builtin_variant_translates():
    # for each built-in, the C source of its DP5 kernel, which every beta runs
    for obj in map(objectives.make_objective, objectives.BUILTIN_NAMES):
        v = dynamics._Variant(obj.prox.coordinate_source, tuple(obj.prox.coordinate_params))
        src = native.c_source(v)
        assert "$" not in src and "proxdyn_dp5" in src


def test_no_compiler_keeps_the_python_kernels(python_kernels):
    cfg = make_cfg(abs_plus_quad(), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and says nothing
        kernel, _ = dynamics._variant_kernel("rk45_adaptive", cfg)
    assert kernel.__code__.co_filename.startswith("<proxdyn dp5 float ")


@needs_cc
def test_a_failed_build_keeps_the_python_kernel(monkeypatch, tmp_path):
    # a compiler that exits 1 builds nothing; the variant warns once, naming
    # its prox source, and integrate runs the Python kernel
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_compiler", lambda: shutil.which("false"))
    dynamics._kernel.cache_clear()
    try:
        cfg = make_cfg(abs_plus_quad(), 0.0)
        with pytest.warns(UserWarning) as caught:
            kernel, _ = dynamics._variant_kernel("rk45_adaptive", cfg)
        assert [str(w.message) for w in caught] == [
            "proxdyn: the compiled DP5 kernel of the prox source "
            f"{cfg.objective.prox.coordinate_source!r} did not build, so it runs in Python: "
            "exit status 1"]
        assert not isinstance(kernel, native.CompiledKernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert integrate(cfg).stats.accepted > 0
    finally:
        dynamics._kernel.cache_clear()
    assert os.listdir(tmp_path / "proxdyn") == []


@needs_cc
def test_a_failed_build_gives_the_first_error_line_of_the_compiler(tmp_path):
    plain = [native._compiler(), *native._FLAGS]
    with pytest.raises(native._BuildFailed) as exc:
        native._build(str(tmp_path), "bad.so", "int f(void) { return x; }\n", plain)
    # gcc and clang name the function first, then the error
    assert "error" in str(exc.value) and "\n" not in str(exc.value)


@needs_cc
def test_every_preset_run_takes_a_compiled_kernel():
    # a preset run on its Python kernel means that its C kernel did not
    # build; the other tests would pass on it, which gives the same bits
    runs = [(f"{fig}/{flat['label']}", build_system(config_from_flat(flat)))
            for fig in PRESETS for flat in preset_runs(fig)]
    assert len(runs) == 16
    fallen = [name for name, (cfg, settings) in runs if not isinstance(
        dynamics._variant_kernel(settings.method, cfg)[0], native.CompiledKernel)]
    assert fallen == []


@needs_cc
def test_kernels_are_cached_per_machine(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "proxdyn"
    cache.mkdir(mode=0o777)
    os.chmod(cache, 0o777)
    cfg = make_cfg(box_indicator(-1.0, 0.5, 3), 1.0)
    dynamics._kernel.cache_clear()
    try:
        kernel, _ = dynamics._variant_kernel("rk45_adaptive", cfg)
        # one library, named by the SHA-256 of the Python kernel's text, the
        # native module's, the compiler and the platform
        (name,) = os.listdir(cache)
        assert re.fullmatch("[0-9a-f]{64}[.]so", name)
        assert kernel.library == str(cache / name)
        assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
        want = integrate(cfg)
        # a later process loads it, and neither translates nor compiles
        dynamics._kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiled again")

        def no_translator(*args, **kwargs):
            raise AssertionError("translated again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(native, "_Translator", no_translator)
        got = integrate(cfg)
        assert got.xs.tobytes() == want.xs.tobytes()
        assert dynamics._variant_kernel("rk45_adaptive", cfg)[0].library == kernel.library
    finally:
        dynamics._kernel.cache_clear()


@needs_cc
def test_a_home_that_does_not_expand_builds_in_a_private_directory(monkeypatch, tmp_path):
    # with HOME unset and a uid with no passwd entry, ~ stays ~: no directory
    # named ~ appears in the working directory
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)
    monkeypatch.chdir(tmp_path)
    assert native._cache_dir() == native._private_dir()
    assert os.listdir(tmp_path) == []


@needs_cc
def test_compiled_samples_cost_little_more_than_the_arrays_returned():
    # the C buffers grow by doubling, so they end with fewer than 2n rows for
    # n samples, and the last realloc holds at most 1.5 times that; the run
    # trims them to the n rows and returns them, with no copy.  So the peak
    # stays below 4x the bytes returned, the Python kernels' bound
    # (test_dynamics), and tracemalloc, which does not see the C buffers,
    # sees less than the smallest array returned: the run's Python objects
    # take under 4 KB, and its 855 sample times alone 6.8 KB
    cfg = make_cfg(l1_norm(8), 0.0, horizon=40.0)
    kernel, lane = dynamics._variant_kernel("rk45_adaptive", cfg)
    m, w, q, counts, prm, keep = kernel._arguments(
        cfg.x0.tolist(), dynamics.initial_aux(cfg).tolist(),
        *dynamics._inputs(cfg.t0, cfg.horizon, IntegratorSettings(), cfg))
    out = native._Out()
    try:
        assert kernel.run(m, w, q, counts, prm, ctypes.byref(out)) == native._OK
        n, cap = out.n, out.cap
    finally:
        for address in out.buf:
            kernel.free(address)
    integrate(cfg)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        traj = integrate(cfg)
        traced = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    row = 8 * (1 + 3 * m)
    returned = sum(a.nbytes for a in (traj.ts, traj.xs, traj.auxs, traj.xdots))
    assert len(traj) == n > 100 and returned == n * row
    assert cap < 2 * n
    assert traced < traj.ts.nbytes, (traced, returned)
    assert 1.5 * cap * row < 4 * returned, (cap, n)


@needs_cc
def test_an_unusable_cache_builds_in_a_private_directory(monkeypatch, tmp_path):
    # XDG_CACHE_HOME names a file: the process builds in its own temporary
    # directory, deleted at exit
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    dynamics._kernel.cache_clear()
    try:
        kernel, _ = dynamics._variant_kernel("rk45_adaptive", make_cfg(abs_plus_quad(), 0.0))
        assert isinstance(kernel, native.CompiledKernel)
        assert os.path.dirname(kernel.library) == native._private_dir()
        assert stat.S_IMODE(os.stat(native._private_dir()).st_mode) == 0o700
    finally:
        dynamics._kernel.cache_clear()
