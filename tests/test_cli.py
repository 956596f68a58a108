"""CLI subcommands and the exit-code contract."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import proxdyn
from proxdyn import cli, csvio, objectives, runconfig
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
    # the columns the sweep hands the writer, kept to build a per-value reference
    written = []
    write_rows = csvio._write_rows

    def record(path, header, columns):
        written.append((header, np.column_stack(columns)))
        write_rows(path, header, columns)

    monkeypatch.setattr(csvio, "_write_rows", record)
    args = ["sweep", "--preset", "fig1", "--param", "alpha", "--values", "3,4.5,6",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    [(header, table)] = written
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
    # b = 1e160 t**2 is finite, but its square in the beta > 0 fold overflows
    code = cli.main(["simulate", "--preset", "fig6", "--set", "schedule.b_coeff=1e160",
                     "--set", "system.horizon=10", "--svg", "off", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite stage" in err and "last good t" in err
    assert "internal error" not in err


def test_import_leaves_out_unused_modules():
    # xml.sax.saxutils pulls in urllib.request (numpy's pathlib has urllib.parse
    # already); only sweep needs a process pool; the CSV writer's power-of-ten
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

    monkeypatch.setattr(cli, "execute_run", boom)
    cfg = write_config(tmp_path, FAST_CONFIG)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
