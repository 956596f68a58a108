"""CLI subcommands and the exit-code contract."""

import dataclasses

import numpy as np
import pytest

from proxdyn import cli, objectives, runconfig
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


def test_check_alpha3_example(tmp_path):
    cfg = write_config(tmp_path, ALPHA3_CONFIG)
    assert cli.main(["check", "--config", cfg, "--setting", "alpha3"]) == 0


def test_stationary_start_gives_constant_rows(tmp_path):
    # x0 = x*: every CSV row repeats the stationary state
    cfg = write_config(tmp_path, FAST_CONFIG.replace("system.x0 = 10", "system.x0 = 0"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--svg", "off"]) == 0
    table = read_csv(out / "demo" / "trajectory.csv")
    assert np.all(table.xs == 0.0)
    assert np.all(table.xdots == 0.0)


def test_sweep_writes_runs_and_combined(tmp_path):
    args = ["sweep", "--preset", "fig1", "--param", "d", "--values", "2.5,3.5",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert (tmp_path / "d_2_5" / "trajectory.csv").exists()
    assert (tmp_path / "d_3_5" / "trajectory.csv").exists()
    combined = (tmp_path / "sweep_d.csv").read_text().splitlines()
    assert combined[0].startswith("d,t,moreau_gap")
    values = {line.split(",")[0] for line in combined[1:]}
    assert values == {"2.5", "3.5"}
    assert (tmp_path / "sweep_d_summary.txt").exists()


def test_sweep_single_value_matches_simulate(tmp_path):
    args = ["sweep", "--preset", "fig1", "--param", "n", "--values", "0",
            "--set", "system.horizon=5", "--svg", "off", "--out", str(tmp_path / "s")]
    assert cli.main(args) == 0
    sim = ["simulate", "--preset", "fig1", "--set", "system.horizon=5",
           "--set", "schedule.n=0", "--set", "label=n_0_0", "--svg", "off",
           "--out", str(tmp_path / "m")]
    assert cli.main(sim) == 0
    a = read_csv(tmp_path / "s" / "n_0_0" / "trajectory.csv")
    b = read_csv(tmp_path / "m" / "n_0_0" / "trajectory.csv")
    assert a.ts.tobytes() == b.ts.tobytes()
    assert a.xs.tobytes() == b.xs.tobytes()


def test_sweep_fail_fast_runs_nothing(tmp_path):
    # second value is invalid (d <= 0), so no run directory may appear
    args = ["sweep", "--preset", "fig1", "--param", "d", "--values", "3,-1",
            "--set", "system.horizon=5", "--out", str(tmp_path / "x")]
    assert cli.main(args) == 1
    assert not (tmp_path / "x").exists()


def test_bad_energy_index_fails_before_integrating(tmp_path, monkeypatch, capsys):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate must not run")

    monkeypatch.setattr(runconfig, "integrate", no_integration)
    bad = ["--preset", "fig1", "--set", "diagnostics.energy_q=20"]
    sim = ["simulate", *bad, "--out", str(tmp_path / "s")]
    swp = ["sweep", *bad, "--param", "d", "--values", "2.5,3", "--out", str(tmp_path / "w")]
    for args in (sim, swp):
        assert cli.main(args) == 1
        assert "q must lie in [2, alpha - 1]" in capsys.readouterr().err
    assert not any((tmp_path / "s").iterdir())
    assert not (tmp_path / "w").exists()


def test_bad_descent_a_fails_before_integrating(tmp_path, monkeypatch, capsys):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate must not run")

    monkeypatch.setattr(runconfig, "integrate", no_integration)
    # a < 1, then b(t0) a <= 1 with b(t0) = 1
    for a, message in (("0.5", "a must be >= 1"), ("1", "need b(t0) > 1/a")):
        for cmd in (["simulate"], ["sweep", "--param", "d", "--values", "2.5,3"]):
            args = [*cmd, "--preset", "fig1", "--set", f"diagnostics.descent_a={a}",
                    "--out", str(tmp_path / cmd[0])]
            assert cli.main(args) == 1
            assert message in capsys.readouterr().err
    assert not any((tmp_path / "simulate").iterdir())
    assert not (tmp_path / "sweep").exists()


def test_sweep_l_requires_exponent_form(tmp_path):
    args = ["sweep", "--preset", "fig1", "--param", "l", "--values", "0,1",
            "--out", str(tmp_path)]
    assert cli.main(args) == 1


def test_prox_selftest_passes(capsys):
    assert cli.main(["prox-selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 10


def test_exit_codes_for_bad_usage(tmp_path, capsys):
    assert cli.main(["bogus"]) == 1
    assert cli.main(["simulate"]) == 1  # neither --config nor --preset
    assert cli.main(["simulate", "--preset", "fig1", "--config", "x"]) == 1
    assert cli.main(["simulate", "--preset", "fig9"]) == 1
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg = write_config(tmp_path, FAST_CONFIG + "nope.key = 3\n")
    assert cli.main(["simulate", "--config", cfg]) == 1
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
