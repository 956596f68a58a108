"""Flat config parsing, presets and run execution."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from proxdyn import runconfig
from proxdyn.cli import main
from proxdyn.csvio import read_csv
from proxdyn.dynamics import IntegratorSettings
from proxdyn.errors import ParameterDomainError, ValidationError
from proxdyn.runconfig import (PRESETS, RunSummary, build_system, config_from_flat,
                               execute_run, parse_config_text, parse_overrides, preset_runs)
from proxdyn.schedules import PolyParams, SystemConfig

MINIMAL = {
    "system.alpha": "10",
    "system.t0": "1.4",
    "system.horizon": "14",
    "system.x0": "10",
}


def test_parse_config_text_basics():
    text = """
    # a comment line
    label = demo
    system.alpha = 10   # trailing comment
    system.x0 = 1,2,3
    """
    flat = parse_config_text(text)
    assert flat == {"label": "demo", "system.alpha": "10", "system.x0": "1,2,3"}


@pytest.mark.parametrize("bad", ["just words", "= 3", "key =", "a = 1\na = 2"])
def test_parse_config_text_rejects(bad):
    with pytest.raises(ValidationError):
        parse_config_text(bad)


def test_parse_overrides():
    assert parse_overrides(["a.b=1", "c = x"]) == {"a.b": "1", "c": "x"}
    with pytest.raises(ValidationError):
        parse_overrides(["no-equals"])


def test_config_from_flat_types():
    flat = dict(MINIMAL)
    flat.update({"label": "demo", "system.x0": "1,2", "objective.name": "l1_norm",
                 "objective.dim": "2", "schedule.n": "1.5",
                 "integrator.sample_stride": "4"})
    rc = config_from_flat(flat)
    assert rc.label == "demo"
    assert rc.x0 == (1.0, 2.0)
    assert rc.xdot0 == (0.0, 0.0)
    assert rc.n == 1.5
    assert rc.sample_stride == 4


def test_config_from_flat_rejects_unknown_and_missing():
    with pytest.raises(ValidationError, match="unknown config keys"):
        config_from_flat(dict(MINIMAL, **{"system.gamma": "1"}))
    with pytest.raises(ValidationError, match="missing required"):
        config_from_flat({"system.alpha": "10"})
    with pytest.raises(ValidationError, match="expected a number"):
        config_from_flat(dict(MINIMAL, **{"system.alpha": "ten"}))
    with pytest.raises(ValidationError, match="expected one of"):
        config_from_flat(dict(MINIMAL, **{"objective.name": "mystery"}))


def test_readme_config_table_lists_every_key():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    rows = re.search(r"^\| key \| meaning \| default \|\n\| --- .*\n((?:\|.*\n)+)",
                     readme.read_text(), re.M).group(1)
    keys = [key for row in rows.splitlines()
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(runconfig._KEYS)


def echoed_config(summary_text: str):
    """The RunConfig read back from a summary's config echo, the block after its title."""
    return config_from_flat(parse_config_text(summary_text.split("\n\n")[1]))


PRESET_RUNS = {f"{name}/{flat['label']}": flat for name in PRESETS for flat in preset_runs(name)}


@pytest.mark.parametrize("run", list(PRESET_RUNS))
def test_preset_config_echo_reads_back(run):
    rc = config_from_flat(PRESET_RUNS[run])
    cfg, _ = build_system(rc)
    # every section but the echo is a placeholder: no integration needed
    summary = RunSummary(label=rc.label, config_echo=runconfig._echo(rc),
                         condition_report=runconfig._CHECKERS[rc.setting](cfg.query()),
                         final={}, rate_fits=[], descent_text="", strong_text="",
                         wall_time=0.0, table=None, notes=rc.notes)
    assert echoed_config(summary.to_text()) == rc


def test_vector_config_echo_is_lossless(tmp_path):
    rc = config_from_flat(dict(MINIMAL, **{"label": "vec", "objective.name": "l1_norm",
                                           "objective.dim": "2",
                                           "system.x0": "1.23456789, 0.1"}))
    execute_run(rc, tmp_path, svg=False)
    assert echoed_config((tmp_path / "vec" / "summary.txt").read_text()) == rc


def test_lambda_floor_has_no_slack():
    # constant lambda = 1 lies a relative 5e-10 below the floor: validation
    # applies the integrator's rule and message
    rc = config_from_flat(dict(MINIMAL, **{"system.lambda_floor": repr(1.0 / (1.0 - 5e-10))}))
    with pytest.raises(ValidationError, match="fell below its floor"):
        build_system(rc)


@pytest.mark.parametrize("key, text, message", [
    ("system.alpha", "ten", "system.alpha: expected a number, got 'ten'"),
    ("integrator.sample_stride", "1.5", "integrator.sample_stride: expected an integer, got '1.5'"),
    ("system.x0", "1,x", "system.x0: expected comma-separated numbers, got '1,x'"),
    ("integrator.method", "euler",
     "integrator.method: expected one of ('rk45_adaptive', 'rk4_fixed'), got 'euler'"),
    ("schedule.lambda_form", "log",
     "schedule.lambda_form: expected one of ('constant', 'power', 'bounded'), got 'log'"),
    ("diagnostics.setting", "slow",
     "diagnostics.setting: expected one of ('fast', 'strong', 'alpha3'), got 'slow'"),
])
def test_config_value_errors(key, text, message):
    with pytest.raises(ValidationError) as exc:
        config_from_flat(dict(MINIMAL, **{key: text}))
    assert str(exc.value) == message


def test_execute_run_rejects_empty_label(tmp_path, monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate must not run")

    monkeypatch.setattr(runconfig, "integrate", no_integration)
    rc = dataclasses.replace(config_from_flat(dict(MINIMAL)), label="")
    with pytest.raises(ValidationError, match="single path component"):
        execute_run(rc, tmp_path)
    assert not any(tmp_path.iterdir())


def test_build_system_validates():
    cfg, settings = build_system(config_from_flat(dict(MINIMAL)))
    assert cfg.alpha == 10.0
    assert settings.method == "rk45_adaptive"
    bad = dict(MINIMAL, **{"system.horizon": "1.0"})  # horizon <= t0
    with pytest.raises(ValidationError):
        build_system(config_from_flat(bad))


def test_built_configs_are_read_only():
    cfg, settings = build_system(config_from_flat(dict(MINIMAL)))
    for obj, name, value in ((cfg, "alpha", 3.0), (cfg, "schedule", PolyParams(n=1.0)),
                             (cfg, "x0", cfg.x0), (settings, "rtol", 1e-3),
                             (settings, "method", "rk4_fixed")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert (cfg.alpha, cfg.schedule, settings.rtol) == (10.0, PolyParams(), 1e-8)
    # a changed copy is a new config, validated as it is built
    assert dataclasses.replace(cfg, alpha=4.0).alpha == 4.0
    with pytest.raises(ValidationError):
        dataclasses.replace(cfg, horizon=1.0)
    with pytest.raises(ValidationError):
        dataclasses.replace(settings, rtol=0.0)


def test_simulate_validates_each_config_once_per_build(tmp_path, monkeypatch):
    # the CLI builds each run twice, once to fail fast and once to run it;
    # neither build_system nor integrate validates a config again
    calls = {SystemConfig: 0, IntegratorSettings: 0}
    for cls in calls:
        def counted(self, _validate=cls.validate, _cls=cls):
            calls[_cls] += 1
            _validate(self)
        monkeypatch.setattr(cls, "validate", counted)
    assert main(["simulate", "--preset", "fig2", "--svg", "off", "--out", str(tmp_path)]) == 0
    assert calls == {SystemConfig: 6, IntegratorSettings: 6}


# preset fidelity: the figure experiments pin these parameters

def test_fast_rate_presets():
    runs = [config_from_flat(flat) for flat in preset_runs("fig1")]
    assert [rc.n for rc in runs] == [0.0, 1.0, 2.0]
    for rc in runs:
        assert rc.objective_name == "abs_plus_quad"
        assert (rc.alpha, rc.t0, rc.horizon) == (10.0, 1.4, 140.0)
        assert rc.x0 == (10.0,) and rc.xdot0 == (0.0,)
        assert (rc.b_coeff, rc.eps_coeff, rc.d) == (1.0, 1.0, 3.0)
        assert rc.rtol == 1e-8

    runs2 = [config_from_flat(flat) for flat in preset_runs("fig2")]
    assert [rc.lambda_value for rc in runs2] == [0.0, 1.0, 2.0]
    assert all(rc.lambda_form == "power" and rc.horizon == 7.0 for rc in runs2)
    assert all(rc.notes for rc in runs2)

    runs3 = [config_from_flat(flat) for flat in preset_runs("fig3")]
    assert [rc.d for rc in runs3] == [2.5, 3.0, 3.5]
    assert all(rc.n == 0.0 for rc in runs3)


def test_tikhonov_presets():
    runs = [config_from_flat(flat) for flat in preset_runs("fig4")]
    assert [rc.eps_coeff for rc in runs] == [0.0, 1.0]
    for rc in runs:
        assert rc.objective_name == "dist_to_interval"
        assert (rc.alpha, rc.beta, rc.n) == (6.0, 1.0, 0.7)
        assert (rc.t0, rc.horizon) == (1.4, 280.0)
        assert rc.lambda_form == "constant" and rc.lambda_value == 1.0
        assert any("assumption" in note for note in rc.notes)

    runs5 = [config_from_flat(flat) for flat in preset_runs("fig5")]
    assert all(rc.lambda_form == "bounded" and rc.lambda_value == 1.0 for rc in runs5)
    assert [rc.eps_coeff for rc in runs5] == [0.0, 1.0]

    runs6 = [config_from_flat(flat) for flat in preset_runs("fig6")]
    assert [rc.d for rc in runs6] == [1.1, 1.5, 1.9]
    assert all(rc.eps_coeff == 1.0 for rc in runs6)


def test_all_presets_build():
    for name in PRESETS:
        for flat in preset_runs(name):
            build_system(config_from_flat(flat))


def test_preset_runs_copies_and_rejects_unknown():
    a = preset_runs("fig1")
    a[0]["system.alpha"] = "99"
    assert preset_runs("fig1")[0]["system.alpha"] == "10"
    with pytest.raises(ValidationError, match="unknown preset"):
        preset_runs("fig9")


def test_execute_run_writes_artifacts(tmp_path):
    flat = dict(preset_runs("fig1")[0])
    flat["system.horizon"] = "10"
    summary = execute_run(config_from_flat(flat), tmp_path)
    run_dir = tmp_path / "n0"
    for fname in ("trajectory.csv", "summary.txt", "rates.svg", "trajectory.svg"):
        assert (run_dir / fname).exists(), fname
    text = summary.to_text()
    for section in ("conditions (fast)", "final state", "rate fits",
                    "energy descent", "strong convergence", "wall time"):
        assert section in text, section
    assert summary.condition_report.all_pass
    # the summary carries the table trajectory.csv holds
    back = read_csv(run_dir / "trajectory.csv")
    assert back.ts.tobytes() == summary.table.ts.tobytes()
    assert back.scalars["psi"].tobytes() == summary.table.scalars["psi"].tobytes()


def test_execute_run_svg_off(tmp_path):
    flat = dict(preset_runs("fig1")[0])
    flat.update({"system.horizon": "5", "label": "plain"})
    execute_run(config_from_flat(flat), tmp_path, svg=False)
    run_dir = tmp_path / "plain"
    assert (run_dir / "trajectory.csv").exists()
    assert not (run_dir / "rates.svg").exists()


def test_summary_flags_assumption_note(tmp_path):
    flat = dict(preset_runs("fig4")[0])
    flat["system.horizon"] = "10"
    summary = execute_run(config_from_flat(flat), tmp_path)
    assert "assumption" in summary.to_text()


def test_build_system_rejects_energy_index_outside_range():
    for q in ("1.5", "20"):
        with pytest.raises(ParameterDomainError, match=r"q must lie in \[2, alpha - 1\]"):
            build_system(config_from_flat(dict(MINIMAL, **{"diagnostics.energy_q": q})))


def test_execute_run_makes_one_prox_pass(tmp_path, monkeypatch):
    # count every prox evaluation, the integrator's included, by wrapping the
    # objective where execute_run builds it
    calls = []
    make = runconfig.make_objective

    def counting_objective(*args, **kwargs):
        obj = make(*args, **kwargs)

        def prox(lam, x):
            calls.append(1)
            return obj.prox(lam, x)

        return dataclasses.replace(obj, prox=prox)

    trajs = []
    integrate = runconfig.integrate

    def recording_integrate(*args):
        trajs.append(integrate(*args))
        return trajs[-1]

    monkeypatch.setattr(runconfig, "make_objective", counting_objective)
    monkeypatch.setattr(runconfig, "integrate", recording_integrate)
    # beta > 0 and eps > 0: the initial auxiliary value and the Tikhonov
    # centers need prox calls of their own
    flat = dict(preset_runs("fig4")[1], **{"system.horizon": "10"})
    execute_run(config_from_flat(flat), tmp_path, svg=False)
    assert len(calls) <= trajs[0].stats.nfev + 3
