"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import speed
import tracing
import workloads as wl
from proxdyn import csvio, dynamics, runconfig

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY_PRESETS = ["fig2/l0", "fig2/l1", "fig5/no_tikhonov"]  # beta = 0 and beta > 0


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny_presets(tmp_path):
    return run.PresetWorkload("presets_rest", TINY_PRESETS, wl.load_references(),
                              str(tmp_path))


def tiny_scan(count=24):
    workload = run.ScanWorkload(wl.DEFAULT_SEED, wl.load_references())
    workload.ops = workload.ops[:count]
    return workload


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_named_metric_with_its_unit(tmp_path, capsys, trace):
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec()[kind]}
    spans = tmp_path / "spans.jsonl"
    for workload in (tiny_presets(tmp_path), tiny_scan()):
        result = run.run_benchmark(workload, seconds=0, trace=bool(trace), setup_s=0.5,
                                   spans_path=str(spans))
        json.dumps(result, allow_nan=False)
        if trace:  # one traced pass, written as one line of spans and counts
            (line,) = spans.read_text().splitlines()
            assert json.loads(line)["spans"]
        else:
            assert not spans.exists()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        table = capsys.readouterr().out.splitlines()
        for name, unit in list(want.items()) + [("fail_ratio", f"(0/{result['attempted']})")]:
            assert any(line.split()[0] == name and line.endswith(unit) for line in table), name


def test_cli_prints_json_last_and_fails_without_the_package(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "conditions_scan",
           "--seed", "3", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] and result["attempted"] == len(wl.scan_draws(3))
    assert "fail_ratio" in done.stdout

    # a directory holding only the benchmark, without the package's sources
    bare = tmp_path / "bare"
    shutil.copytree(os.path.join(ROOT, "perfbench"), bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_corrupted_csv_is_counted_not_raised(tmp_path, monkeypatch):
    write = csvio.write_csv

    def corrupt(path, table):
        write(path, dataclasses.replace(table, ts=table.ts * (1.0 + 1e-15)))

    monkeypatch.setattr(csvio, "write_csv", corrupt)
    with speed.SpeedProbe() as probe:
        result = run.run_pass(tiny_presets(tmp_path), probe)
    assert (result.attempted, result.failed) == (len(TINY_PRESETS), len(TINY_PRESETS))


def test_verdict_drift_is_counted_not_raised():
    workload = tiny_scan()
    workload.ref_rows = [json.loads(json.dumps(rows)) for rows in workload.ref_rows]
    drifted = next(i for i, rows in enumerate(workload.ref_rows) if isinstance(rows, list))
    workload.ref_rows[drifted][0][0][2] += 1e-12
    with speed.SpeedProbe() as probe:
        result = run.run_pass(workload, probe)
    assert (result.attempted, result.failed) == (len(workload.ops), 1)


def test_wrappers_change_no_output_and_are_removed(tmp_path):
    bindings = {name: [tracing._get(space, key) for space, key in spaces]
                for name, spaces in tracing.SPANS.items()}
    for op in wl.preset_ops(TINY_PRESETS):
        plain = wl.run_preset(op, str(tmp_path / "plain"))
        with tracing.install(tracing.Tracer()):
            traced = wl.run_preset(op, str(tmp_path / "traced"))
        a, b = plain.table, traced.table
        assert a.ts.tobytes() == b.ts.tobytes()
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.xdots.tobytes() == b.xdots.tobytes()
        for key in a.scalars:
            assert a.scalars[key].tobytes() == b.scalars[key].tobytes(), key
        assert plain.summary.final == traced.summary.final
    for draw in tiny_scan().ops:
        plain = wl.run_draw(draw)
        with tracing.install(tracing.Tracer()):
            assert wl.run_draw(draw).rows == plain.rows
    assert bindings == {name: [tracing._get(space, key) for space, key in spaces]
                        for name, spaces in tracing.SPANS.items()}
    assert runconfig.integrate is dynamics.integrate


def test_counts_repeat_exactly(tmp_path):
    counts = ("dynamics.accepted", "dynamics.rejected", "dynamics.nfev",
              "objectives.prox.calls", "diagnostics.compute_observables.calls",
              "diagnostics.energy_q.calls", "schedules.check.calls",
              "schedules.suggest_t0.calls")
    workloads = (tiny_presets(tmp_path), tiny_scan())
    with speed.SpeedProbe() as probe:
        first = [run.run_pass(w, probe, tracing.Tracer()).layers for w in workloads]
        again = [run.run_pass(w, probe, tracing.Tracer()).layers for w in workloads]
    for a, b in zip(first, again):
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    presets, scan = first
    assert presets["dynamics.nfev"] > 0 and presets["objectives.prox.calls"] > presets["dynamics.nfev"]
    assert presets["diagnostics.compute_observables.calls"] == 3 * len(TINY_PRESETS)
    assert scan["schedules.suggest_t0.calls"] == len(workloads[1].ops)
    assert scan["schedules.check.calls"] > 3 * len(workloads[1].ops) // 2


def test_speed_probe_keeps_its_own_time_out_of_the_clock():
    with speed.SpeedProbe() as probe:
        wall, start = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall < 0.2:
            pass
        timed, total = probe.clock() - start, time.perf_counter() - wall
    inside = [dt for t, dt in probe.ticks if t >= wall]
    assert len(inside) >= 10
    assert timed == pytest.approx(total - sum(inside), abs=1e-4)
    assert probe.scale(wall) == pytest.approx(speed.REFERENCE_S * len(inside) / sum(inside))
    assert probe.scale(time.perf_counter()) == pytest.approx(
        speed.REFERENCE_S * speed.WINDOW / sum(dt for _, dt in probe.ticks[-speed.WINDOW:]))
