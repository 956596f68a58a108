"""Full condition reports of every preset configuration, pinned.

preset_reports.json holds, for each preset run and each condition family,
every verdict as [condition, passed, repr(margin), repr(witness_t), detail],
plus repr(feasible_a) and the warnings.  After an intended change of the
checkers, regenerate it from the repository root with

    PYTHONPATH=src python tests/test_preset_reports.py
"""

import json
import pathlib

import pytest

from proxdyn.runconfig import PRESETS, build_system, config_from_flat, preset_runs
from proxdyn.schedules import (check_alpha3_conditions, check_fast_rate_conditions,
                               check_strong_conv_conditions)

EXPECTED = pathlib.Path(__file__).with_name("preset_reports.json")
CHECKERS = {
    "fast": check_fast_rate_conditions,
    "strong": check_strong_conv_conditions,
    "alpha3": check_alpha3_conditions,
}


def report_record(rep) -> dict:
    return {
        "verdicts": [[v.condition, v.passed, repr(v.margin), repr(v.witness_t), v.detail]
                     for v in rep.verdicts],
        "feasible_a": repr(rep.feasible_a),
        "warnings": list(rep.warnings),
    }


def run_reports(flat: dict) -> dict:
    cfg, _ = build_system(config_from_flat(flat))
    query = cfg.query()
    return {setting: report_record(check(query)) for setting, check in CHECKERS.items()}


RUNS = {f"{name}/{flat['label']}": flat for name in PRESETS for flat in preset_runs(name)}


@pytest.mark.parametrize("run", list(RUNS))
def test_preset_reports_match_pinned(run):
    expected = json.loads(EXPECTED.read_text())[run]
    # round trip through json so tuples compare as the stored lists
    assert json.loads(json.dumps(run_reports(RUNS[run]))) == expected


if __name__ == "__main__":
    reports = {run: run_reports(flat) for run, flat in RUNS.items()}
    EXPECTED.write_text(json.dumps(reports, indent=1) + "\n")
