"""Integrated trajectories of a set of preset configurations, pinned bit for bit.

trajectory_pins.json holds, for each run, the sha256 of the bytes of the
sampled ts, xs, auxs and xdots arrays, in that order, and the step counts
(accepted, rejected, nfev).  The runs cover beta = 0 and beta > 0, the
constant, power and bounded lambda forms, both preset objectives and both
steppers.  After an intended change of the trajectories, regenerate the file
from the repository root with

    PYTHONPATH=src python tests/test_trajectory_pins.py
"""

import hashlib
import json
import pathlib

import pytest

from proxdyn.dynamics import integrate
from proxdyn.runconfig import build_system, config_from_flat, preset_runs

EXPECTED = pathlib.Path(__file__).with_name("trajectory_pins.json")

# run name -> (preset, label, overrides)
RUNS = {
    "fig1/n0": ("fig1", "n0", {}),
    "fig2/l0": ("fig2", "l0", {}),
    "fig2/l1": ("fig2", "l1", {}),
    "fig2/l2": ("fig2", "l2", {}),
    "fig4/tikhonov": ("fig4", "tikhonov", {}),
    "fig5/tikhonov": ("fig5", "tikhonov", {}),
    "fig6/d1_1": ("fig6", "d1_1", {}),
    "fig6/d1_1/rk4": ("fig6", "d1_1", {"system.horizon": "5",
                                       "integrator.method": "rk4_fixed",
                                       "integrator.fixed_step": "0.01"}),
}


def trajectory_record(name: str) -> dict:
    preset, label, overrides = RUNS[name]
    (flat,) = [f for f in preset_runs(preset) if f["label"] == label]
    flat.update(overrides)
    traj = integrate(*build_system(config_from_flat(flat)))
    digest = hashlib.sha256()
    for arr in (traj.ts, traj.xs, traj.auxs, traj.xdots):
        digest.update(arr.tobytes())
    s = traj.stats
    return {"sha256": digest.hexdigest(), "steps": [s.accepted, s.rejected, s.nfev]}


@pytest.mark.parametrize("run", list(RUNS))
def test_trajectory_matches_pinned(run):
    expected = json.loads(EXPECTED.read_text())[run]
    assert trajectory_record(run) == expected


if __name__ == "__main__":
    pins = {run: trajectory_record(run) for run in RUNS}
    EXPECTED.write_text(json.dumps(pins, indent=1) + "\n")
