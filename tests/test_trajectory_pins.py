"""Integrated trajectories of a set of preset configurations, pinned bit for bit.

trajectory_pins.json holds, for each run, the sha256 of the bytes of the
sampled ts, xs, auxs and xdots arrays, in that order, and the step counts
(accepted, rejected, nfev).  The runs cover beta = 0 and beta > 0, the
constant, power and bounded lambda forms, both preset objectives and both
steppers.  A second test checks the pins in a fresh interpreter with every
numpy SIMD target beyond numpy's baseline disabled.  After an intended
change of the trajectories, regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_trajectory_pins.py
"""

import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import proxdyn
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
    # dim 8 and dim 5: the error norm sums more than 8 squares, past the
    # length where numpy's pairwise reduction would change the order
    "fig1/n0/l1_8": ("fig1", "n0", {"objective.name": "l1_norm",
                                    "objective.dim": "8",
                                    "system.x0": "-3,-2,-1,-0.5,0.5,1,2,3",
                                    "system.xdot0": "0,0,0,0,0,0,0,0",
                                    "system.horizon": "30"}),
    "fig4/tikhonov/box_5": ("fig4", "tikhonov", {"objective.name": "box_indicator",
                                                 "objective.dim": "5",
                                                 "objective.lo": "-1",
                                                 "objective.hi": "1",
                                                 "system.x0": "-3,-1.5,0,1.5,3",
                                                 "system.xdot0": "0,0,0,0,0"}),
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


def _simd_targets():
    """The dispatch targets of this numpy build beyond its baseline that this
    machine supports, or None when numpy does not expose them."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        names = ("__cpu_baseline__", "__cpu_dispatch__", "__cpu_features__")
        if all(hasattr(umath, n) for n in names):
            baseline, dispatch, features = (getattr(umath, n) for n in names)
            return [f for f in dispatch if f not in baseline and features.get(f)]
    return None


# run in a fresh interpreter with numpy's SIMD targets disabled; it checks
# first that numpy took the setting, since numpy ignores names it does not know
_DISPATCH_SCRIPT = """
import json, os, sys
import test_trajectory_pins as pins
kept = set(pins._simd_targets()) & set(os.environ["NPY_DISABLE_CPU_FEATURES"].split())
if kept:
    sys.exit(f"numpy kept the targets {sorted(kept)}")
print(json.dumps({run: pins.trajectory_record(run) for run in pins.RUNS}))
"""


def test_trajectories_do_not_depend_on_numpy_simd_dispatch():
    # the integrator takes its powers from Python's **, not from numpy's SIMD
    # pow, so the targets numpy dispatches to must not move a bit of a trajectory
    targets = _simd_targets()
    if targets is None:
        pytest.skip("numpy exposes no SIMD dispatch targets")
    if not targets:
        pytest.skip("numpy dispatches to no target beyond its baseline here")
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxdyn.__file__)))
    path = [src, str(EXPECTED.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    res = subprocess.run([sys.executable, "-c", _DISPATCH_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == json.loads(EXPECTED.read_text())


if __name__ == "__main__":
    pins = {run: trajectory_record(run) for run in RUNS}
    EXPECTED.write_text(json.dumps(pins, indent=1) + "\n")
