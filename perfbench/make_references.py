"""Regenerate the stored references the benchmark checks against.

    python3 perfbench/make_references.py endpoints   # tight solves, minutes
    python3 perfbench/make_references.py verdicts    # condition verdicts, seconds

``endpoints`` integrates the 16 preset runs at rtol 1e-12 / atol 1e-14 and
stores (x, xdot) at the horizon in ``ref_endpoints.json``; they feed
``final_err_digits``. ``verdicts`` stores the condition verdicts of every
preset run and of the default-seed ``conditions_scan`` draws in
``ref_verdicts.json``. Each file records the commit it was generated on.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

TIGHT = {"integrator.rtol": "1e-12", "integrator.atol": "1e-14",
         "integrator.sample_stride": "1000000"}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return out.stdout.strip() + ("+dirty-src" if dirty else "")


def make_endpoints() -> dict:
    from proxdyn.dynamics import integrate
    from proxdyn.runconfig import build_system, config_from_flat
    from workloads import PRESET_NAMES, preset_ops

    runs = {}
    for op in preset_ops(PRESET_NAMES):
        flat = dict(op.flat, **TIGHT)
        cfg, settings = build_system(config_from_flat(flat))
        start = time.perf_counter()
        traj = integrate(cfg, settings)
        wall = time.perf_counter() - start
        print(f"{op.name}: T = {traj.ts[-1]!r}, {traj.stats.accepted} steps, {wall:.1f} s",
              flush=True)
        runs[op.name] = {"x": [float(v) for v in traj.xs[-1]],
                         "xdot": [float(v) for v in traj.xdots[-1]]}
    return {"rtol": 1e-12, "atol": 1e-14, "runs": runs}


def make_verdicts() -> dict:
    from proxdyn.runconfig import build_system
    from workloads import (DEFAULT_SEED, FAMILIES, PRESET_NAMES, checkers, preset_ops,
                           run_draw, scan_draws, verdict_rows)

    presets = {}
    for op in preset_ops(PRESET_NAMES):
        cfg, _ = build_system(op.rc)
        check = checkers()[FAMILIES.index(op.rc.setting)]
        presets[op.name] = verdict_rows(check(cfg.query()))
    scan = [run_draw(draw).rows for draw in scan_draws(DEFAULT_SEED)]
    return {"presets": presets, "scan_seed": DEFAULT_SEED, "scan": scan}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("part", choices=("endpoints", "verdicts"))
    part = parser.parse_args().part
    data = make_endpoints() if part == "endpoints" else make_verdicts()
    data = {"commit": _commit(), **data}
    path = os.path.join(HERE, f"ref_{part}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":") if part == "verdicts" else None,
                  indent=None if part == "verdicts" else 1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
