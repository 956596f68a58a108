"""Command-line front end.

Subcommands: simulate, check, sweep, prox-selftest. Exit codes: 0 success
or all checks passed, 1 validation/usage/condition failure, 2 divergence,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import csvio
from .errors import (DivergenceError, InfeasibleError, InsufficientDataError,
                     ParameterDomainError, StepSizeError, UnsupportedOracleError,
                     ValidationError)
from .runconfig import (build_system, config_from_flat, execute_run, parse_config_file,
                        parse_overrides, preset_runs, run_from_flat, _CHECKERS)
from .selftest import run_prox_selftest

__all__ = ["main"]

_SWEEP_KEYS = {
    "n": "schedule.n",
    "d": "schedule.d",
    "l": "schedule.lambda_value",
    "alpha": "system.alpha",
    "beta": "system.beta",
}


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="proxdyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_flags(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--preset", help="named experiment preset (fig1..fig6)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p_sim = sub.add_parser("simulate", help="integrate the flow and write csv/summary")
    add_source_flags(p_sim)
    p_sim.add_argument("--out", default="runs", help="output directory (default runs)")
    p_sim.add_argument("--svg", choices=("on", "off"), default="on")

    p_chk = sub.add_parser("check", help="evaluate parameter conditions")
    add_source_flags(p_chk)
    p_chk.add_argument("--setting", choices=("fast", "strong", "alpha3"),
                       help="condition family (default: the config's diagnostics.setting)")

    p_swp = sub.add_parser("sweep", help="run one config across a parameter range")
    add_source_flags(p_swp)
    p_swp.add_argument("--out", default="runs", help="output directory (default runs)")
    p_swp.add_argument("--svg", choices=("on", "off"), default="on")
    p_swp.add_argument("--param", required=True, choices=sorted(_SWEEP_KEYS))
    p_swp.add_argument("--values", required=True,
                       help="comma-separated values, e.g. 2.5,3,3.5")

    sub.add_parser("prox-selftest", help="run the prox property battery")
    return parser


def _gather_runs(args) -> list:
    """Resolve --config/--preset/--set into a list of flat run dicts."""
    if args.config and args.preset:
        raise ValidationError("give either --config or --preset, not both")
    if args.config:
        runs = [parse_config_file(args.config)]
    elif args.preset:
        runs = preset_runs(args.preset)
    else:
        raise ValidationError("one of --config or --preset is required")
    overrides = parse_overrides(args.set)
    for flat in runs:
        flat.update(overrides)
    return runs


def cmd_simulate(args) -> int:
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    for flat in _gather_runs(args):
        rc = config_from_flat(flat)
        summary = execute_run(rc, outdir, svg=args.svg == "on")
        status = "pass" if summary.condition_report.all_pass else "FAIL"
        print(f"{rc.label}: wrote {os.path.join(outdir, rc.label)} "
              f"(conditions {status}, {summary.wall_time:.2f} s)")
    return 0


def cmd_check(args) -> int:
    all_ok = True
    for flat in _gather_runs(args):
        rc = config_from_flat(flat)
        cfg, _ = build_system(rc)
        setting = args.setting or rc.setting
        report = _CHECKERS[setting](cfg.query())
        print(f"# {rc.label}")
        print(report.format())
        all_ok = all_ok and report.all_pass
    return 0 if all_ok else 1


def _sweep_configs(args):
    runs = _gather_runs(args)
    base = runs[0]
    key = _SWEEP_KEYS[args.param]
    if args.param == "l" and base.get("schedule.lambda_form", "constant") == "constant":
        raise ValidationError(
            "sweeping l needs schedule.lambda_form = power or bounded")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"--values must be numbers, got {args.values!r}") from None
    if not values:
        raise ValidationError("--values is empty")
    flats = []
    for v in values:
        flat = dict(base)
        flat[key] = repr(v)
        flat["label"] = f"{args.param}_{repr(v).replace('.', '_')}"
        flats.append(flat)
    # fail fast: every swept config must validate before any run starts
    for flat in flats:
        build_system(config_from_flat(flat))
    return values, flats


def _combined_csv(path, param, values, tables):
    """Merge per-run tables onto a shared log-spaced grid, long format."""
    t_lo = max(table.ts[0] for table in tables)
    t_hi = min(table.ts[-1] for table in tables)
    grid = np.geomspace(t_lo, t_hi, 256)
    scalar_names = list(tables[0].scalars)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([param, "t"] + scalar_names)
        for value, table in zip(values, tables):
            cols = [np.interp(grid, table.ts, table.scalars[name])
                    for name in scalar_names]
            for i, t in enumerate(grid):
                row = [value, t] + [col[i] for col in cols]
                writer.writerow("%.17g" % v for v in row)


def cmd_sweep(args) -> int:
    values, flats = _sweep_configs(args)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    svg = args.svg == "on"
    workers = min(len(flats), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_from_flat, flats, [outdir] * len(flats),
                                [svg] * len(flats)))
    tables, lines = [], []
    for flat, res in zip(flats, results):
        table = csvio.read_csv(os.path.join(outdir, flat["label"], "trajectory.csv"))
        tables.append(table)
        lines.append(f"{flat['label']}: {args.param} = {flat[_SWEEP_KEYS[args.param]]}, "
                     f"final moreau_gap = {table.scalars['moreau_gap'][-1]:.6g}, "
                     f"final grad_norm = {table.scalars['grad_norm'][-1]:.6g}, "
                     f"final dist_to_xstar = {table.scalars['dist_to_xstar'][-1]:.6g}, "
                     f"{res['wall_time']:.2f} s")
    combined = os.path.join(outdir, f"sweep_{args.param}.csv")
    _combined_csv(combined, args.param, values, tables)
    summary_path = os.path.join(outdir, f"sweep_{args.param}_summary.txt")
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"combined table: {combined}")
    return 0


def cmd_prox_selftest(args) -> int:
    results = run_prox_selftest()
    for res in results:
        print(res.format())
    if not results:
        print("no objectives registered; nothing to test")
        return 0
    return 0 if all(res.passed for res in results) else 1


_DISPATCH = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "prox-selftest": cmd_prox_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ValidationError, ParameterDomainError, InfeasibleError,
            UnsupportedOracleError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc} (last good t = {exc.t_last})", file=sys.stderr)
        return 2
    except StepSizeError as exc:
        print(f"step control failed: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
