"""Command-line front end.

Subcommands: simulate, check, sweep, prox-selftest. Exit codes: 0 success
or all checks passed, 1 validation/usage/condition failure, 2 divergence
or failed step control, 3 internal error; _status maps each exception to
its code and stderr message.  Bad or repeated run labels and output paths
that cannot be written exit 1.  simulate and sweep validate every run
before the first one integrates, and write nothing when one fails.  A sweep
then runs them in worker processes and keeps the finished ones when another
fails: every variant gets a summary line, and the sweep exits with the largest
code among the failed variants, 0 when none failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import csvio
from .errors import (DivergenceError, InfeasibleError, InsufficientDataError,
                     ParameterDomainError, StepSizeError, UnsupportedOracleError,
                     ValidationError)
from .runconfig import (build_run, build_system, config_from_flat, execute_run,
                        parse_config_file, parse_overrides, preset_runs, _CHECKERS)
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
    p_chk.add_argument("--setting", choices=tuple(_CHECKERS),
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


def _validated(flats) -> dict:
    """{label: RunConfig}, each run parsed and built before any starts (and built
    again when it runs: a built SystemConfig holds closures a worker cannot take)."""
    configs = {}
    for flat in flats:
        rc = config_from_flat(flat)
        build_run(rc)
        if rc.label in configs:
            raise ValidationError(f"label {rc.label!r} names more than one run")
        configs[rc.label] = rc
    return configs


def cmd_simulate(args) -> int:
    configs = _validated(_gather_runs(args))
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    for rc in configs.values():
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
    if len(set(values)) < len(values):
        # 3 and 3.0 would share one label; 0 and -0.0 would not, but they are one value
        raise ValidationError(f"--values repeats a value: {args.values!r}")
    flats = [{**base, key: repr(v), "label": f"{args.param}_{repr(v).replace('.', '_')}"}
             for v in values]
    return dict(zip(values, _validated(flats).values()))


def _combined_csv(path, param, finished):
    """Merge the tables of the finished runs onto a shared log-spaced grid, long format."""
    tables = list(finished.values())
    t_lo = max(table.ts[0] for table in tables)
    t_hi = min(table.ts[-1] for table in tables)
    grid = np.geomspace(t_lo, t_hi, 256)
    names = list(tables[0].scalars)
    columns = [np.repeat(list(finished), grid.size), np.tile(grid, len(tables))]
    columns += [np.concatenate([np.interp(grid, table.ts, table.scalars[name])
                                for table in tables]) for name in names]
    csvio._write_rows(path, [param, "t"] + names, columns)


def cmd_sweep(args) -> int:
    variants = _sweep_configs(args)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    svg = args.svg == "on"
    workers = min(len(variants), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(execute_run, rc, outdir, svg) for rc in variants.values()]
    finished, lines, code = {}, [], 0
    for (value, rc), future in zip(variants.items(), futures):
        head = f"{rc.label}: {args.param} = {value!r}"
        try:
            summary = future.result()
        except Exception as exc:
            failed, message = _status(exc)
            code = max(code, failed)
            lines.append(f"{head}, FAILED (exit {failed}): {message}")
            continue
        table = finished[value] = summary.table
        lines.append(f"{head}, "
                     f"final moreau_gap = {table.scalars['moreau_gap'][-1]:.6g}, "
                     f"final grad_norm = {table.scalars['grad_norm'][-1]:.6g}, "
                     f"final dist_to_xstar = {table.scalars['dist_to_xstar'][-1]:.6g}, "
                     f"{summary.wall_time:.2f} s")
    with open(os.path.join(outdir, f"sweep_{args.param}_summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    if finished:
        combined = os.path.join(outdir, f"sweep_{args.param}.csv")
        _combined_csv(combined, args.param, finished)
        print(f"combined table: {combined}")
    return code


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


def _status(exc: Exception):
    """The documented exit code of a failure and its stderr message."""
    # an OSError is an output path that cannot be written, not a program bug
    if isinstance(exc, (ValidationError, ParameterDomainError, InfeasibleError,
                        UnsupportedOracleError, InsufficientDataError, OSError)):
        return 1, f"error: {exc}"
    if isinstance(exc, DivergenceError):
        return 2, f"divergence: {exc} (last good t = {exc.t_last})"
    if isinstance(exc, StepSizeError):
        return 2, f"step control failed: {exc}"
    return 3, f"internal error: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except Exception as exc:
        code, message = _status(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
