"""Command-line interface.

Subcommands:
  run <config>            execute a scenario file (or bundled name)
  verify [--level ...]    run the invariant suite (--json: end with a JSON line)
  sweep <config> ...      one run per parameter value, gathered in order
  convert-units ...       internal-to-SI collapse-time conversion

Exit codes: 0 success, 1 verification failure, 2 config error,
3 runtime solver error (a failed run keeps the timeseries.csv of its
partial trajectory, and its snapshot files when write_snapshots is on, next
to an incomplete summary.json). A run that exits 0 or 3 replaces every
artifact an earlier run left in its output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .diagnostics import UnitSystem, make_collapse_report
from .errors import ConfigError, CqhjError
from .runner import (
    OUTPUT_ROOT_ENV,
    load_scenario_or_bundled,
    resolve_output_dir,
    run_to_directory,
    sweep as run_sweep,
    write_sweep_table,
)
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqhjlab",
        description=(
            "Numerical laboratory for complex quantum Hamilton-Jacobi dynamics "
            "and collapsible (nonlinear) Schroedinger evolution on 1-D grids."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to a scenario file, or a bundled scenario name")
    p_run.add_argument(
        "--output",
        default=None,
        help=f"output directory (default from config; ${OUTPUT_ROOT_ENV} prefixes relative paths)",
    )

    p_verify = sub.add_parser("verify", help="run the invariant verification suite")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply upper bounds / divide lower bounds by this factor",
    )
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="end with one JSON line: each check's name, repr of the measured value, "
        "tolerance, kind, passed and seconds",
    )

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted scenario field, e.g. force.kappa")
    p_sweep.add_argument("--values", required=True, help="comma-separated numeric values")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--output", default=None)

    p_units = sub.add_parser("convert-units", help="convert an internal collapse time to SI")
    p_units.add_argument("--tau", type=float, required=True, help="collapse time, internal units")
    p_units.add_argument("--mass-kg", type=float, required=True)
    p_units.add_argument("--length-m", type=float, required=True)
    return parser


def _number(name: str, value: float, positive: bool = True) -> float:
    """value, if finite and positive (non-negative when positive is False);
    ConfigError otherwise."""
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        sign = "positive" if positive else "non-negative"
        raise ConfigError(f"{name} must be {sign} and finite, got {value}")
    return value


def _cmd_run(args) -> int:
    scenario = load_scenario_or_bundled(args.config)
    out_dir = resolve_output_dir(scenario, args.output)
    result = run_to_directory(scenario, out_dir)  # it writes a failed run's artifacts too
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    print(f"artifacts written to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    scale = _number("--tolerance-scale", args.tolerance_scale)
    results = run_checks(level=args.level, tolerance_scale=scale)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed in {total:.1f}s")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed))
    if args.json:
        checks = [
            {"name": r.name, "measured": repr(r.measured), "tolerance": r.tolerance,
             "kind": r.kind, "passed": r.passed, "seconds": r.seconds}
            for r in results
        ]
        print(json.dumps({"level": args.level, "checks": checks}))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario_or_bundled(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values must be a comma-separated number list: {exc}") from exc
    if not values:
        raise ConfigError("--values is empty")
    rows = run_sweep(scenario, args.param, values, workers=args.workers)
    out_dir = resolve_output_dir(scenario, args.output)
    write_sweep_table(rows, args.param, out_dir)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    print(f"sweep table written to {out_dir}", file=sys.stderr)
    if any(row["status"] != "ok" for row in rows):
        return EXIT_SOLVER_ERROR
    return EXIT_OK


def _cmd_convert_units(args) -> int:
    tau = _number("--tau", args.tau, positive=False)
    units = UnitSystem(_number("--mass-kg", args.mass_kg), _number("--length-m", args.length_m))
    report = make_collapse_report(tau, epsilon=1e-3, units=units)
    out = report.as_dict()
    out["time_scale_s"] = units.time_scale_s
    out["energy_scale_j"] = units.energy_scale_j
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "convert-units":
            return _cmd_convert_units(args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CqhjError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
