"""Command-line front end.

Verbs: run, sweep, preset, validate. Exit codes: 0 success, 1 internal error
(an exception that is not a RevivalsError; its traceback goes to stderr),
2 configuration error, 3 truncation error, 4 stability error, 5 output error
(the output directory or a file in it cannot be created or written). A
failure prints one line on stderr: ``error: config: ...`` for a config that
cannot be read or is invalid, ``error: <Type>: ...`` for an error raised by
a run. The output directory defaults to ./out and can be overridden with
REVIVALS_OUT_DIR.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .config import ConfigError, expand_preset, load_config, load_preset, parse_values
from .errors import RevivalsError, StabilityError, TruncationError
from .fanout import one_blas_thread
from .runner import SWEEP_AXES, run_experiment, run_sweep

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3
EXIT_STABILITY = 4
EXIT_OUTPUT = 5


def _exit_code_for(exc: Exception) -> int:
    """Exit code for an exception raised by a run; an internal error's
    traceback is printed to stderr."""
    if isinstance(exc, TruncationError):
        return EXIT_TRUNCATION
    if isinstance(exc, StabilityError):
        return EXIT_STABILITY
    if isinstance(exc, RevivalsError):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_OUTPUT
    traceback.print_exception(exc, file=sys.stderr)
    return EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revivals",
        description="Dissipative collapse/revival simulator for a nonlinear bosonic mode")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--name", default=None, help="output base name")
    run_p.add_argument("--out-dir", default=None, help="output directory")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter axis")
    sweep_p.add_argument("config", help="path to the base JSON config")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of axis values")
    sweep_p.add_argument("--parallel", type=int, default=1)
    sweep_p.add_argument("--name", default=None)
    sweep_p.add_argument("--out-dir", default=None)

    preset_p = sub.add_parser("preset", help="run a shipped preset (fig1..fig8)")
    preset_p.add_argument("name", help="fig1..fig8 or a panel such as fig2b")
    preset_p.add_argument("--parallel", type=int, default=1)
    preset_p.add_argument("--out-dir", default=None)

    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")
    return parser


def _execute(args, config, name: str, axis: str | None = None, values=()) -> None:
    """Run one config, or sweep it along axis, and print the summary line."""
    if axis is None:
        result = run_experiment(config, name=name, out_dir=args.out_dir)
        print(f"{name}: {result.summary.report.classification.value} -> {result.csv_path}")
    else:
        result = run_sweep(config, axis, values, parallel=args.parallel, name=name,
                           out_dir=args.out_dir)
        print(f"{name}: {len(result.rows)} points -> {result.csv_path}")


def cmd_run(args) -> None:
    config = load_config(args.config).require_valid()
    _execute(args, config, args.name or Path(args.config).stem)


def _check_parallel(args) -> None:
    """--parallel below 1 is a config error, raised before anything runs."""
    if args.parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {args.parallel}")


def cmd_sweep(args) -> None:
    _check_parallel(args)
    config = load_config(args.config).require_valid()
    values = parse_values(args.values)
    name = args.name or f"{Path(args.config).stem}_{args.axis}_sweep"
    _execute(args, config, name, args.axis, values)


def cmd_preset(args) -> None:
    _check_parallel(args)
    for panel in expand_preset(args.name):
        spec = load_preset(panel)
        _execute(args, spec.config, panel, spec.sweep_axis, spec.sweep_values)


def cmd_validate(args) -> None:
    load_config(args.config).require_valid()
    print(f"{args.config}: valid")


VERBS = {"run": cmd_run, "sweep": cmd_sweep, "preset": cmd_preset,
         "validate": cmd_validate}


def main(argv: list[str] | None = None) -> int:
    """Run one command on one OpenBLAS thread, and map its failure to an exit code.

    Holding the one thread across the command keeps a panel after the first
    from restarting the BLAS pool that the previous panel's CSV fork shut
    down (``fanout.one_blas_thread``).
    """
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            VERBS[args.command](args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        code = _exit_code_for(exc)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
