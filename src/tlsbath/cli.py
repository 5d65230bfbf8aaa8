"""Command-line front end.

Exit codes: 0 success, 1 configuration error (an unwritable output
path, found before the run, a stdout whose reader has closed it, and a
run too large for memory included), 2 numerical failure, 3 validation
failures present.  Every subcommand accepts `--config <ini-file>` plus
repeatable `--set section.key=value` overrides; sweep output goes to
`--out` (or the config's output path, or stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import __version__
from .bath import saturation, transverse_rate
from .config import FORMATS, ConfigError, load_config, resolved_items
from .oracle import DimensionCapError
from .rates import BelowThresholdError
from .sweeps import (
    SCENARIOS,
    SweepResult,
    check_output_path,
    rates_at,
    run_scenario,
    write_result,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors (exit 1), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", help="INI config file")
    sub.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one config value (repeatable)",
    )
    sub.add_argument("--out", metavar="PATH", help="output file (default: config/stdout)")
    sub.add_argument("--format", choices=FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tlsbath",
        description=(
            "Effective quantum dynamics of bosonic modes coupled to a "
            "coherently driven bath of lossy two-level systems"
        ),
    )
    parser.add_argument("--version", action="version", version=f"tlsbath {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subs.add_parser("rates", help="master-equation rates at a single point")
    _add_common(p)
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("sweep", help="run a named sweep scenario")
    p.add_argument("scenario", choices=SCENARIOS)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    for name, help_text in (
        ("steady-state", "stationary moments and squeezing along a sweep"),
        ("stability-map", "2-D stability grid over [sweep] x [sweep2]"),
        ("squeezing", "squeezing parameter along a sweep"),
        ("coherence", "first-order coherence g1(tau)"),
        ("oracle-validate", "effective model vs exact solver at small N"),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=_cmd_sweep, scenario=name)

    p = subs.add_parser("validate-all", help="run the acceptance criteria suite")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def _config(args):
    # an output path that cannot be written fails before the run, not after
    cfg = load_config(args.config, args.overrides)
    check_output_path(args.out or cfg.out_path)
    return cfg


def _emit(result: SweepResult, cfg, args) -> None:
    path = args.out or cfg.out_path
    write_result(result, path, args.format or cfg.out_format)
    if path:
        print(f"wrote {path} ({math.prod(result.shape)} rows)")


def _rates_result(cfg) -> SweepResult:
    # the one-row table of the `rates` report
    r = rates_at(cfg)
    tls = cfg.tls_params()
    env = cfg.environment()
    report = {
        "kappa_t": transverse_rate(tls, env),
        "saturation": saturation(tls, env),
        "Omega_prime_re": r.Omega_prime.real,
        "Omega_prime_im": r.Omega_prime.imag,
        "delta": r.delta,
        "g_re": r.g.real,
        "g_im": r.g.imag,
        "Gamma_re": r.Gamma.real,
        "Gamma_im": r.Gamma.imag,
        "gamma_plus": r.gamma_plus,
        "gamma_minus": r.gamma_minus,
        "gamma": r.gamma,
    }
    return SweepResult.from_rows(
        "rates",
        tuple(report),
        (tuple(float(v) for v in report.values()),),
        tuple(resolved_items(cfg)),
    )


def _cmd_rates(args) -> int:
    cfg = _config(args)
    result = _rates_result(cfg)
    if args.out or cfg.out_path or args.format:
        _emit(result, cfg, args)
    else:
        for name, value in zip(result.columns, result.rows[0]):
            print(f"{name} = {value!r}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    result = run_scenario(args.scenario, cfg)
    _emit(result, cfg, args)
    return EXIT_OK


def _cmd_validate(args) -> int:
    # the suite loads only for this command
    from .validation import report_rows, validate_all

    cfg = _config(args)
    report = validate_all(cfg)
    for line in report.lines():
        print(line)
    # the table goes only to a file, never after the report on stdout
    if args.out or cfg.out_path:
        columns, rows = report_rows(report)
        meta = tuple(resolved_items(cfg))
        result = SweepResult.from_rows("validate-all", columns, rows, meta)
        _emit(result, cfg, args)
    if report.all_passed:
        print("all criteria passed")
        return EXIT_OK
    print("validation failures present", file=sys.stderr)
    return EXIT_VALIDATION


def _discard_stdout() -> None:
    # what stdout still buffers goes to the null device, so that the flush
    # at exit cannot fail again
    with contextlib.suppress(OSError, ValueError):  # no file descriptor
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone fails here, not at exit
        return code
    except BrokenPipeError as exc:
        _discard_stdout()
        with contextlib.suppress(OSError):  # stderr may be the same pipe
            print(f"config error: output stream closed: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DimensionCapError,
        BelowThresholdError,
        ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError, and parameter checks the library makes itself
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a run's memory is set by its config: grid counts, tau samples and
        # oracle.dim_cap
        print(f"config error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
