"""Command-line front end.

Subcommands
-----------
recipe <fig2|fig3a|fig3b|fig4|fig5|fig6>   frozen figure data sets -> CSV
sweep --config <file>                      declarative sweep -> CSV
steady --omega1 .. --omega2 ..             one steady state -> stdout

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure
(no point of a recipe or sweep produced a value, or no physical steady state).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from gpdiag.cascade import DEFAULT_GAMMA2, DEFAULT_GAMMA3_REAL, SystemParams, steady_state
from gpdiag.gp import UndefinedPhaseError
from gpdiag.linops import NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence, purity
from gpdiag.recipes import MIN_SAMPLES, RECIPE_IDS, run_recipe
from gpdiag.sweep import ConfigError, parse_config, run_sweep


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1 per the interface contract (argparse default is 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, expected: str):
    """argparse type: convert(text), rejected with a usage error unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {expected}")
        return value
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_samples = _checked(int, lambda v: v >= 2, "an integer >= 2")
_jobs = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpdiag",
                     description="Cascade-emitter steady states, entanglement, and geometric phase.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    recipe = sub.add_parser("recipe", help="run a frozen figure recipe")
    recipe.add_argument("id", choices=RECIPE_IDS)
    _add_common(recipe)

    sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    sweep.add_argument("--config", required=True, help="path to the sweep configuration")
    # flag values override the config when given explicitly
    _add_common(sweep, flag_defaults=False)

    steady = sub.add_parser("steady", help="print one steady state")
    steady.add_argument("--omega1", type=_non_negative, required=True)
    steady.add_argument("--omega2", type=_non_negative, required=True)
    steady.add_argument("--delta1", type=_finite, default=0.0)
    steady.add_argument("--delta2", type=_finite, default=0.0)
    steady.add_argument("--scheme", choices=("I", "II"), default="I")
    steady.add_argument("--gamma2", type=_non_negative, default=DEFAULT_GAMMA2)
    steady.add_argument("--gamma3", type=_non_negative, default=None,
                        help="decay of the top level (default: 1 for scheme I, 0 for scheme II)")
    return parser


def _add_common(sub, flag_defaults: bool = True):
    sub.add_argument("--out", default="./out", help="output directory (default ./out)")
    sub.add_argument("--samples", type=_samples, default=601 if flag_defaults else None,
                     help="samples per axis (default 601)")
    sub.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1,
                     help="worker processes, at most one per column (default: number of processors)")
    sub.add_argument("--gamma2", type=_non_negative,
                     default=DEFAULT_GAMMA2 if flag_defaults else None)
    sub.add_argument("--gamma3", type=_non_negative,
                     default=DEFAULT_GAMMA3_REAL if flag_defaults else None,
                     help="scheme-I decay of the top level")


def _cmd_recipe(args) -> int:
    need = MIN_SAMPLES[args.id]
    if args.samples < need:
        print(f"gpdiag recipe: error: argument --samples: {args.id} needs an integer >= {need}", file=sys.stderr)
        return 1
    result = run_recipe(args.id, args.out, samples=args.samples, jobs=args.jobs,
                        gamma2=args.gamma2, gamma3=args.gamma3)
    for path in result.files:
        print(path)
    print(f"undefined points: {result.undefined_points}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {config_path}: {err}") from err
    spec = parse_config(text)
    spec = _apply_sweep_overrides(spec, args)
    path, undefined = run_sweep(spec, args.out, jobs=args.jobs)
    print(path)
    print(f"undefined points: {undefined}", file=sys.stderr)
    return 0


def _apply_sweep_overrides(spec, args):
    rates = {key: getattr(args, key) for key in ("gamma2", "gamma3") if getattr(args, key) is not None}
    base = dataclasses.replace(spec.base, **rates)
    axis1, axis2 = spec.axis1, spec.axis2
    if args.samples is not None:
        axis1 = dataclasses.replace(axis1, samples=args.samples)
        if axis2 is not None:
            axis2 = dataclasses.replace(axis2, samples=args.samples)
    return dataclasses.replace(spec, base=base, axis1=axis1, axis2=axis2)


def _cmd_steady(args) -> int:
    gamma3 = args.gamma3
    if gamma3 is None:
        gamma3 = 0.0 if args.scheme == "II" else DEFAULT_GAMMA3_REAL
    try:
        p = SystemParams(args.omega1, args.omega2, args.delta1, args.delta2, args.gamma2, gamma3)
    except ValueError as err:
        print(f"gpdiag steady: error: {err}", file=sys.stderr)
        return 1
    rho = atomic_to_photon(steady_state(p))
    lam = hermitian_eig(rho).eigenvalues[::-1]
    print("two-photon density matrix (basis |00>, |01>, |11>):")
    for row in rho:
        print("  " + "  ".join(f"{v.real:+.9f}{v.imag:+.9f}j" for v in row))
    print("eigenvalues:", " ".join(f"{v:.12g}" for v in lam))
    print(f"purity: {purity(rho):.12g}")
    print(f"concurrence: {concurrence(rho):.12g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "recipe":
            return _cmd_recipe(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_steady(args)
    except ConfigError as err:
        print(f"gpdiag: config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"gpdiag: i/o error: {err}", file=sys.stderr)
        return 1
    except (NoSteadyStateError, UndefinedPhaseError) as err:
        print(f"gpdiag: numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
