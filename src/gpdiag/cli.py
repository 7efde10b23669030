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
import os
import sys
from pathlib import Path

from gpdiag.cascade import (
    DEFAULT_GAMMA2, DEFAULT_GAMMA3_IDEAL, DEFAULT_GAMMA3_REAL, ConfigError, SystemParams, steady_state,
)
from gpdiag.linops import NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence, purity
from gpdiag.recipes import RECIPE_IDS, run_recipe
from gpdiag.sweep import RunResult, parse_config, run_sweep


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1 per the interface contract (argparse default is 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpdiag",
                     description="Cascade-emitter steady states, entanglement, and geometric phase.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    recipe = sub.add_parser("recipe", help="run a frozen figure recipe")
    recipe.add_argument("id", choices=RECIPE_IDS)
    _add_common(recipe, {"default": 601, "help": "samples per axis (default 601)"},
                {"default": DEFAULT_GAMMA2, "help": f"decay of the middle level (default {DEFAULT_GAMMA2:g})"},
                {"default": DEFAULT_GAMMA3_REAL,
                 "help": f"scheme-I decay of the top level (default {DEFAULT_GAMMA3_REAL:g})"})

    sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    sweep.add_argument("--config", required=True, help="path to the sweep configuration")
    # a flag given replaces the config's value; an absent one is None and keeps it
    _add_common(sweep, {"help": "samples of every axis (default: each axis's samples in the config)"},
                {"help": "decay of the middle level, replacing the config's gamma2 in every scheme"},
                {"help": "decay of the top level, replacing the config's gamma3 in every scheme"})

    steady = sub.add_parser("steady", help="print one steady state")
    steady.add_argument("--omega1", type=float, required=True)
    steady.add_argument("--omega2", type=float, required=True)
    steady.add_argument("--delta1", type=float, default=0.0)
    steady.add_argument("--delta2", type=float, default=0.0)
    steady.add_argument("--scheme", choices=("I", "II"), default="I")
    steady.add_argument("--gamma2", type=float, default=DEFAULT_GAMMA2)
    steady.add_argument("--gamma3", type=float, default=None,
                        help="decay of the top level (default: 1 for scheme I, 0 for scheme II)")
    return parser


def _add_common(sub, samples, gamma2, gamma3):
    """The flags of recipe and sweep, in help order: --out and --jobs are the same for both, and samples, gamma2
    and gamma3 hold the command's own default and help of --samples, --gamma2 and --gamma3."""
    sub.add_argument("--out", default="./out", help="output directory (default ./out)")
    sub.add_argument("--samples", type=int, **samples)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    sub.add_argument("--jobs", type=int, default=cpus,
                     help="worker processes, at most one per column (default: the processors this process may use)")
    sub.add_argument("--gamma2", type=float, **gamma2)
    sub.add_argument("--gamma3", type=float, **gamma3)


def _report(result: RunResult) -> int:
    """Print each written file to stdout and the undefined-point count to stderr."""
    for path in result.files:
        print(path)
    print(f"undefined points: {result.undefined_points}", file=sys.stderr)
    return 0


def _cmd_recipe(args) -> int:
    return _report(run_recipe(args.id, args.out, samples=args.samples, jobs=args.jobs,
                              gamma2=args.gamma2, gamma3=args.gamma3))


def _cmd_sweep(args) -> int:
    config_path = Path(args.config)
    try:
        data = config_path.read_bytes().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark, as utf-8-sig
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # universal newlines, before the line count
        text = data.decode("utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {config_path}: {err}") from err
    except UnicodeDecodeError as err:
        line = data[:err.start].count(b"\n") + 1
        raise ConfigError(f"line {line}: byte 0x{data[err.start]:02x} is not valid UTF-8") from err
    spec = parse_config(text, samples=args.samples, gamma2=args.gamma2, gamma3=args.gamma3)
    return _report(run_sweep(spec, args.out, jobs=args.jobs))


def _cmd_steady(args) -> int:
    gamma3 = args.gamma3
    if gamma3 is None:
        gamma3 = DEFAULT_GAMMA3_IDEAL if args.scheme == "II" else DEFAULT_GAMMA3_REAL
    p = SystemParams(args.omega1, args.omega2, args.delta1, args.delta2, args.gamma2, gamma3)
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
    except MemoryError as err:  # numpy refuses the axis of a huge sample count at once, before any output
        print(f"gpdiag: out of memory: {err}", file=sys.stderr)
        return 1
    except NoSteadyStateError as err:
        print(f"gpdiag: numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
