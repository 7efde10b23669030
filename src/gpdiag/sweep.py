"""Declarative parameter sweeps: config parsing, evaluation, CSV emission.

Config files are flat key=value INI text with a [sweep] section and one
section per axis ([axis1], optional [axis2]).  Unknown sections or keys are
rejected.  CSV output is UTF-8, comma-separated, LF line endings, one header
row, 12 significant digits, empty field for undefined points.  Row order is
axis1-major, axis2-minor, and results are byte-identical for any worker
count.
"""

from __future__ import annotations

import math
import os
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gpdiag.cascade import (
    DEFAULT_GAMMA2, DEFAULT_GAMMA3_IDEAL, DEFAULT_GAMMA3_REAL, ConfigError, SystemParams, as_count, steady_state,
)
from gpdiag.gp import PathSpec, gp_curve_from_states, gp_derivative
from gpdiag.linops import NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence, purity

OUTPUT_KINDS = ("eigenvalues", "purity", "concurrence", "gamma_g", "dgamma")
# the CSV fields of each output, in column order
_FIELDS = {out: (out,) for out in OUTPUT_KINDS} | {"eigenvalues": ("lambda1", "lambda2", "lambda3")}
SCHEMES = ("I", "II", "custom")

_PARAM_KEYS = ("omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3")
_SWEEP_KEYS = ("scheme", "path", "outputs", *_PARAM_KEYS)
_AXIS_KEYS = ("parameter", "start", "stop", "samples")
# the longest file name, in bytes, of ext4, xfs, btrfs, tmpfs and APFS
NAME_MAX = 255


@dataclass(frozen=True)
class SweepSpec:
    axis1: PathSpec
    axis2: PathSpec | None
    outputs: tuple
    path: str

    def __post_init__(self):
        if not self.outputs:
            raise ConfigError("at least one output is required")
        for i, out in enumerate(self.outputs):
            if out not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output {out!r}")
            if out in self.outputs[:i]:
                raise ConfigError(f"duplicate output {out!r}")
        # the CSV is written inside the output directory, so path names a file there; no file name holds a NUL
        if self.path in ("", ".", "..") or "\0" in self.path or Path(self.path).name != self.path:
            raise ConfigError(f"path must be a plain file name, got {self.path!r}")
        # a name the file system refuses would fail only when the CSV is opened, after the whole sweep
        if (size := len(os.fsencode(self.path))) > NAME_MAX:
            raise ConfigError(f"path must be at most {NAME_MAX} bytes, got {size}")
        if "dgamma" in self.outputs and self.axis1.samples < 3:
            raise ConfigError(f"output dgamma needs axis1 samples >= 3, got {self.axis1.samples}")
        if self.axis2 is None:
            return
        if self.axis2.varying == self.axis1.varying:
            raise ConfigError("axis1 and axis2 must sweep different parameters")
        # each axis checks its own ends and every parameter constraint is an interval, so the grid is valid when
        # axis2 is valid from each end of axis1
        for value in (self.axis1.start, self.axis1.stop):
            try:
                replace(self.axis2, base=self.axis1.params_at(value))
            except ConfigError as err:
                raise ConfigError(f"grid corner {self.axis1.varying} = {value!r}: {err}") from err


def _get_float(section, key, lineno_hint) -> float:
    raw = section[key]
    try:
        value = float(raw)
    except ValueError as err:
        raise ConfigError(f"{lineno_hint}: {key} = {raw!r} is not a number") from err
    if not math.isfinite(value):
        raise ConfigError(f"{lineno_hint}: {key} must be finite")
    return value


def parse_config(text: str, samples: int | None = None, gamma2: float | None = None,
                 gamma3: float | None = None) -> SweepSpec:
    """Strict parse of the flat key=value sweep configuration.  A given samples (of every axis), gamma2 or gamma3
    replaces the config value before any range check; the value it replaces must still be well formed."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None, default_section="\n")  # so [DEFAULT] is an ordinary section
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as err:
        raise ConfigError(f"line {err.lineno}: content before any section header") from err
    except configparser.DuplicateSectionError as err:
        raise ConfigError(f"line {err.lineno}: repeated section [{err.section}]") from err
    except configparser.DuplicateOptionError as err:
        raise ConfigError(f"line {err.lineno}: repeated key {err.option!r} in [{err.section}]") from err
    except configparser.ParsingError as err:
        lines = ", ".join(str(lineno) for lineno, _ in err.errors)
        raise ConfigError(f"syntax error at line(s) {lines}") from err
    for section in parser.sections():
        if section not in ("sweep", "axis1", "axis2"):
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SWEEP_KEYS if section == "sweep" else _AXIS_KEYS
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for section in ("sweep", "axis1"):
        if section not in parser:
            raise ConfigError(f"missing [{section}] section")
    sweep = parser["sweep"]
    scheme = sweep.get("scheme", "I")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    overrides = {key: _get_float(sweep, key, "[sweep]") for key in _PARAM_KEYS if key in sweep}
    overrides |= {key: value for key, value in (("gamma2", gamma2), ("gamma3", gamma3)) if value is not None}
    # the defaults of a scheme: omega1 = omega2 = 6 on resonance, with its decay rates
    default_gamma3 = DEFAULT_GAMMA3_IDEAL if scheme == "II" else DEFAULT_GAMMA3_REAL
    base = replace(SystemParams(6.0, 6.0, 0.0, 0.0, DEFAULT_GAMMA2, default_gamma3), **overrides)
    outputs = tuple(token.strip() for token in sweep.get("outputs", "purity").split(",") if token.strip())

    def axis_from(section_name):
        section = parser[section_name]
        for key in _AXIS_KEYS:
            if key not in section:
                raise ConfigError(f"[{section_name}] is missing key {key!r}")
        try:
            count = int(section["samples"])
        except ValueError as err:
            raise ConfigError(f"[{section_name}]: samples must be an integer") from err
        start, stop = (_get_float(section, key, f"[{section_name}]") for key in ("start", "stop"))
        try:
            return PathSpec(base, section["parameter"].strip(), start, stop, count if samples is None else samples)
        except ConfigError as err:
            # of the axis checks only the three of the sample count (integer, >= 2, distinct) start "axis", name samples
            flagged = samples is not None and str(err).startswith("axis") and "samples" in str(err)
            raise ConfigError(f"{f'--samples {samples}' if flagged else f'[{section_name}]'}: {err}") from err

    axis1 = axis_from("axis1")
    axis2 = axis_from("axis2") if "axis2" in parser else None
    # an axis replaces its parameter at every point, so a [sweep] value for it would be dropped in silence
    for name, axis in (("axis1", axis1), ("axis2", axis2)):
        if axis is not None and axis.varying in sweep:
            raise ConfigError(f"[sweep]: key {axis.varying!r} sets the parameter that [{name}] sweeps")
    return SweepSpec(axis1, axis2, outputs, sweep.get("path", "sweep.csv"))


# every CSV value has 12 significant digits; Python prints every NaN as "nan", which becomes an empty field
_FIELD_FORMAT = "%.12g"


def write_csv(path: Path, header, axis1_values, axis2_values, table) -> None:
    """Write a stacked table axis1-major, each row led by its axis values; axis2_values is [None] for one column."""
    fields = ",".join([_FIELD_FORMAT] * table.shape[2])
    lead1 = [_FIELD_FORMAT % v + "," for v in np.asarray(axis1_values, dtype=float).tolist()]
    lead2 = ["" if v is None else _FIELD_FORMAT % v + "," for v in axis2_values]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(v1 + v2 + (fields % tuple(values)).replace("nan", "") + "\n"
                          for v1, line in zip(lead1, table.tolist()) for v2, values in zip(lead2, line))


def map_columns(fn, payloads, jobs):
    """fn(*payload) for every payload, in payload order.

    With jobs > 1 the calls are spread over min(jobs, len(payloads)) worker
    processes, each with a fixed share of the payloads, so results never
    depend on the worker count.
    """
    workers = min(jobs, len(payloads))
    if workers < 2:
        return [fn(*p) for p in payloads]
    return _map_in_workers(fn, payloads, workers)


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a worker process, as text: the cause of the error re-raised."""


def _run_share(fn, share, writer):
    """Worker body: send (results, None), or the results before the first call that raised and
    (its error, traceback text)."""
    results, failure = [], None
    try:
        for payload in share:
            results.append(fn(*payload))
    except Exception as err:
        failure = err, traceback.format_exc()
    writer.send((results, failure))


def _context():
    """The multiprocessing context of the workers, imported only by a run that starts them."""
    import multiprocessing

    # Linux forks on every Python (3.14 defaults to forkserver), so the workers are the caller's children and need
    # no guard
    return multiprocessing.get_context("fork" if sys.platform == "linux" else None)


def _map_in_workers(fn, payloads, workers):
    """map_columns on `workers` processes: worker w takes payloads[w::workers] and returns them over its own
    pipe.  Raises what the first failing payload raised, or ChildProcessError when a worker died."""
    context = _context()
    readers, procs, shares = [], [], []
    try:
        for w in range(workers):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            try:
                proc = context.Process(target=_run_share, args=(fn, payloads[w::workers], writer))
                proc.start()
                procs.append(proc)
            finally:
                writer.close()  # so that a dead worker's pipe reads EOF
        # every pipe is read before any join: a worker blocks in send until its share is read
        for reader in readers:
            try:
                shares.append(reader.recv())
            except (EOFError, OSError):  # OSError: the worker died in the middle of its message
                shares.append(None)
    except BaseException:  # a failed start or an interrupt: no worker runs the rest of its share
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for reader in readers:
            reader.close()  # a worker still sending gets BrokenPipeError rather than blocking the join
        for proc in procs:
            proc.join()
    for proc, share in zip(procs, shares):
        if share is None:
            raise ChildProcessError(f"sweep worker process {proc.pid} exited with code {proc.exitcode} "
                                    "before sending its results")
    failures = [(w + workers * len(results), failure) for w, (results, failure) in enumerate(shares) if failure]
    if failures:
        err, text = min(failures)[1]  # the payload indices differ, so no two errors are compared
        raise err from _WorkerTraceback(text)
    ordered = [None] * len(payloads)
    for w, (results, _) in enumerate(shares):
        ordered[w::workers] = results
    return ordered


def photon_states(params):
    """(states, defined): the two-photon steady states of `params`, solved point by point, as an (N, 3, 3)
    stack, and the indices of the N points that have a unique positive semidefinite one; every other point
    is a gap."""
    states, defined = [], []
    for i, p in enumerate(params):
        try:
            states.append(steady_state(p))
        except NoSteadyStateError:
            continue
        defined.append(i)
    return atomic_to_photon(np.array(states).reshape(-1, 3, 3)), defined


def _column_outputs(spec: PathSpec, outputs) -> np.ndarray:
    """Evaluate `outputs` at every sample of the path `spec`.

    Returns a (samples, fields) float array in the column order of `outputs`,
    NaN where a point is undefined.  The steady states come from
    photon_states; then eigenvalues, purity and concurrence are one call each
    over the stack of defined states, gamma_g runs along the defined samples,
    and dgamma is all NaN while any gamma_g gap remains.
    """
    values = spec.values()
    states, defined = photon_states([spec.params_at(v) for v in values])
    table = np.full((len(values), sum(len(_FIELDS[out]) for out in outputs)), np.nan)
    gammas = np.full(len(values), np.nan)
    if "gamma_g" in outputs or "dgamma" in outputs:
        gammas[defined] = gp_curve_from_states(states)
    col = 0
    for out in outputs:
        if out == "eigenvalues":
            table[defined, col:col + 3] = hermitian_eig(states).eigenvalues[:, ::-1]
        elif out == "purity":
            table[defined, col] = purity(states)
        elif out == "concurrence":
            table[defined, col] = concurrence(states)
        elif out == "gamma_g":
            table[:, col] = gammas
        elif out == "dgamma":
            table[:, col] = gp_derivative(gammas, values[1] - values[0])
        col += len(_FIELDS[out])
    return table


def path_columns(paths, outputs, jobs):
    """`outputs` along each path: one _column_outputs column per path, in path order."""
    return map_columns(_column_outputs, [(path, outputs) for path in paths], jobs)


class RunResult(NamedTuple):
    """What a recipe or sweep run wrote, and its count of grid points with at least one empty field."""

    files: list
    undefined_points: int


def check_run(out_dir, jobs: int) -> None:
    """The one check of a run's worker count and output directory, before any solve; creates nothing.  Raises
    ConfigError when jobs < 1, and OSError unless each missing component of out_dir is a name of at most NAME_MAX
    bytes below a writable directory; any other refusal of the kernel's lookup (a symlink loop, a path over
    PATH_MAX) is raised as it is."""
    if as_count("jobs", jobs) < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    path = Path(out_dir).absolute()
    while True:
        try:
            os.stat(path)
            break
        except (FileNotFoundError, NotADirectoryError):  # the lookup stops at the first missing component
            if (size := len(os.fsencode(path.name))) > NAME_MAX:
                raise OSError(f"output directory {out_dir}: a directory name must be at most {NAME_MAX} bytes, "
                              f"got {size}") from None
            path = path.parent
    if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
        raise OSError(f"output directory {out_dir}: {path} is not a writable directory")


def write_tables(out_dir: Path, tables, source: str) -> RunResult:
    """Write (file name, header, axis1 values, axis2 values, columns) tables into out_dir, each the
    (axis1 samples, axis2 samples, fields) stack of its (axis1 samples, fields) float columns, NaN at gaps.

    Raises NoSteadyStateError, and creates and writes nothing, when no point of
    any table produced a value.
    """
    stacked = [np.stack(columns, axis=1) for *_, columns in tables]
    gaps = [np.isnan(table) for table in stacked]
    if all(gap.all() for gap in gaps):
        raise NoSteadyStateError(f"no sample point of the {source} produced a value")
    out_dir.mkdir(parents=True, exist_ok=True)
    for (name, header, axis1, axis2, _), table in zip(tables, stacked):
        write_csv(out_dir / name, header, axis1, axis2, table)
    return RunResult([out_dir / name for name, *_ in tables], sum(int(gap.any(axis=2).sum()) for gap in gaps))


def run_sweep(spec: SweepSpec, out_dir, jobs: int = 1) -> RunResult:
    """Execute a sweep and write its one CSV.  Raises what check_run raises before any solve, and
    NoSteadyStateError if every sample point failed."""
    check_run(out_dir, jobs)
    axis1, axis2 = spec.axis1, spec.axis2
    axis2_values = [None] if axis2 is None else list(axis2.values())
    paths = [axis1 if v is None else replace(axis1, base=axis2.params_at(v)) for v in axis2_values]
    header = [axis.varying for axis in (axis1, axis2) if axis is not None] + [
        field for out in spec.outputs for field in _FIELDS[out]]
    table = (spec.path, header, axis1.values(), axis2_values, path_columns(paths, spec.outputs, jobs))
    return write_tables(Path(out_dir), [table], "sweep")
