"""Declarative parameter sweeps: config parsing, evaluation, CSV emission.

Config files are flat key=value INI text with a [sweep] section and one
section per axis ([axis1], optional [axis2]).  Unknown sections or keys are
rejected.  CSV output is UTF-8, comma-separated, LF line endings, one header
row, 12 significant digits, empty field for undefined points.  Row order is
axis1-major, axis2-minor, and results are byte-identical for any worker
count.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, replace
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from gpdiag.cascade import DEFAULT_GAMMA2, DEFAULT_GAMMA3_IDEAL, DEFAULT_GAMMA3_REAL, SystemParams, steady_state
from gpdiag.gp import SWEEPABLE, PathSpec, UndefinedPhaseError, gp_curve_from_states, gp_derivative
from gpdiag.linops import NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence, purity

OUTPUT_KINDS = ("eigenvalues", "purity", "concurrence", "gamma_g", "dgamma")
# the CSV fields of each output, in column order
_FIELDS = {out: (out,) for out in OUTPUT_KINDS} | {"eigenvalues": ("lambda1", "lambda2", "lambda3")}
SCHEMES = ("I", "II", "custom")

_PARAM_KEYS = ("omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3")
_SWEEP_KEYS = ("scheme", "path", "outputs", *_PARAM_KEYS)
_AXIS_KEYS = ("parameter", "start", "stop", "samples")


class ConfigError(ValueError):
    """Malformed sweep configuration (carries a line number when known)."""


@dataclass(frozen=True)
class AxisSpec:
    parameter: str
    start: float
    stop: float
    samples: int

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ConfigError(f"unknown axis parameter {self.parameter!r}")
        if not (self.start < self.stop):
            raise ConfigError(f"axis start must be < stop, got [{self.start}, {self.stop}]")
        if not math.isfinite(self.stop - self.start):
            raise ConfigError(f"axis span stop - start must be finite, got [{self.start}, {self.stop}]")
        if self.samples < 2:
            raise ConfigError(f"axis samples must be >= 2, got {self.samples}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.samples)


@dataclass(frozen=True)
class SweepSpec:
    scheme: str
    base: SystemParams
    axis1: AxisSpec
    axis2: AxisSpec | None
    outputs: tuple
    path: str

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not self.outputs:
            raise ConfigError("at least one output is required")
        for i, out in enumerate(self.outputs):
            if out not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output {out!r}")
            if out in self.outputs[:i]:
                raise ConfigError(f"duplicate output {out!r}")
        # the CSV is written inside the output directory, so path names a file there
        if self.path in ("", ".", "..") or Path(self.path).name != self.path:
            raise ConfigError(f"path must be a plain file name, got {self.path!r}")
        if self.axis2 is not None and self.axis2.parameter == self.axis1.parameter:
            raise ConfigError("axis1 and axis2 must sweep different parameters")
        if "dgamma" in self.outputs and self.axis1.samples < 3:
            raise ConfigError(f"output dgamma needs axis1 samples >= 3, got {self.axis1.samples}")
        # every parameter constraint is an interval, so the grid is valid when its corners are
        axes = [axis for axis in (self.axis1, self.axis2) if axis is not None]
        for corner in itertools.product(*((axis.start, axis.stop) for axis in axes)):
            where = ", ".join(f"{axis.parameter} = {value!r}" for axis, value in zip(axes, corner))
            try:
                replace(self.base, **{axis.parameter: value for axis, value in zip(axes, corner)})
            except ValueError as err:
                raise ConfigError(f"grid corner {where}: {err}") from err


def _default_base(scheme: str) -> SystemParams:
    gamma3 = DEFAULT_GAMMA3_IDEAL if scheme == "II" else DEFAULT_GAMMA3_REAL
    return SystemParams(omega1=6.0, omega2=6.0, delta1=0.0, delta2=0.0,
                        gamma2=DEFAULT_GAMMA2, gamma3=gamma3)


def _get_float(section, key, lineno_hint) -> float:
    raw = section[key]
    try:
        value = float(raw)
    except ValueError as err:
        raise ConfigError(f"{lineno_hint}: {key} = {raw!r} is not a number") from err
    if not math.isfinite(value):
        raise ConfigError(f"{lineno_hint}: {key} must be finite")
    return value


def parse_config(text: str) -> SweepSpec:
    """Strict parse of the flat key=value sweep configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as err:
        raise ConfigError(f"line {err.lineno}: content before any section header") from err
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
    if "sweep" not in parser:
        raise ConfigError("missing [sweep] section")
    if "axis1" not in parser:
        raise ConfigError("missing [axis1] section")
    sweep = parser["sweep"]
    scheme = sweep.get("scheme", "I")
    overrides = {key: _get_float(sweep, key, "[sweep]") for key in _PARAM_KEYS if key in sweep}
    try:
        base = replace(_default_base(scheme), **overrides)
    except ValueError as err:
        raise ConfigError(f"[sweep]: {err}") from err
    outputs_raw = sweep.get("outputs", "purity")
    outputs = tuple(token.strip() for token in outputs_raw.split(",") if token.strip())
    path = sweep.get("path", "sweep.csv")

    def axis_from(section_name):
        section = parser[section_name]
        for key in _AXIS_KEYS:
            if key not in section:
                raise ConfigError(f"[{section_name}] is missing key {key!r}")
        try:
            samples = int(section["samples"])
        except ValueError as err:
            raise ConfigError(f"[{section_name}]: samples must be an integer") from err
        return AxisSpec(section["parameter"].strip(),
                        _get_float(section, "start", f"[{section_name}]"),
                        _get_float(section, "stop", f"[{section_name}]"),
                        samples)

    axis1 = axis_from("axis1")
    axis2 = axis_from("axis2") if "axis2" in parser else None
    return SweepSpec(scheme, base, axis1, axis2, outputs, path)


def format_field(value: float) -> str:
    """12-significant-digit float formatting; the empty string for NaN, an undefined point."""
    return "" if math.isnan(value) else f"{value:.12g}"


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(format_field(v) for v in row) + "\n")


def map_columns(fn, payloads, jobs):
    """fn(*payload) for every payload, in payload order.

    With jobs > 1 the calls are spread over min(jobs, len(payloads)) worker
    processes, one payload at a time, so results never depend on the worker
    count.
    """
    if jobs > 1 and len(payloads) > 1:
        with Pool(processes=min(jobs, len(payloads))) as pool:
            return pool.starmap(fn, payloads, chunksize=1)
    return [fn(*p) for p in payloads]


def _column_outputs(spec: PathSpec, outputs) -> np.ndarray:
    """Evaluate `outputs` at every sample of the path `spec`.

    Returns a (samples, fields) float array in the column order of `outputs`,
    NaN where a point is undefined.  The steady states are solved point by
    point; then eigenvalues, purity and concurrence are one call each over the
    stack of defined states, gamma_g runs along the defined samples, and
    dgamma is filled only when no gamma_g gap remains.
    """
    values = spec.values()
    states, defined = [], []
    for i, v in enumerate(values):
        try:
            states.append(atomic_to_photon(steady_state(spec.params_at(v))))
        except NoSteadyStateError:
            continue
        defined.append(i)
    table = np.full((len(values), sum(len(_FIELDS[out]) for out in outputs)), np.nan)
    if not states:
        return table
    states = np.array(states)
    gammas = np.full(len(values), np.nan)
    if ("gamma_g" in outputs or "dgamma" in outputs) and len(states) >= 2:
        try:
            gammas[defined] = gp_curve_from_states(states)
        except UndefinedPhaseError:
            pass
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
        elif out == "dgamma" and not np.isnan(gammas).any():
            table[:, col] = gp_derivative(gammas, values[1] - values[0])
        col += len(_FIELDS[out])
    return table


def grid_rows(axis1_values, axis2_values, columns):
    """Rows of a table whose columns[i2] is the (axis1 samples, fields) float array of one column, NaN at gaps.

    Rows run axis1-major, axis2-minor; axis2_values is [None] for a table of
    one column.  Returns (rows, undefined, defined): the rows and the counts
    of points with at least one empty field and with at least one value.
    """
    table = np.stack(columns, axis=1)
    gaps = np.isnan(table)
    rows = [[float(v1)] + ([] if v2 is None else [float(v2)]) + fields
            for v1, line in zip(axis1_values, table.tolist()) for v2, fields in zip(axis2_values, line)]
    return rows, int(gaps.any(axis=2).sum()), int((~gaps).any(axis=2).sum())


def write_tables(out_dir: Path, tables, source: str):
    """Write (file name, header, rows, undefined, defined) tables into out_dir.

    Returns (paths, undefined point count).  Raises NoSteadyStateError, and
    writes nothing, when no point of any table produced a value.
    """
    if not any(defined for *_, defined in tables):
        raise NoSteadyStateError(f"no sample point of the {source} produced a value")
    paths = []
    for name, header, rows, _, _ in tables:
        paths.append(out_dir / name)
        write_csv(paths[-1], header, rows)
    return paths, sum(undefined for *_, undefined, _ in tables)


def run_sweep(spec: SweepSpec, out_dir, jobs: int = 1):
    """Execute a sweep and write its CSV; returns (path, undefined_point_count).

    The undefined count is the number of grid points with at least one empty
    output field.  Raises NoSteadyStateError if every sample point failed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis1, axis2 = spec.axis1, spec.axis2
    axis2_values = [None] if axis2 is None else list(axis2.values())
    payloads = [(PathSpec(spec.base if v is None else spec.base.with_value(axis2.parameter, v),
                          axis1.parameter, axis1.start, axis1.stop, axis1.samples), spec.outputs)
                for v in axis2_values]
    columns = map_columns(_column_outputs, payloads, jobs)
    header = [axis1.parameter]
    if axis2 is not None:
        header.append(axis2.parameter)
    for out in spec.outputs:
        header.extend(_FIELDS[out])
    table = grid_rows(axis1.values(), axis2_values, columns)
    paths, undefined = write_tables(out_dir, [(spec.path, header, *table)], "sweep")
    return paths[0], undefined
