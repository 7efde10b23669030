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
import io
import math
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from gpdiag.cascade import DEFAULT_GAMMA2, DEFAULT_GAMMA3_IDEAL, DEFAULT_GAMMA3_REAL, SystemParams, steady_state
from gpdiag.gp import SWEEPABLE, UndefinedPhaseError, gp_curve_from_states, gp_derivative
from gpdiag.linops import DegenerateSteadyStateError, NoSteadyStateError, hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence, embed_two_qubit, purity

OUTPUT_KINDS = ("eigenvalues", "purity", "concurrence", "gamma_g", "dgamma")
SCHEMES = ("I", "II", "custom")

_SWEEP_KEYS = ("scheme", "path", "outputs", "omega1", "omega2",
               "delta1", "delta2", "gamma2", "gamma3")
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
        for out in self.outputs:
            if out not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output {out!r}")
        if self.axis2 is not None and self.axis2.parameter == self.axis1.parameter:
            raise ConfigError("axis1 and axis2 must sweep different parameters")
        if "dgamma" in self.outputs and self.axis1.samples < 3:
            raise ConfigError(f"output dgamma needs axis1 samples >= 3, got {self.axis1.samples}")


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
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    base = _default_base(scheme)
    for key in ("omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3"):
        if key in sweep:
            value = _get_float(sweep, key, "[sweep]")
            try:
                base = base.with_value(key, value)
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


def serialize_config(spec: SweepSpec) -> str:
    """Canonical config text; parse(serialize(parse(x))) == parse(x)."""
    out = io.StringIO()
    out.write("[sweep]\n")
    out.write(f"scheme = {spec.scheme}\n")
    out.write(f"path = {spec.path}\n")
    out.write(f"outputs = {', '.join(spec.outputs)}\n")
    for key in ("omega1", "omega2", "delta1", "delta2", "gamma2", "gamma3"):
        out.write(f"{key} = {getattr(spec.base, key)!r}\n")
    for name, axis in (("axis1", spec.axis1), ("axis2", spec.axis2)):
        if axis is None:
            continue
        out.write(f"\n[{name}]\n")
        out.write(f"parameter = {axis.parameter}\n")
        out.write(f"start = {axis.start!r}\n")
        out.write(f"stop = {axis.stop!r}\n")
        out.write(f"samples = {axis.samples}\n")
    return out.getvalue()


def format_field(value) -> str:
    """12-significant-digit float formatting; empty string for undefined."""
    if value is None:
        return ""
    return f"{value:.12g}"


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(format_field(v) for v in row) + "\n")


def map_columns(fn, payloads, jobs):
    """fn(*payload) for every payload, in payload order.

    With jobs > 1 the calls are spread over a pool of `jobs` worker
    processes, one payload at a time, so results never depend on the worker
    count.
    """
    if jobs > 1 and len(payloads) > 1:
        with Pool(processes=jobs) as pool:
            return pool.starmap(fn, payloads, chunksize=1)
    return [fn(*p) for p in payloads]


def _column_outputs(base, parameter, values, outputs):
    """Evaluate `outputs` at every value of `parameter` on the path through `base`.

    Returns one list of fields per value, in the column order of `outputs`
    (None = undefined).  gamma_g/dgamma are evaluated along the path.
    """
    states = []
    for v in values:
        try:
            states.append(atomic_to_photon(steady_state(base.with_value(parameter, v))))
        except (DegenerateSteadyStateError, NoSteadyStateError):
            states.append(None)
    cells = [dict() for _ in values]
    for i, rho in enumerate(states):
        if rho is None:
            continue
        if "eigenvalues" in outputs:
            lam = hermitian_eig(rho).eigenvalues[::-1]
            cells[i]["lambda1"], cells[i]["lambda2"], cells[i]["lambda3"] = map(float, lam)
        if "purity" in outputs:
            cells[i]["purity"] = purity(rho)
        if "concurrence" in outputs:
            cells[i]["concurrence"] = concurrence(embed_two_qubit(rho))
    if "gamma_g" in outputs or "dgamma" in outputs:
        defined = [i for i, rho in enumerate(states) if rho is not None]
        gammas = [None] * len(values)
        if len(defined) >= 2:
            try:
                curve = gp_curve_from_states([states[i] for i in defined],
                                             [values[i] for i in defined])
                for i, (_, g) in zip(defined, curve):
                    gammas[i] = g
            except UndefinedPhaseError:
                pass
        if "gamma_g" in outputs:
            for i, g in enumerate(gammas):
                cells[i]["gamma_g"] = g
        if "dgamma" in outputs and all(g is not None for g in gammas):
            deriv = gp_derivative(list(zip(values.tolist(), gammas)))
            for i, (_, d) in enumerate(deriv):
                cells[i]["dgamma"] = d
    columns = [col for out in outputs for col in _output_columns(out)]
    return [[cell.get(col) for col in columns] for cell in cells]


def _output_columns(output: str):
    if output == "eigenvalues":
        return ("lambda1", "lambda2", "lambda3")
    return (output,)


def grid_rows(axis1_values, axis2_values, columns):
    """Rows of a table whose columns[i2][i1] is the list of fields at one point.

    Rows run axis1-major, axis2-minor; axis2_values is [None] for a table of
    one column.  Returns (rows, undefined, defined): the rows and the counts
    of points with at least one empty field and with at least one value.
    """
    rows, undefined, defined = [], 0, 0
    for i1, v1 in enumerate(axis1_values):
        for i2, v2 in enumerate(axis2_values):
            fields = columns[i2][i1]
            undefined += any(v is None for v in fields)
            defined += any(v is not None for v in fields)
            rows.append([float(v1)] + ([] if v2 is None else [float(v2)]) + fields)
    return rows, undefined, defined


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
    axis1_values = spec.axis1.values()
    axis2_values = [None] if spec.axis2 is None else list(spec.axis2.values())
    payloads = [(spec.base if v is None else spec.base.with_value(spec.axis2.parameter, v),
                 spec.axis1.parameter, axis1_values, spec.outputs)
                for v in axis2_values]
    columns = map_columns(_column_outputs, payloads, jobs)
    header = [spec.axis1.parameter]
    if spec.axis2 is not None:
        header.append(spec.axis2.parameter)
    for out in spec.outputs:
        header.extend(_output_columns(out))
    table = grid_rows(axis1_values, axis2_values, columns)
    paths, undefined = write_tables(out_dir, [(spec.path, header, *table)], "sweep")
    return paths[0], undefined
