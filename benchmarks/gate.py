"""Correctness gate: compare a call's CSV outputs with stored reference CSVs.

References are the CSVs the program wrote for the same inputs, gzipped, one
directory per (workload, input variant).  Fields are compared as numbers, not
bytes: |out - ref| <= TOLERANCE * max(1, |ref|).  An empty (undefined) field
must be empty in both.  Headers, row counts and the set of CSV files must
match exactly.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from pathlib import Path

TOLERANCE = 1e-9


@dataclass
class GateResult:
    max_abs_err: float = 0.0
    undefined_fields: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def read_rows(path: Path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as handle:
        return [line.rstrip("\n").split(",") for line in handle]


def compare_rows(name, out_rows, ref_rows, result: GateResult) -> None:
    if out_rows[:1] != ref_rows[:1]:
        result.problems.append(f"{name}: header {out_rows[:1]} != {ref_rows[:1]}")
        return
    if len(out_rows) != len(ref_rows):
        result.problems.append(f"{name}: {len(out_rows)} rows, reference has {len(ref_rows)}")
        return
    for line, (out, ref) in enumerate(zip(out_rows[1:], ref_rows[1:]), start=2):
        if len(out) != len(ref):
            result.problems.append(f"{name}:{line}: {len(out)} fields, reference has {len(ref)}")
            continue
        for column, (a, b) in enumerate(zip(out, ref)):
            if a == "" or b == "":
                result.undefined_fields += a == ""
                if a != b:
                    result.problems.append(f"{name}:{line}:{column}: {a!r} vs reference {b!r}")
                continue
            expected = float(b)
            err = abs(float(a) - expected)
            result.max_abs_err = max(result.max_abs_err, err)
            if not err <= TOLERANCE * max(1.0, abs(expected)):
                result.problems.append(f"{name}:{line}:{column}: {a} vs reference {b}")


def check_outputs(out_dir: Path, ref_dir: Path) -> GateResult:
    """Compare every CSV in out_dir with its reference <name>.gz in ref_dir."""
    result = GateResult()
    produced = sorted(p.name for p in out_dir.glob("*.csv"))
    expected = sorted(p.name[:-3] for p in ref_dir.glob("*.csv.gz"))
    if not expected:
        result.problems.append(f"no reference CSVs in {ref_dir}")
    if produced != expected:
        result.problems.append(f"CSV files {produced} != reference {expected}")
        return result
    for name in expected:
        compare_rows(name, read_rows(out_dir / name), read_rows(ref_dir / f"{name}.gz"), result)
    return result
