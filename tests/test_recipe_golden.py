"""Every recipe's CSVs and sidecar against stored references.

data/recipes/<id>/<name>.csv.gz is the <name>.csv written by
`gpdiag recipe <id> --samples <n>` at the default rates, with n from CASES,
and data/recipes/<id>/<id>_meta.json is the sidecar of that run.  Headers,
row counts, empty (undefined) fields and the undefined-point count must match
exactly, and so must the sidecar's keys, strings, lists and number types.
Values must agree within TOLERANCE * max(1, |ref|), which holds across LAPACK
builds while any real change of output shows.

After a deliberate change of output, regenerate the references with
`PYTHONPATH=src python tests/test_recipe_golden.py` and report the moved
values.
"""

import gzip
import json
import tempfile
from pathlib import Path

import pytest

from gpdiag.recipes import run_recipe

DATA = Path(__file__).parent / "data" / "recipes"
TOLERANCE = 1e-9
# recipe id: (samples per axis, undefined points)
CASES = {"fig2": (41, 0), "fig3a": (21, 0), "fig3b": (21, 0), "fig4": (21, 252), "fig5": (121, 0), "fig6": (21, 0)}


def read_rows(path: Path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as handle:
        return [line.rstrip("\n").split(",") for line in handle]


def csv_files(result):
    return sorted(p for p in result.files if p.suffix == ".csv")


def meta_file(result):
    [path] = [p for p in result.files if p.name.endswith("_meta.json")]
    return path


def assert_close(a, b, where):
    assert abs(float(a) - float(b)) <= TOLERANCE * max(1.0, abs(float(b))), f"{where}: {a} vs reference {b}"


def assert_meta_matches(out, ref, where):
    if isinstance(ref, dict):
        assert isinstance(out, dict) and sorted(out) == sorted(ref), f"{where}: keys {sorted(out)}"
        for key in ref:
            assert_meta_matches(out[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(out, list) and len(out) == len(ref), f"{where}: {out!r} vs reference {ref!r}"
        for i, (a, b) in enumerate(zip(out, ref)):
            assert_meta_matches(a, b, f"{where}[{i}]")
    elif type(ref) in (int, float):
        assert type(out) is type(ref), f"{where}: {out!r} vs reference {ref!r}"
        assert_close(out, ref, where)
    else:
        assert out == ref, f"{where}: {out!r} vs reference {ref!r}"


@pytest.mark.parametrize("recipe_id", CASES)
def test_recipe_matches_reference(recipe_id, tmp_path):
    samples, undefined = CASES[recipe_id]
    result = run_recipe(recipe_id, tmp_path, samples=samples, jobs=1)
    assert result.undefined_points == undefined
    refs = sorted((DATA / recipe_id).glob("*.csv.gz"))
    assert [p.name for p in csv_files(result)] == [p.name[:-3] for p in refs]
    for out_path, ref_path in zip(csv_files(result), refs):
        out, ref = read_rows(out_path), read_rows(ref_path)
        assert out[0] == ref[0], out_path.name
        assert len(out) == len(ref), out_path.name
        for line, (out_row, ref_row) in enumerate(zip(out[1:], ref[1:]), start=2):
            where = f"{out_path.name}:{line}"
            assert len(out_row) == len(ref_row), where
            for a, b in zip(out_row, ref_row):
                if a == "" or b == "":
                    assert a == b, f"{where}: {a!r} vs reference {b!r}"
                else:
                    assert_close(a, b, where)
    meta = meta_file(result)
    ref_meta = DATA / recipe_id / meta.name
    assert_meta_matches(json.loads(meta.read_text(encoding="utf-8")),
                        json.loads(ref_meta.read_text(encoding="utf-8")), meta.name)


def regenerate():
    for recipe_id, (samples, _) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = run_recipe(recipe_id, tmp, samples=samples, jobs=1)
            print(f"{recipe_id}: undefined points {result.undefined_points}")
            (DATA / recipe_id).mkdir(parents=True, exist_ok=True)
            for path in csv_files(result):
                with gzip.GzipFile(DATA / recipe_id / f"{path.name}.gz", "wb", mtime=0) as out:
                    out.write(path.read_bytes())
            meta = meta_file(result)
            (DATA / recipe_id / meta.name).write_bytes(meta.read_bytes())


if __name__ == "__main__":
    regenerate()
