"""A sweep with gaps against its stored reference.

data/sweeps/gap_sweep.csv.gz is the CSV that `gpdiag sweep` writes for
CONFIG at --jobs 1.  Its omega2 = 0 row has no unique steady state, so every
output column has a gap there and dgamma, which needs a gap-free path, is
empty throughout.  The comparison is that of test_recipe_golden.py: header,
row count and empty fields exactly, values within TOLERANCE * max(1, |ref|).
"""

from pathlib import Path

from gpdiag.sweep import parse_config, run_sweep
from test_recipe_golden import assert_close, read_rows

REFERENCE = Path(__file__).parent / "data" / "sweeps" / "gap_sweep.csv.gz"
CONFIG = """\
[sweep]
scheme = II
omega1 = 3
outputs = eigenvalues, purity, concurrence, gamma_g, dgamma
path = gap_sweep.csv

[axis1]
parameter = omega2
start = 0
stop = 4
samples = 5

[axis2]
parameter = delta1
start = -1
stop = 1
samples = 3
"""


def test_gap_sweep_matches_reference(tmp_path):
    [path], undefined = run_sweep(parse_config(CONFIG), tmp_path, jobs=1)
    assert undefined == 15
    out, ref = read_rows(path), read_rows(REFERENCE)
    assert out[0] == ref[0]
    assert len(out) == len(ref)
    for line, (out_row, ref_row) in enumerate(zip(out[1:], ref[1:]), start=2):
        where = f"{path.name}:{line}"
        assert len(out_row) == len(ref_row), where
        for a, b in zip(out_row, ref_row):
            if a == "" or b == "":
                assert a == b, f"{where}: {a!r} vs reference {b!r}"
            else:
                assert_close(a, b, where)
