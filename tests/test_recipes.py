import json
import math

import numpy as np
import pytest

from gpdiag.linops import NoSteadyStateError
from gpdiag.recipes import RECIPE_IDS, run_recipe


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(rows, idx):
    return [float(r[idx]) if r[idx] != "" else None for r in rows]


@pytest.fixture(scope="module")
def fig2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    run_recipe("fig2", out, samples=41, jobs=1)
    return out


def test_unknown_recipe_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_recipe("fig7", tmp_path)


@pytest.mark.parametrize("recipe_id", ["fig4", "fig5"])
def test_derivative_recipe_needs_three_samples(tmp_path, recipe_id):
    with pytest.raises(ValueError, match=f"{recipe_id} needs samples >= 3"):
        run_recipe(recipe_id, tmp_path, samples=2, jobs=1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("recipe_id", ["fig2", "fig3a"])
def test_no_value_anywhere_raises(tmp_path, recipe_id):
    # with no decay the steady state is degenerate at every point
    with pytest.raises(NoSteadyStateError):
        run_recipe(recipe_id, tmp_path, samples=3, jobs=1, gamma2=0.0, gamma3=0.0)


class TestFig2(object):
    def test_files_and_row_counts(self, fig2_dir):
        for name in ("fig2_ii_6_6.csv", "fig2_i_6_6.csv", "fig2_ii_3_6.csv", "fig2_i_3_6.csv"):
            header, rows = read_rows(fig2_dir / name)
            assert header == ["delta", "lambda1", "lambda2", "lambda3"]
            assert len(rows) == 41

    def test_scheme_ii_resonant_purity(self, fig2_dir):
        header, rows = read_rows(fig2_dir / "fig2_ii_6_6.csv")
        at_zero = [r for r in rows if float(r[0]) == 0.0]
        assert len(at_zero) == 1
        assert abs(float(at_zero[0][1]) - 1.0) <= 1e-8

    def test_eigenvalues_in_range(self, fig2_dir):
        for name in ("fig2_ii_6_6.csv", "fig2_i_6_6.csv", "fig2_ii_3_6.csv", "fig2_i_3_6.csv"):
            _, rows = read_rows(fig2_dir / name)
            for r in rows:
                lams = [float(v) for v in r[1:]]
                assert all(-1e-10 <= v <= 1.0 + 1e-10 for v in lams)
                assert abs(sum(lams) - 1.0) <= 1e-9
                assert lams == sorted(lams, reverse=True)


class TestFig3(object):
    def test_grid_and_concurrence_peak(self, tmp_path):
        run_recipe("fig3a", tmp_path, samples=21, jobs=1)
        header, rows = read_rows(tmp_path / "fig3a.csv")
        assert header == ["delta", "omega1_minus_omega2", "concurrence"]
        assert len(rows) == 21 * 21
        conc = column(rows, 2)
        assert all(v is not None and -1e-10 <= v <= 1.0 + 1e-10 for v in conc)
        best = max(range(len(conc)), key=lambda i: conc[i])
        delta_best = float(rows[best][0])
        dom_best = float(rows[best][1])
        # maximal entanglement sits near resonance with matched drives
        assert abs(delta_best) <= 1.0
        assert abs(dom_best) <= 1.0

    def test_scheme_i_variant(self, tmp_path):
        run_recipe("fig3b", tmp_path, samples=11, jobs=1)
        _, rows = read_rows(tmp_path / "fig3b.csv")
        conc = column(rows, 2)
        assert all(v is not None for v in conc)
        # decoherence strictly lowers the peak below the ideal value 1
        assert max(conc) < 1.0


@pytest.fixture(scope="module")
def fig4_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4")
    run_recipe("fig4", out, samples=41, jobs=1)
    return out


class TestFig4(object):
    def test_files(self, fig4_dir):
        for window in ("separable", "bell"):
            for variant in ("ideal", "scheme2", "scheme1"):
                header, rows = read_rows(fig4_dir / f"fig4_{window}_{variant}.csv")
                assert header == ["delta_offset", "dX", "dgamma_dDelta"]
                assert len(rows) == 41 * 13

    def test_ideal_span_contrast(self, fig4_dir):
        spans = {}
        for window in ("separable", "bell"):
            _, rows = read_rows(fig4_dir / f"fig4_{window}_ideal.csv")
            vals = [v for v in column(rows, 2) if v is not None]
            spans[window] = max(vals) - min(vals)
        assert spans["separable"] / spans["bell"] >= 3.0

    def test_separable_numeric_has_empty_unphysical_cells(self, fig4_dir):
        _, rows = read_rows(fig4_dir / "fig4_separable_scheme2.csv")
        dgam = column(rows, 2)
        assert any(v is None for v in dgam)   # dX < 0 at X0 = 0 has no state
        assert any(v is not None for v in dgam)

    def test_meta_present(self, fig4_dir):
        meta = json.loads((fig4_dir / "fig4_meta.json").read_text())
        assert meta["omega2"] == 2.0
        assert meta["delta_offset_range"] == [-0.5, 0.5]

    def test_window_reference_without_steady_state_gives_gap_surface(self, tmp_path):
        # without gamma2 the separable window's base point (omega1 = 0) has no
        # unique steady state in either scheme, while the Bell scheme-I one has
        result = run_recipe("fig4", tmp_path, samples=5, jobs=1, gamma2=0.0)
        empty = {p.name: [v is None for v in column(read_rows(p)[1], 2)] for p in result.files if p.suffix == ".csv"}
        assert all(empty["fig4_separable_scheme2.csv"]) and all(empty["fig4_separable_scheme1.csv"])
        assert not any(empty["fig4_bell_scheme1.csv"]) and not any(empty["fig4_separable_ideal.csv"])
        assert result.undefined_points == sum(map(sum, empty.values()))


@pytest.fixture(scope="module")
def fig5_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    run_recipe("fig5", out, samples=121, jobs=1)
    return out


class TestFig5(object):
    def test_files_and_anchor(self, fig5_dir):
        for tag in ("ab", "cd", "ef", "gh", "ij"):
            header, rows = read_rows(fig5_dir / f"fig5_{tag}.csv")
            assert header == ["delta1", "gamma_g", "dgamma"]
            assert len(rows) == 121
            assert float(rows[0][0]) == -3.0
            assert float(rows[0][1]) == 0.0

    def test_gamma_defined_everywhere(self, fig5_dir):
        for tag in ("ab", "cd", "ef", "gh", "ij"):
            _, rows = read_rows(fig5_dir / f"fig5_{tag}.csv")
            assert all(r[1] != "" and r[2] != "" for r in rows)


@pytest.fixture(scope="module")
def fig6_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig6")
    run_recipe("fig6", out, samples=121, jobs=2)
    return read_rows(out / "fig6.csv")


class TestFig6(object):
    def test_shape(self, fig6_rows):
        header, rows = fig6_rows
        assert header == ["delta", "omega1_minus_omega2", "gamma_g_change_percent"]
        assert len(rows) == 21 * 21

    def test_stability_plateau_location_and_spread(self, fig6_rows):
        _, rows = fig6_rows
        pct = column(rows, 2)
        assert all(v is not None for v in pct)
        best = min(range(len(pct)), key=lambda i: abs(pct[i]))
        assert abs(float(rows[best][1])) <= 1.0   # |omega1 - omega2| <= 1
        assert abs(float(rows[best][0])) <= 0.5   # |delta| <= 0.5
        spread = max(pct) - min(pct)
        # total spread of order 10 percent, within a factor of two
        assert 5.0 <= spread <= 20.0, f"spread {spread:.2f}%"


class TestDeterminism(object):
    @pytest.mark.parametrize("recipe_id,samples", [("fig2", 11), ("fig5", 21)])
    def test_recipes_byte_identical(self, tmp_path, recipe_id, samples):
        r1 = run_recipe(recipe_id, tmp_path / "a", samples=samples, jobs=1)
        r2 = run_recipe(recipe_id, tmp_path / "b", samples=samples, jobs=2)
        for p1, p2 in zip(r1.files, r2.files):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()
