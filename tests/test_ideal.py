import math

import numpy as np

import gpdiag.ideal
import ideal_oracle as oracle
from gpdiag.cascade import SystemParams, steady_state
from gpdiag.gp import fix_global_phase, two_point_phases
from gpdiag.ideal import beta_coefficient, pure_concurrence, taylor_gp
from ideal_oracle import beta_coefficient_rederived, dark_state, ideal_density_matrix
from gpdiag.linops import hermitian_eig
from gpdiag.photons import atomic_to_photon, concurrence
from gpdiag.recipes import run_recipe
from gpdiag.sweep import photon_states


def scheme_ii_at(x, delta_bar, omega=6.0):
    """Ideal-system parameters at mixing angle x with the detuning on drive 1."""
    o1, o2 = omega * math.sin(x), omega * math.cos(x)
    return SystemParams(o1, o2, delta1=delta_bar * omega, delta2=0.0, gamma3=0.0)


class TestDarkState:
    def test_limits(self):
        np.testing.assert_allclose(dark_state(0.0), [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            dark_state(math.pi / 4), [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], atol=1e-15
        )

    def test_normalized(self, rng):
        for x in rng.uniform(0, math.pi / 2, size=100):
            assert abs(np.linalg.norm(dark_state(x)) - 1.0) <= 1e-14


class TestPureConcurrence:
    def test_extremes(self):
        assert pure_concurrence(math.pi / 4) == 1.0
        assert pure_concurrence(0.0) == 0.0

    def test_matches_spin_flip_on_dark_state(self):
        for x in np.linspace(0.0, math.pi / 2, 50):
            psi = dark_state(x)
            rho = np.outer(psi, psi.conj())
            assert abs(concurrence(rho) - pure_concurrence(x)) <= 1e-10


class TestIdealDensityMatrix:
    def test_resonant_form_is_dark_projector(self):
        for x in (0.2, math.pi / 4, 1.3):
            rho = ideal_density_matrix(x, 0.0, 0.354)
            psi = dark_state(x)
            np.testing.assert_array_equal(rho, np.outer(psi, psi.conj()))

    def test_unit_trace(self, rng):
        for _ in range(20):
            rho = ideal_density_matrix(rng.uniform(0.1, 1.4), rng.uniform(-0.2, 0.2), rng.uniform(0, 1))
            assert abs(np.trace(rho) - 1.0) <= 1e-14

    def test_matches_numeric_steady_state_to_second_order(self):
        # elementwise difference from the exact steady state must be O(delta_bar^2)
        for delta_bar in (0.01, 0.005):
            p = scheme_ii_at(math.pi / 4, delta_bar)
            numeric = atomic_to_photon(steady_state(p))
            closed = ideal_density_matrix(oracle.mixing_angle(p), oracle.delta_bar(p), oracle.gamma21(p))
            assert np.max(np.abs(numeric - closed)) <= 5.0 * delta_bar**2

    def test_from_system_accessors(self):
        p = scheme_ii_at(math.pi / 4, 0.01)
        assert abs(oracle.mixing_angle(p) - math.pi / 4) <= 1e-12
        assert abs(oracle.delta_bar(p) - 0.01) <= 1e-15
        assert abs(oracle.gamma21(p) - 6.0 / 12.0) <= 1e-15


class TestBetaCoefficient:
    def test_vanishes_at_half_pi(self):
        assert abs(beta_coefficient(math.pi / 2, 0.7)) <= 1e-12

    def test_hand_value(self):
        # worked by hand before the build: -(1/8)(1/4)(4 - 0 - 1) + 1*(0 - 1)/16
        assert abs(beta_coefficient(math.pi / 4, 0.0) - (-5.0 / 32.0)) <= 1e-15

    def test_finite_on_grid(self):
        for x in np.linspace(0.0, math.pi / 2, 21):
            for g in np.linspace(0.0, 1.0, 11):
                assert math.isfinite(beta_coefficient(x, g))

    def test_rederived_hand_value(self):
        assert abs(beta_coefficient_rederived(math.pi / 4, 0.0) - (-1.0 / 8.0)) <= 1e-15

    def test_rederived_matches_overlap_curvature(self):
        # oracle: quadratic coefficient of Re<psi(0)|psi(delta)> for the
        # dominant eigenvector of the closed-form matrix (component-0 gauge)
        x, g = 0.6, 0.45
        h = 1e-3

        psi0 = fix_global_phase(dark_state(x))

        def overlap_re(delta_bar):
            rho = ideal_density_matrix(x, delta_bar, g)
            _, v = hermitian_eig(rho)
            psi = fix_global_phase(v[:, -1])
            return float(np.vdot(psi0, psi).real)

        curvature = (overlap_re(h) + overlap_re(-h) - 2.0 * overlap_re(0.0)) / h**2
        assert abs(curvature / 2.0 - beta_coefficient_rederived(x, g)) <= 1e-4

    def test_transcription_vs_rederivation_diagnostic(self):
        # the two closed forms disagree; keep the discrepancy visible instead
        # of silently replacing one with the other
        grid = [(x, g) for x in np.linspace(0.1, 1.4, 7) for g in (0.0, 0.5, 1.0)]
        worst = max(abs(beta_coefficient(x, g) - beta_coefficient_rederived(x, g)) for x, g in grid)
        print(f"\nmax |beta_transcribed - beta_rederived| over grid: {worst:.4f}")
        assert worst > 1e-3  # they are genuinely different expressions
        for x, g in grid:
            assert math.isfinite(beta_coefficient(x, g))
            assert math.isfinite(beta_coefficient_rederived(x, g))

    def test_fig4_span_ratio_evidence(self, tmp_path, monkeypatch):
        # evidence for choosing the beta of taylor_gp: the separable/Bell span
        # ratio of fig4 (criterion 07 needs >= 3) at 41 samples and default rates
        def span_ratios(out):
            ratios = {}
            for variant in ("ideal", "scheme2", "scheme1"):
                spans = []
                for window in ("separable", "bell"):
                    csv = (out / f"fig4_{window}_{variant}.csv").read_text().splitlines()[1:]
                    values = [float(field) for field in (line.split(",")[2] for line in csv) if field]
                    spans.append(max(values) - min(values))
                ratios[variant] = spans[0] / spans[1]
            return ratios

        run_recipe("fig4", tmp_path / "transcribed", samples=41, jobs=1)
        monkeypatch.setattr(gpdiag.ideal, "beta_coefficient", beta_coefficient_rederived)
        run_recipe("fig4", tmp_path / "rederived", samples=41, jobs=1)
        transcribed, rederived = span_ratios(tmp_path / "transcribed"), span_ratios(tmp_path / "rederived")
        print(f"\nfig4 span ratio: ideal {transcribed['ideal']:.3f} (transcribed beta) / {rederived['ideal']:.3f} "
              f"(rederived beta), scheme II {transcribed['scheme2']:.3f}, scheme I {transcribed['scheme1']:.3f}")
        assert abs(transcribed["ideal"] - 3.214) <= 0.01
        assert abs(rederived["ideal"] - 1.041) <= 0.01
        assert abs(transcribed["scheme2"] - 1.554) <= 0.01
        assert abs(transcribed["scheme1"] - 1.156) <= 0.01
        for name in ("separable_scheme2", "separable_scheme1", "bell_scheme2", "bell_scheme1"):
            numeric = [tmp_path / beta / f"fig4_{name}.csv" for beta in ("transcribed", "rederived")]
            assert numeric[0].read_bytes() == numeric[1].read_bytes()

    @staticmethod
    def _concurrence_from_slope(gamma3):
        """(X, C, C_est) at 10 mixing angles: C_est inverts criterion 06's s = gamma2 cos^2 X / (2 omega2^2)."""
        omega2 = gamma2 = 6.0
        h = 1e-3
        rows = []
        for x in np.linspace(0.1, 1.45, 10):
            params = [SystemParams(math.tan(x) * omega2, omega2, delta1=d, gamma2=gamma2, gamma3=gamma3)
                      for d in (0.0, h, -h)]
            states, defined = photon_states(params)
            assert defined == [0, 1, 2]
            plus, minus = two_point_phases(states[0], states[1:])
            slope = -(plus - minus) / (2.0 * h)
            cos4 = min(max(2.0 * slope * omega2**2 / gamma2, 0.0), 1.0)
            rows.append((x, float(concurrence(states[0])), math.sin(2.0 * math.acos(cos4**0.25))))
        return rows

    def test_concurrence_from_phase_slope_evidence(self):
        # the paper's first claim: the resonant slope of the phase gives the concurrence. It does in
        # scheme II, where the state is the pure dark state; scheme I's cascade decay breaks the inversion
        scheme2, scheme1 = self._concurrence_from_slope(0.0), self._concurrence_from_slope(1.0)
        miss2, miss1 = (max(abs(c - c_est) for _, c, c_est in rows) for rows in (scheme2, scheme1))
        x, c, c_est = scheme1[6]
        print(f"\nmax |C - C_est|: scheme II {miss2:.2e}, scheme I {miss1:.3f} "
              f"(X = {x:.2f}: C = {c:.3f}, C_est = {c_est:.3f})")
        assert miss2 <= 1e-3
        assert miss1 > 0.5
        assert abs(x - 1.0) <= 1e-12
        assert round(c, 2) == 0.31 and round(c_est, 2) == 0.94


class TestResonantConcurrence:
    """The pipeline's concurrence at two-photon resonance against its closed form, in both schemes."""

    def test_matches_pipeline(self):
        # 300 resonant points, the first 20 in scheme II (gamma3 = 0); about 8e-15 at most when this was added
        rng = np.random.default_rng(1)
        w1, w2, g2 = rng.uniform(0.05, 10.0, size=(3, 300))
        g3 = rng.uniform(0.0, 5.0, size=300)
        g3[:20] = 0.0
        params = [SystemParams(*point) for point in zip(w1, w2, np.zeros(300), np.zeros(300), g2, g3)]
        miss = max(abs(oracle.resonant_concurrence(p) - concurrence(atomic_to_photon(steady_state(p))))
                   for p in params)
        assert miss <= 1e-12

    def test_scheme_ii_is_sin_2x(self, rng):
        for _ in range(50):
            p = SystemParams(*rng.uniform(0.05, 10.0, size=2), gamma2=rng.uniform(0.05, 10.0), gamma3=0.0)
            assert abs(oracle.resonant_concurrence(p) - math.sin(2.0 * oracle.mixing_angle(p))) <= 1e-14

    def test_separable_curve(self):
        # 4 g3 w1^2 = g2 g3 (g2 + g3) + 4 g2 w2^2 at g2 = 6, g3 = 1, w2 = 2: 138 = 42 + 96
        p = SystemParams(math.sqrt(34.5), 2.0, gamma2=6.0, gamma3=1.0)
        assert oracle.resonant_concurrence(p) <= 1e-12
        assert concurrence(atomic_to_photon(steady_state(p))) <= 1e-12


class TestTaylorGp:
    def test_zero_detuning_is_zero(self, rng):
        for _ in range(10):
            assert taylor_gp(rng.uniform(0, 1.5), 0.0, rng.uniform(-0.3, 0.3), 0.5) == 0.0

    def test_vanishes_at_half_pi(self):
        assert abs(taylor_gp(math.pi / 2, 0.1, 0.1, 0.5)) <= 1e-15

    def test_odd_in_delta(self, rng):
        for _ in range(20):
            x = rng.uniform(0.1, 1.4)
            d = rng.uniform(-0.3, 0.3)
            g = rng.uniform(0.0, 1.0)
            assert abs(taylor_gp(x, d, 0.0, g) + taylor_gp(x, -d, 0.0, g)) <= 1e-12

    def test_leading_slope(self):
        for x in (math.pi / 6, math.pi / 4, math.pi / 3):
            g = 0.354
            d = 1e-6
            slope = taylor_gp(x, d, 0.0, g) / d
            assert abs(slope - (-g * math.cos(x) ** 2)) <= 1e-10

    def test_slope_contrast_between_regimes(self):
        g = 1.5
        d, dx = 0.05, 0.1
        sep = abs(taylor_gp(0.0, d, dx, g) / d)
        bell = abs(taylor_gp(math.pi / 4, d, dx, g) / d)
        assert sep > bell

    def test_cross_term_tracks_dark_state_concurrence(self):
        # numerator cross coefficient is -gamma21 * C / 4 with C the spin-flip
        # concurrence of the dark state
        g = 0.8
        d, dx = 1e-4, 1e-4
        for x in (0.3, 0.7, 1.1):
            psi = dark_state(x)
            c_val = concurrence(np.outer(psi, psi.conj()))
            mixed = (taylor_gp(x, d, dx, g) - taylor_gp(x, d, -dx, g)) / (2.0 * dx)
            assert abs(mixed - (-g * c_val * d / 4.0)) <= 1e-10 * max(1.0, abs(d))
