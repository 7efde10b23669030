"""The float kernel against the exact rational steady state of exact_oracle."""

from fractions import Fraction

import numpy as np
import pytest

from exact_oracle import GENERATOR_TABLE, exact_coordinates, generator, principal_minors, to_matrix
from gpdiag.cascade import SystemParams, liouvillian, steady_state
from gpdiag.linops import NoSteadyStateError
from kron_oracle import kron_liouvillian, vec


def box_points(rng, n):
    """n points with drives and rates in [0, 8] and detunings in [-6, 6]."""
    return [SystemParams(*rng.uniform(0.0, 8.0, 2), *rng.uniform(-6.0, 6.0, 2), *rng.uniform(0.0, 8.0, 2))
            for _ in range(n)]


def test_generator_coefficients_are_small_dyadics():
    found = {v for unit in GENERATOR_TABLE for row in unit for v in row}
    assert found == {Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(2)}


def test_exact_state_is_a_fixed_point(rng):
    # every row of L x = 0 holds, the one the trace row replaced too, and the float generator agrees
    for p in box_points(rng, 5):
        x = exact_coordinates(p)
        assert sum(x[:3]) == 1
        assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in generator(p))
        assert np.abs(kron_liouvillian(p) @ vec(to_matrix(x))).max() < 1e-13


def test_steady_state_matches_exact_state(rng):
    errors = [np.abs(steady_state(p) - to_matrix(exact_coordinates(p))).max() for p in box_points(rng, 60)]
    print(f"\nsteady_state vs exact: max {max(errors):.2e}, median {np.median(errors):.2e}")
    assert max(errors) < 1e-12


@pytest.mark.parametrize("p", [SystemParams(0.0, 0.0, gamma3=0.0), SystemParams(3.0, 0.0, gamma3=0.0)],
                         ids=["undriven", "omega2=0"])
def test_scheme2_gaps_agree(p):
    assert exact_coordinates(p) is None
    with pytest.raises(NoSteadyStateError):
        steady_state(p)


def test_weak_omega2_rejections_are_rounding():
    # known discrepancy: at omega2 = 0.001 in scheme II the float kernel's absolute -1e-10 eigenvalue threshold
    # rejects 8 of 21 omega1 points as not positive semidefinite, and the point at drives of 3e8 that the CLI
    # refuses too, yet each exact state is the pure dark state omega2|1> - omega1|3>, so every rejection is
    # rounding; a rule that forgives rounding must update this list.  Each rejected eigenvalue lies within the
    # solve's own error bound eps * s[0] / s[-2] of the scaled generator, the cut that rule would take.
    prefix = "steady state not positive semidefinite (min eigenvalue "
    rejected = []
    for omega1, omega2 in [(omega1, 0.001) for omega1 in np.linspace(0.0, 6.0, 21).tolist()] + [(3e8, 3e8)]:
        p = SystemParams(omega1, omega2, gamma2=6.0, gamma3=0.0)
        x = exact_coordinates(p)
        assert x is not None
        diagonal, minors, det = principal_minors(x)
        assert min(diagonal) >= 0 and minors == [0, 0, 0] and det == 0
        w1, w2 = Fraction(omega1), Fraction(omega2)
        norm = w1 * w1 + w2 * w2
        assert x == [w2 * w2 / norm, 0, w1 * w1 / norm, 0, 0, -w1 * w2 / norm, 0, 0, 0]
        try:
            steady_state(p)
        except NoSteadyStateError as exc:
            assert str(exc).startswith(prefix) and str(exc).endswith(")")
            low = float(str(exc)[len(prefix):-1])
            s = np.linalg.svd(liouvillian(p), compute_uv=False)
            assert -low <= np.finfo(float).eps * s[0] / s[-2]
            rejected.append((round(omega1, 12), omega2))
    assert rejected == [(omega1, 0.001) for omega1 in (2.4, 3.0, 3.6, 3.9, 4.2, 5.1, 5.7, 6.0)] + [(3e8, 3e8)]
