"""The linear-response derivative of response_oracle against central differences of the kernel."""

import dataclasses

import numpy as np
import pytest

from gpdiag.cascade import SystemParams, steady_state
from response_oracle import COLUMNS, steady_state_derivative

H = 1e-5


def response_points(rng, n):
    """n points with drives and rates in [0.5, 8] and detunings in [-6, 6], so every p - H stays valid."""
    return [SystemParams(*rng.uniform(0.5, 8.0, 2), *rng.uniform(-6.0, 6.0, 2), *rng.uniform(0.5, 8.0, 2))
            for _ in range(n)]


@pytest.mark.parametrize("parameter", list(COLUMNS))
def test_derivative_matches_central_difference(rng, parameter):
    errors = []
    for p in response_points(rng, 40):
        value = getattr(p, parameter)
        up = steady_state(dataclasses.replace(p, **{parameter: value + H}))
        down = steady_state(dataclasses.replace(p, **{parameter: value - H}))
        drho = steady_state_derivative(p, parameter)
        assert abs(np.trace(drho)) < 1e-12 and np.abs(drho - drho.conj().T).max() < 1e-12
        errors.append(np.abs(drho - (up - down) / (2.0 * H)).max())
    print(f"\n{parameter}: linear response vs central difference at h = {H:g}: max {max(errors):.2e}")
    assert max(errors) < 1e-8
