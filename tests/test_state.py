"""The state container's input checks."""

import re

import numpy as np
import pytest

from spintrack import StateVector


@pytest.mark.parametrize(
    "values, dx, fragment",
    [
        (np.zeros(5, dtype=complex), 1.0, "expected a (channels, points) array, got shape (5,)"),
        (np.zeros((1, 5, 1), dtype=complex), 1.0, "expected a (channels, points) array, got shape (1, 5, 1)"),
        (np.zeros((1, 5), dtype=complex), 0.0, "grid spacing must be positive, got 0.0"),
        (np.zeros((1, 5)), -0.5, "grid spacing must be positive, got -0.5"),
    ],
    ids=["one_axis", "three_axes", "zero_dx", "negative_dx_real_values"],
)
def test_state_vector_rejects_a_malformed_state(values, dx, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        StateVector(values, dx)


def test_state_vector_holds_real_values_as_complex():
    state = StateVector(np.arange(6.0).reshape(2, 3), 0.5)
    assert state.values.dtype == np.complex128
    np.testing.assert_array_equal(state.values, np.arange(6.0).reshape(2, 3))
