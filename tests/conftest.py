"""Shared fixtures; the small-instance builders live in `spintrack.oracle`."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
