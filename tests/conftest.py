"""Shared fixtures; the small-instance builders live in `spintrack.oracle`."""

# spintrack before numpy: the package then sets OPENBLAS_NUM_THREADS=1 unless
# it is set, and the suite steps on one BLAS thread as a run does
import spintrack  # noqa: F401  isort: skip

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
