import numpy as np
import pytest

from qcorr import operators as op


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)


@pytest.fixture(autouse=True)
def _empty_check_slot():
    """Start each test with no stored check, whatever ran before it."""
    op._last_checks = None
