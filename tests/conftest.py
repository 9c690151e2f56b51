import numpy as np
import pytest

from ucgl.stokes import derive_root_sets


@pytest.fixture(scope="session")
def roots():
    """Derived root sets for ranks 1..4, shared across the session."""
    return {n: derive_root_sets(n) for n in range(1, 5)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
