import numpy as np
import pytest

from ucgl.core import _powers_qr
from ucgl.involutions import _constant_twists, _moving_twist
from ucgl.stokes import _section_fit, derive_root_sets


@pytest.fixture(scope="session")
def roots():
    """Derived root sets for ranks 1..5, shared across the session."""
    return {n: derive_root_sets(n) for n in range(1, 6)}


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the value-keyed memos before each test: an entry made before a
    test monkeypatches a function they call would hide the patch."""
    _section_fit.cache_clear()
    _powers_qr.cache_clear()
    _moving_twist.cache_clear()
    _constant_twists.clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
