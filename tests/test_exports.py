"""The package's public names exist."""

import ucgl


def test_all_exports_resolve():
    """A stale entry of ucgl.__all__ would break `from ucgl import *`."""
    assert [name for name in ucgl.__all__ if not hasattr(ucgl, name)] == []
