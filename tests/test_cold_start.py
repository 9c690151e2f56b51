"""A process that samples nothing loads no scipy, and core.kernel is null_space."""

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import null_space

import ucgl.groupoid as groupoid
import ucgl.symplectic as symplectic
from ucgl.core import kernel


def _scipy_modules_after(code):
    """The scipy modules loaded after running code in a fresh interpreter."""
    probe = code + "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_derive_roots_load_no_scipy():
    loaded = _scipy_modules_after(
        "import json, sys, ucgl, ucgl.cli\n"
        "assert ucgl.cli.main(['derive-roots', '--n', '4']) == 0")
    assert loaded == []


def test_sampling_loads_scipy_linalg():
    loaded = _scipy_modules_after(
        "import json, sys, ucgl.cli\n"
        "assert ucgl.cli.main(['sample-slocal', '--n', '2', '--seed', '1', '--count', '1']) == 0")
    assert "scipy.linalg" in loaded


def test_module_getattr_raises_for_other_names():
    """symplectic's __getattr__ resolves expm_frechet only (test_tracer_layers
    checks that one); getattr(module, name, None) must still see the rest as missing."""
    with pytest.raises(AttributeError):
        symplectic.no_such_name
    assert getattr(symplectic, "null_space", None) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_equals_null_space_bit_for_bit(roots, monkeypatch, n):
    """On the constraint matrices that tangent_space and composable_tangent_basis
    pass to kernel, 100 of each, at random points over random bases."""
    seen = []

    def recording(M, rcond):
        seen.append((np.array(M), rcond))
        return kernel(M, rcond)

    monkeypatch.setattr(groupoid, "kernel", recording)
    monkeypatch.setattr(symplectic, "kernel", recording)
    rs, rng = roots[n], np.random.default_rng(500 + n)
    for _ in range(100):
        p = groupoid.random_point(rs, rng)
        q = groupoid.random_point(rs, rng, p.A)
        groupoid.tangent_space(rs, p)
        symplectic.composable_tangent_basis(rs, groupoid.make_pair(p, q))
    assert len(seen) == 200
    for M, rcond in seen:
        K, Q = kernel(M, rcond), null_space(M, rcond=rcond).T
        assert K.shape == Q.shape and np.array_equal(K, Q)
