"""No command of the package loads scipy; only bench's tracer asks for it."""

import json
import subprocess
import sys

import pytest

import ucgl.symplectic as symplectic


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


def test_sampling_and_verify_load_no_scipy():
    loaded = _scipy_modules_after(
        "import json, sys, ucgl.cli\n"
        "assert ucgl.cli.main(['sample-slocal', '--n', '2', '--seed', '1', '--count', '1']) == 0\n"
        "assert ucgl.cli.main(['verify', '--n', '2', '--suite', 'all', '--samples', '3']) == 0")
    assert loaded == []


def test_module_getattr_raises_for_other_names():
    """symplectic's __getattr__ resolves expm_frechet only (test_tracer_layers
    checks that one); getattr(module, name, None) must still see the rest as missing."""
    with pytest.raises(AttributeError):
        symplectic.no_such_name
    assert getattr(symplectic, "null_space", None) is None
