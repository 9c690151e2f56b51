"""Scans of the package source for patterns that it has dropped.

Derived data belongs to the object it is derived from (involutions.Base),
not to a process-wide memo keyed by the bytes of an array: such a memo is
hidden state whose size is tuned to one call order.  Its two marks are an
array turned into a key (.tobytes()) and a cached function that turns the
key back into an array (np.frombuffer).
"""

import ast
import pathlib

import ucgl

SOURCES = sorted(pathlib.Path(ucgl.__file__).parent.glob("*.py"))

#: decorators that memoise a function by its arguments
CACHES = {"cache", "lru_cache"}


def _name(node):
    """The last name of a (possibly dotted or called) decorator or function."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _findings(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node) == "tobytes":
            found.append(f"line {node.lineno}: .tobytes()")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _name(d) in CACHES for d in node.decorator_list):
            if any(isinstance(x, ast.Call) and _name(x) == "frombuffer" for x in ast.walk(node)):
                found.append(f"line {node.lineno}: {node.name} memoises array bytes")
    return found


def test_no_memo_is_keyed_by_array_bytes():
    found = {path.name: _findings(ast.parse(path.read_text())) for path in SOURCES}
    assert SOURCES and not any(found.values()), found


def test_the_scan_sees_a_value_keyed_memo():
    source = (
        "import functools\n"
        "import numpy as np\n"
        "def f(A):\n"
        "    return _f(A.shape, A.tobytes())\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def _f(shape, data):\n"
        "    return np.frombuffer(data).reshape(shape)\n"
    )
    assert sorted(_findings(ast.parse(source))) == ["line 4: .tobytes()",
                                                   "line 6: _f memoises array bytes"]
