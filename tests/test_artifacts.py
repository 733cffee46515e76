import ast
from pathlib import Path

import pytest

import whiskerlab

WRITE_MODE_CHARS = set("wax+")


def file_writes(source: str) -> list[int]:
    """Line numbers of calls that write a file: the ``write_text`` and
    ``write_bytes`` methods, ``os.replace``, or ``open`` with a mode that is
    not a constant read mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = isinstance(func, ast.Attribute)
        name = func.attr if method else getattr(func, "id", None)
        if method and name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif method and name == "replace" and getattr(func.value, "id", None) == "os":
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) as a builtin, path.open(mode) as a method
            position = 0 if method else 1
            mode = node.args[position] if len(node.args) > position else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & WRITE_MODE_CHARS):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, writes", [
    ("Path(p).write_text(s)", True),
    ("p.write_bytes(b)", True),
    ("write_text(p, s)", False),
    ("os.replace(a, b)", True),
    ("open(p, 'w', newline='')", True),
    ("open(p, mode='ab')", True),
    ("open(p, m)", True),
    ("p.open('r+')", True),
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("p.open(newline='')", False),
    ("s.replace('a', 'b')", False),
])
def test_file_write_detector(source, writes):
    assert bool(file_writes(source)) == writes


def test_only_the_artifacts_module_writes_files():
    package = Path(whiskerlab.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "artifacts.py" and (lines := file_writes(path.read_text()))
    }
    assert offenders == {}, f"write through whiskerlab.artifacts instead: {offenders}"
