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


def imported_names(source: str) -> set[str]:
    """The last dotted name of each module the source imports, and each name
    it imports from one: ``import a.b`` gives b, ``from .a import c`` a and c."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


@pytest.mark.parametrize("source, names", [
    ("import base64", {"base64"}),
    ("import json as j", {"json"}),
    ("import os.path", {"path"}),
    ("from base64 import b64encode", {"base64", "b64encode"}),
    ("from .artifacts import atomic_open", {"artifacts", "atomic_open"}),
    ("from .. import artifacts", {"artifacts"}),
    ("def f():\n    import json", {"json"}),
    ("x = base64.b64encode(b)  # json", set()),
])
def test_import_detector(source, names):
    assert imported_names(source) == names


def test_only_the_dataset_module_encodes_records():
    """One record codec: only learn/dataset.py imports base64, and capture does no file IO."""
    package = Path(whiskerlab.__file__).parent
    imports = {path.relative_to(package).as_posix(): imported_names(path.read_text())
               for path in sorted(package.rglob("*.py"))}
    assert sorted(name for name, found in imports.items() if "base64" in found) == ["learn/dataset.py"]
    assert not {"json", "artifacts"} & imports["events.py"]
