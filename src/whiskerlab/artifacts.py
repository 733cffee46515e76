"""The one way files are written, and the one way JSON documents are read.

Every writer goes through :func:`atomic_open`: the bytes go to a temporary
file beside the target (``.<name>.<pid>.tmp``), which replaces the target
only once the write has finished, so an exception at any point leaves the
previous file (or none) and no temporary.  Text is UTF-8 without newline
translation, the same bytes on every platform.  :func:`read_json` turns
every way a JSON document can be unusable (missing, unreadable, not JSON,
not an object) into one :class:`DataFileError`.
"""

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataFileError


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file for writing that replaces ``path`` on a clean exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_bytes(path, data: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def write_json(path, obj) -> None:
    """The pretty form: two-space indent, sorted keys, trailing newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """A header row, then ``rows`` (any iterable of row lists), CRLF-terminated."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def file_digest(path) -> str:
    """SHA-256 of a file's bytes, read in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path) -> dict:
    """Decode a JSON object, or raise DataFileError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise DataFileError(f"{path}: cannot read JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataFileError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc
