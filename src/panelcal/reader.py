"""Reading input files: the bytes of a file, its UTF-8 text and its JSON.

Every file the package reads (panel and pool JSONL, config and
thresholds files) is read here, and ``_decode`` is the package's one
``json.loads``.  An unreadable path, a byte that is not UTF-8 and
invalid JSON raise ``RecordError`` naming the file (and line).  This
module loads no numpy: ``config`` reads its files through it, and
``rundir`` reads and hashes a JSONL input with it before the column
cache is looked up, so a cache hit loads no parser (``records``).
``load_config`` keeps the sha256 of the bytes it read, so a run's
manifest names the bytes the run used without reading the file again.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

from .rules import RecordError

__all__ = ["load_config"]

_digests: dict[str, str] = {}  # path as given -> sha256 of the bytes ``load_config`` last read there


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file; an unreadable path raises RecordError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise RecordError(f"{path}: cannot read: {exc.strerror}") from exc


def _decode_text(path: str | Path, data: bytes) -> str:
    """``data``, the bytes of the file at ``path``, as UTF-8 text; a non-UTF-8 byte raises RecordError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, counted as the loaders split lines
        line_no = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise RecordError(f"{path}:{line_no}: not valid UTF-8") from None


def _decode(text: str, where: str) -> Any:
    """``text`` as ``json.loads`` parses it; a RecordError ``where: invalid JSON: ...`` if it fails.

    This is the one place a JSON error is worded, a value nested too deep
    for the decoder and an integer longer than the interpreter converts
    (``sys.set_int_max_str_digits``) included.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordError(f"{where}: invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise RecordError(f"{where}: invalid JSON: nested too deeply") from None
    except ValueError:  # the scanner's int() refused an integer past the digit limit
        limit = sys.get_int_max_str_digits()
        raise RecordError(f"{where}: invalid JSON: integer has more than {limit} digits") from None


def load_config(path: str | Path) -> dict[str, Any]:
    """Load a JSON config or thresholds file; the top level must be an object."""
    raw = _read_bytes(path)
    _digests[str(path)] = hashlib.sha256(raw).hexdigest()
    data = _decode(_decode_text(path, raw), str(path))
    if not isinstance(data, dict):
        raise RecordError(f"{path}: top level must be a JSON object")
    return data


def digest(path: str | Path) -> str:
    """The sha256 of the file at ``path`` as ``load_config`` last read it; a KeyError if it never did."""
    return _digests[str(path)]
