"""The column cache: a parsed JSONL input's table, kept under ``--out``.

``rundir`` owns where entries live and when they are read and written;
this module owns what an entry holds.  An entry is one file:

* a JSON header line, padded with spaces to a multiple of 8 bytes: the
  interpreter key, the input's sha256 and resolved path, the table kind
  and one item per column;
* the columns' raw little-endian bytes, each padded to a multiple of 8;
* the sha256 of everything before it (32 bytes).

A numpy column keeps its dtype, from a whitelist, and shape.  A string
column, a ``tables.Strings``, keeps its joined text (``Strings.joined``,
which nothing else calls) as a UTF-8 blob and, for statuses and feedback,
its codes.  A hit checks that each blob splits into its count and that
every code is in range, and restores every string column one way
(``Strings.split``): split on first read.
The table's ``path`` is not stored: it always names the file as given.

A hit needs the input's digest and the interpreter key to match, and the
entry to check out; anything else, an entry that is missing, torn,
foreign or unreadable included, is a miss.  Whether a line parses depends
on the interpreter's digit and recursion limits, and what a line parses
to on the loader's code, so the key holds those limits and the sha256 of
the source of every module a parse runs (``LOADER``).  This module does
not import the loaders (``records``): a hit parses nothing, and ``rundir``
imports them only on a miss.  An entry whose input file is gone is removed
by ``prune``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .tables import CalibrationTable, PanelTable, Strings

FORMAT = 2  # the entry layout; a new layout makes every old entry a miss
# each table kind: its class, and the name of the ``records`` loader that parses its file on a miss
KINDS = {"panel": (PanelTable, "load_panel_table"), "pool": (CalibrationTable, "load_calibration_table")}
# the dtypes an entry is read with: bool, intp (32 bits on some platforms), float64, codes
_DTYPES = frozenset({"|b1", "<i4", "<i8", "<u4", "<f8"})
_ALIGN = 8  # every column starts at a multiple of 8 bytes, so np.frombuffer gives aligned arrays
_CODES = np.dtype("<u4")
_HEADER_LIMIT = 1 << 20  # prune reads at most this much of a file for its header
# the source files, beside this one, of the modules a parse runs, this one included; the package's own
# version is in the key
LOADER = ("records.py", "reader.py", "tables.py", "rules.py", "cache.py")


def interpreter_key() -> dict[str, object]:
    """What else, besides the input's bytes, decides the table a load gives."""
    return {
        "format": FORMAT,
        "panelcal": __version__,
        "loader": _loader_digest(),
        "python": "%d.%d" % sys.version_info[:2],
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        "recursion_limit": sys.getrecursionlimit(),
    }


@functools.cache
def _loader_digest() -> str | None:
    """The sha256 of the ``LOADER`` source files, or None when one cannot be read.

    A new line rule or column build changes it, so entries written by
    other loader code are misses.  Without it, no entry is written.
    """
    check = hashlib.sha256()
    try:
        for name in LOADER:
            check.update(Path(__file__).with_name(name).read_bytes())
    except (OSError, TypeError):  # no file: a frozen or zipped install
        return None
    return check.hexdigest()


def entry_name(kind: str, path: str | Path) -> str:
    """The entry of a ``kind`` table loaded from ``path``: one per resolved path and kind."""
    return f"{kind}-{hashlib.sha256(os.fsencode(Path(path).resolve())).hexdigest()[:32]}"


def read(entry: Path, kind: str, digest: str, path: str) -> PanelTable | CalibrationTable | None:
    """The ``kind`` table that ``entry`` holds for input bytes of sha256 ``digest``, or None.

    The table's ``path`` is ``path``.
    """
    try:
        with entry.open("rb") as file:
            buffer = bytearray(os.fstat(file.fileno()).st_size)
            if file.readinto(buffer) != len(buffer):
                return None
        view = memoryview(buffer)
        end = buffer.index(b"\n") + 1
        header = json.loads(str(view[:end], "utf-8"))
        if type(header) is not dict or (header.get("key"), header.get("digest"), header.get("kind")) != (
            interpreter_key(), digest, kind
        ):
            return None
        if hashlib.sha256(view[:-32]).digest() != view[-32:]:
            return None
        cls, _ = KINDS[kind]
        if [item["name"] for item in header["columns"]] != _names(cls):
            return None
        columns, offset = {}, end
        for item in header["columns"]:
            columns[item["name"]], offset = _restore(buffer, offset, item)
        if offset != len(buffer) - 32:
            return None
        return cls(path=path, **columns)
    except (OSError, ValueError, LookupError, TypeError, RecursionError):  # a foreign or spoiled entry
        return None


def write(entry: Path, kind: str, digest: str, table: PanelTable | CalibrationTable) -> None:
    """Keep ``table``, parsed from input bytes of sha256 ``digest``, as ``entry``.

    The entry is written a column at a time to a temporary name, then
    renamed into place.  An OSError leaves no entry and is not raised.
    """
    if _loader_digest() is None:
        return
    items, parts = [], []
    for name in _names(type(table)):
        item, buffers = _store(getattr(table, name))
        items.append({"name": name, **item})
        parts.extend(buffers)
    source = str(Path(table.path).resolve())
    header = json.dumps({"key": interpreter_key(), "digest": digest, "source": source, "kind": kind,
                         "columns": items}, sort_keys=True).encode()
    header += b" " * (-(len(header) + 1) % _ALIGN) + b"\n"
    temporary = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        with temporary.open("wb") as file:
            check = hashlib.sha256()
            for part in (header, *parts):
                for chunk in (part, bytes(-memoryview(part).nbytes % _ALIGN)):
                    check.update(chunk)
                    file.write(chunk)
            file.write(check.digest())
        os.replace(temporary, entry)
    except OSError:
        try:
            temporary.unlink()
        except OSError:
            pass


def prune(directory: Path) -> None:
    """Remove each entry in ``directory`` whose header names an input file that is gone.

    A file whose header cannot be read is left as it is, and an OSError is
    not raised.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        entry = directory / name
        try:
            with entry.open("rb") as file:
                source = json.loads(file.readline(_HEADER_LIMIT))["source"]
            if type(source) is str and not os.path.exists(source):
                entry.unlink()
        except (OSError, ValueError, LookupError, TypeError, RecursionError):  # not an entry, or gone already
            pass


def _names(cls: type) -> list[str]:
    """The columns of a table class, in field order: every field but ``path``."""
    return [f.name for f in fields(cls) if f.name != "path"]


def _store(column: np.ndarray | Strings) -> tuple[dict, list]:
    """A column's header item and the buffers that hold it."""
    if isinstance(column, np.ndarray):
        array = np.ascontiguousarray(column, dtype=column.dtype.newbyteorder("<"))
        return {"dtype": array.dtype.str, "shape": list(array.shape)}, [array]
    text, sep = column.joined()
    blob = text.encode("utf-8", "surrogatepass")
    codes = column.codes
    item = {"sep": sep, "count": column.n_strings, "bytes": len(blob), "codes": None if codes is None else len(codes)}
    return item, [blob] if codes is None else [blob, np.ascontiguousarray(codes, dtype=_CODES)]


def _restore(buffer: bytearray, offset: int, item: dict) -> tuple[np.ndarray | Strings, int]:
    """The column that ``item`` describes, at ``offset`` of ``buffer``, and the offset after it.

    A string column is a ``Strings`` of the stored text, split on first
    read; every check of that split runs here, so a read cannot fail.
    """
    if "dtype" in item:
        if item["dtype"] not in _DTYPES:
            raise ValueError(f"dtype {item['dtype']!r} has no cache form")
        return _array(buffer, offset, np.dtype(item["dtype"]), item["shape"])
    size, sep, count = item["bytes"], item["sep"], item["count"]
    text = str(memoryview(buffer)[offset : offset + size], "utf-8", "surrogatepass")
    # the split that the first read runs (``Strings.strings``) gives ``count`` strings
    if type(count) is not int or not sep or (text.count(sep) + 1 if count else 0) != count:
        raise ValueError("string column does not hold its count")
    offset += size + -size % _ALIGN
    codes = None
    if item["codes"] is not None:
        codes, offset = _array(buffer, offset, _CODES, [item["codes"]])
        if codes.size and int(codes.max()) >= count:
            raise ValueError("string column holds a code past its strings")
    return Strings.split(text, sep, count, codes), offset


def _array(buffer: bytearray, offset: int, dtype: np.dtype, shape: list[int]) -> tuple[np.ndarray, int]:
    """The array of ``shape`` at ``offset`` of ``buffer``, in native byte order, and the offset after it."""
    array = np.frombuffer(buffer, dtype, math.prod(shape), offset).reshape(shape)
    return array.astype(dtype.newbyteorder("="), copy=False), offset + array.nbytes + -array.nbytes % _ALIGN
