"""Run directories: each data command's outputs and its ``manifest.json``.

A run keeps its outputs in memory until ``finish`` creates a fresh
directory under ``--out``, writes them, then writes the manifest (command,
seed, input and output digests, UTC timestamps).  Only the data commands
import this module; ``bound`` writes no run directory.

``--out`` also holds the column cache, ``.panelcal-cache``: one entry per
JSONL input (by its resolved path and table kind) with the table that its
bytes parse to (see ``panelcal.cache``).  ``_Run.load`` reads each JSONL
input once, hashes those bytes for the manifest, and parses them only
when no entry holds them: it imports the loaders (``records``) only then,
so a hit loads no parser.  ``finish`` writes the entries of the inputs it
parsed, so a run that stops on an error leaves nothing under ``--out``,
and removes the entries whose input file is gone.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .cli import _out_error

if TYPE_CHECKING:
    from .tables import CalibrationTable, PanelTable

__all__ = ["RunManifest"]

CACHE_DIR = ".panelcal-cache"


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run directory, written as ``manifest.json``."""

    command: str
    tool_version: str
    started_at: str
    finished_at: str | None
    seed: int | None
    config_digest: str | None
    input_digests: dict[str, str]
    output_digests: dict[str, str]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write(path: Path, data: bytes) -> None:
    """``path.write_bytes(data)``, whose error names ``path`` even when the failing call is the write
    (a full disk), which names no file: ``cli.main`` takes an error without a name for stdout's."""
    try:
        path.write_bytes(data)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


class _Run:
    """One run's manifest and outputs, kept in memory until ``finish`` writes them.

    ``config_path`` and ``input_paths`` are JSON inputs, which the command
    has read through ``reader.load_config``: their digests are of the bytes
    it read.  Each JSONL input is read through ``load``.
    """

    def __init__(
        self,
        out_base: str,
        command: str,
        seed: int | None,
        config_path: str | None,
        input_paths: Sequence[str],
    ) -> None:
        self.out_base = Path(out_base)
        self.command = command
        self.seed = seed
        self.config_path = config_path
        self.input_paths = list(input_paths)
        self.stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.started_at = _utc_now()
        self.input_digests: dict[str, str] = {}  # of the JSONL inputs, from the bytes ``load`` parsed
        self.entries: list[Callable[[], None]] = []  # the cache writes of the tables parsed
        self.outputs: dict[str, bytes] = {}  # each output's text, encoded once

    def load(self, kind: str, path: str) -> PanelTable | CalibrationTable:
        """The ``kind`` ("panel" or "pool") table of the JSONL file at ``path``.

        The file is read once.  Its sha256, taken from those bytes, goes
        into the manifest; the bytes are parsed only when the cache holds
        no table for them under this interpreter key.
        """
        from . import cache, reader  # here: the simulate commands read no JSONL

        held = [reader._read_bytes(path)]  # popped into a parse, which then holds the only reference
        digest = self.input_digests[str(path)] = hashlib.sha256(held[0]).hexdigest()
        entry = self.out_base / CACHE_DIR / cache.entry_name(kind, path)
        table = cache.read(entry, kind, digest, str(path))
        if table is None:
            from . import records  # here: a hit loads no parser

            # the loader frees the bytes once it has decoded them
            table = getattr(records, cache.KINDS[kind][1])(path, held.pop())
            self.entries.append(functools.partial(cache.write, entry, kind, digest, table))
        return table

    def write(self, name: str, text: str) -> None:
        if name in self.outputs:
            raise RuntimeError(f"refusing to overwrite {name}")
        self.outputs[name] = text.encode("utf-8")

    def finish(self) -> None:
        """Create the run directory, write the outputs, the manifest, then the cache entries.

        The ``mkdir`` claims the name (the next suffix while it exists), and each digest is of the bytes written.
        A run that loaded a JSONL input then prunes the cache of entries whose input is gone.
        """
        input_digests, config_digest = dict(self.input_digests), None
        if self.config_path is not None or self.input_paths:
            from . import reader  # the command has loaded it to read these files

            input_digests.update((str(p), reader.digest(p)) for p in self.input_paths)
            config_digest = None if self.config_path is None else reader.digest(self.config_path)
        ident = hashlib.sha256(
            json.dumps(
                [self.command, self.seed, config_digest, sorted(input_digests.items())],
                sort_keys=True,
            ).encode()
        ).hexdigest()[:8]
        try:
            self.out_base.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            # a file is in the way: the path itself or one of its parents
            raise _out_error(self.out_base, exc.errno) from None
        name = f"{self.command}-{self.stamp}-{ident}"
        run_dir = self.out_base / name
        for suffix in itertools.count(2):  # no exists() first: another run may take the name before the mkdir
            try:
                run_dir.mkdir()
                break
            except FileExistsError:
                run_dir = self.out_base / f"{name}-{suffix}"
        try:
            for output, data in self.outputs.items():
                _write(run_dir / output, data)
            manifest = RunManifest(
                command=self.command,
                tool_version=__version__,
                started_at=self.started_at,
                finished_at=_utc_now(),
                seed=self.seed,
                config_digest=config_digest,
                input_digests=input_digests,
                output_digests={output: hashlib.sha256(data).hexdigest() for output, data in self.outputs.items()},
            )
            text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
            _write(run_dir / "manifest.json", text.encode("utf-8"))
        except OSError:  # no run directory without its manifest; ``cli.main`` words the error
            shutil.rmtree(run_dir, ignore_errors=True)
            raise
        print(f"run directory: {run_dir}")
        for write_entry in self.entries:
            write_entry()
        if self.input_digests:
            from . import cache

            cache.prune(self.out_base / CACHE_DIR)
