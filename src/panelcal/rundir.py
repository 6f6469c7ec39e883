"""Run directories: each data command's outputs and its ``manifest.json``.

A run keeps its outputs in memory until ``finish`` creates a fresh
directory under ``--out``, writes them, then writes the manifest (command,
seed, input and output digests, UTC timestamps).  Only the data commands
import this module; ``bound`` writes no run directory.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from . import __version__
from .cli import _out_error, _sha256_file

__all__ = ["RunManifest"]


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


class _Run:
    """One run's manifest and outputs, kept in memory until ``finish`` writes them."""

    def __init__(
        self,
        out_base: str,
        command: str,
        seed: int | None,
        config_path: str | None,
        input_paths: Sequence[str],
    ) -> None:
        input_digests = {str(p): _sha256_file(Path(p)) for p in input_paths}
        config_digest = None if config_path is None else _sha256_file(Path(config_path))
        ident = hashlib.sha256(
            json.dumps(
                [command, seed, config_digest, sorted(input_digests.items())],
                sort_keys=True,
            ).encode()
        ).hexdigest()[:8]
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.out_base = Path(out_base)
        self.name = f"{command}-{stamp}-{ident}"
        self.outputs: dict[str, str] = {}
        self.manifest = RunManifest(
            command=command,
            tool_version=__version__,
            started_at=_utc_now(),
            finished_at=None,
            seed=seed,
            config_digest=config_digest,
            input_digests=input_digests,
            output_digests={},
        )

    def write(self, name: str, text: str) -> None:
        if name in self.outputs:
            raise RuntimeError(f"refusing to overwrite {name}")
        self.outputs[name] = text

    def finish(self) -> None:
        """Create the run directory, write the outputs, then the manifest."""
        try:
            self.out_base.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            # a file is in the way: the path itself or one of its parents
            raise _out_error(self.out_base, exc.errno) from None
        run_dir = self.out_base / self.name
        suffix = 1
        while run_dir.exists():
            suffix += 1
            run_dir = self.out_base / f"{self.name}-{suffix}"
        run_dir.mkdir()
        for name, text in self.outputs.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        manifest = replace(
            self.manifest,
            finished_at=_utc_now(),
            output_digests={name: _sha256_file(run_dir / name) for name in sorted(self.outputs)},
        )
        text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        (run_dir / "manifest.json").write_text(text, encoding="utf-8")
        print(f"run directory: {run_dir}")
