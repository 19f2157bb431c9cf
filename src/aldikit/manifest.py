"""Run manifests: enough metadata to audit and replay any command.

A manifest records the command line, sha256 digests of every input file,
the seed when one was used, the tool version, and a timestamp. The
timestamp honors SOURCE_DATE_EPOCH so reproducible runs produce
byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import FormatError


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise FormatError("unreadable SOURCE_DATE_EPOCH %r" % epoch) from None
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_manifest(
    out_path: str | Path,
    command: list[str],
    inputs: list[str | Path],
    seed: int | None = None,
    extra: dict | None = None,
) -> dict:
    manifest = {
        "command": command,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }
    if extra:
        manifest.update(extra)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest
