"""Run manifests: enough metadata to audit and replay any command.

A manifest records the command line, sha256 digests of every input file,
the seed when one was used, the tool version, and a timestamp. The
timestamp honors SOURCE_DATE_EPOCH so reproducible runs produce
byte-identical manifests. A rerun that would write identical bytes leaves
the file, and its mtime, as they are.
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
    """Write the manifest of one run to ``out_path`` and return it.

    When ``out_path`` already holds exactly these bytes, it is not opened
    for writing: truncating a file that holds blocks costs far more than
    reading it. Reruns hit this only under SOURCE_DATE_EPOCH; without it
    the timestamp moves and the file is rewritten.
    """
    manifest = {
        "command": command,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": _timestamp(),
    }
    if extra:
        manifest.update(extra)
    data = json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2)
    data = (data + "\n").encode("utf-8")
    # one byte past the end tells a longer file from an equal one
    try:
        with open(out_path, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return manifest
    except OSError:
        pass
    with open(out_path, "wb") as fh:
        fh.write(data)
    return manifest
