"""Output files and run manifests.

Every file aldikit writes goes through :func:`write_output`: UTF-8, the
newlines its chunks hold, streamed, and lone surrogates from non-UTF-8
paths written as ``\\udcXX`` escapes.

A manifest records the command line, sha256 digests of every input file,
the seed when one was used, the tool version, and a timestamp. The
timestamp honors SOURCE_DATE_EPOCH so reproducible runs produce
byte-identical manifests, and a manifest file that already holds exactly
those bytes is left alone, mtime and inode too. A single output ``<out>``
gets its manifest beside it, as ``<out>.manifest.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import FormatError


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_output(path: str | Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` into ``path`` as UTF-8, never joining them."""
    # a lone surrogate, which only an OS string such as a path holds,
    # becomes a \udcXX escape
    with open(path, "w", encoding="utf-8", errors="backslashreplace", newline="\n") as fh:
        fh.writelines(chunks)


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
    **extra,
) -> None:
    """Write the manifest of one run to ``out_path``; ``extra`` adds keys.

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
        **extra,
    }
    text = json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    data = text.encode("utf-8", "backslashreplace")
    # one byte past the end tells a longer file from an equal one
    try:
        with open(out_path, "rb") as fh:
            if fh.read(len(data) + 1) == data:
                return
    except OSError:
        pass
    write_output(out_path, [text])


def write_sidecar(
    out_path: str | Path, command: list[str], inputs: list[str | Path], **extra
) -> None:
    """Write the manifest of the single output ``out_path`` beside it."""
    write_manifest(str(out_path) + ".manifest.json", command, inputs, **extra)
