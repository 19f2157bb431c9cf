"""Output files and run manifests.

Every file aldikit writes goes through :func:`write_output`: UTF-8, the
newlines its chunks hold, streamed, and lone surrogates from non-UTF-8
paths written as ``\\udcXX`` escapes. The chunks go to a new file in the
target's directory, which replaces the target only once the last chunk is
written, so a run that fails part-way leaves the old output whole. A
target that already holds exactly the new bytes is not replaced at all,
manifests included: it keeps its inode, mtime and mode, since replacing a
file that holds blocks costs far more than reading it.

A manifest records the command line, sha256 digests of every input file,
the seed when one was used, the tool version, and a timestamp. The
timestamp honors SOURCE_DATE_EPOCH so reproducible runs produce
byte-identical manifests. A command that writes a manifest reads it with
:func:`timestamp` before its first output, so an unreadable value is
refused while every old output is still whole. A single output ``<out>``
gets its manifest beside it, as ``<out>.manifest.json``.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import stat
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


def _text_file(file):
    # a lone surrogate, which only an OS string such as a path holds,
    # becomes a \udcXX escape
    return open(file, "w", encoding="utf-8", errors="backslashreplace", newline="\n")


def write_output(path: str | Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` into ``path`` as UTF-8, never joining them.

    The chunks go to a new file beside ``path``, created with the mode
    ``open`` gives a new file, or with the mode of the file it replaces,
    and ``os.replace`` puts it in place once the stream ends. If ``path``
    already holds exactly those bytes, or the stream raises, the new file
    is removed and ``path`` keeps its old bytes. A symlink is followed,
    and a target that is not a regular file (``/dev/null``, a pipe) is
    written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with _text_file(path) as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)
    name = ".aldikit-%s.tmp" % os.urandom(8).hex()
    temp = os.path.join(os.path.dirname(target), name)
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with _text_file(fd) as fh:
            if os.path.isfile(target):
                os.chmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
            fh.writelines(chunks)
        try:
            unchanged = filecmp.cmp(temp, target, shallow=False)
        except OSError:  # a missing or unreadable target is a difference
            unchanged = False
        if unchanged:
            os.unlink(temp)
        else:
            os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def timestamp() -> str:
    """The manifest timestamp: SOURCE_DATE_EPOCH if set, else now, in UTC."""
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
    stamp: str,
    seed: int | None = None,
    **extra,
) -> None:
    """Write the manifest of one run to ``out_path``; ``stamp`` is the run's
    :func:`timestamp`, and ``extra`` adds keys."""
    manifest = {
        "command": command,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": stamp,
        **extra,
    }
    text = json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    write_output(out_path, [text])


def write_sidecar(
    out_path: str | Path,
    command: list[str],
    inputs: list[str | Path],
    stamp: str,
    **extra,
) -> None:
    """Write the manifest of the single output ``out_path`` beside it."""
    write_manifest(str(out_path) + ".manifest.json", command, inputs, stamp, **extra)
