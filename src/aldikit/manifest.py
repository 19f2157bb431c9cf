"""Output files and the run record that writes every manifest.

Every file aldikit writes goes through :func:`write_output`: UTF-8, the
newlines its chunks hold, streamed, and lone surrogates from non-UTF-8
paths written as ``\\udcXX`` escapes. The chunks go to a new file in the
target's directory, which replaces the target only once the last chunk is
written, so a run that fails part-way leaves the old output whole. A
target that already holds exactly the new bytes is not replaced at all,
manifests included: it keeps its inode, mtime and mode, since replacing a
file that holds blocks costs far more than reading it.

A command that writes files first declares a :class:`Run`: its argv, the
files it reads and writes, and its one manifest, or else ``<out>.manifest.json``
beside each output ``<out>``. Made before the first read, the run takes the
:func:`timestamp`, so an unreadable SOURCE_DATE_EPOCH is refused while every
old output is whole, and it refuses an output or manifest that resolves to an
input or to another output or manifest, or that lies under a file that is no
directory (NotADirectoryError). A run with no outputs does none of this.
``close(seed, **counts)`` writes each manifest: the command line, sha256
digests of the inputs, the seed, the tool version, the timestamp (from
SOURCE_DATE_EPOCH if set, so reruns match byte for byte) and the counts.
"""

from __future__ import annotations

import errno
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


class Run:
    """One command's run record; see the module docstring for its contract.
    An input or output given as None or "" is an unset flag, not a file."""

    def __init__(self, command, inputs, outputs, manifest=None):
        self.command = list(command or [])
        self.inputs = [path for path in inputs if path]
        self.outputs = [path for path in outputs if path]
        sidecars = [str(path) + ".manifest.json" for path in self.outputs]
        self.manifests = [manifest] if manifest else sidecars
        self.stamp = timestamp() if self.manifests else None
        seen = {os.path.realpath(path): "input %s" % path for path in self.inputs}
        for role, paths in (("output", self.outputs), ("manifest", self.manifests)):
            for path in paths:
                name, key = "%s %s" % (role, path), os.path.realpath(path)
                if key in seen:
                    raise FormatError("%s is the same file as %s" % (name, seen[key]))
                seen[key] = name
                parent = os.path.dirname(os.path.abspath(path))
                while not os.path.exists(parent):
                    parent = os.path.dirname(parent)
                if not os.path.isdir(parent):
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                             os.fspath(path))

    def close(self, seed: int | None = None, **counts) -> None:
        """Write each manifest of the run."""
        if not self.manifests:
            return
        manifest = {
            "command": self.command,
            "inputs": {str(p): file_digest(p) for p in self.inputs},
            "seed": seed,
            "tool_version": __version__,
            "timestamp": self.stamp,
            **counts,
        }
        text = json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        for path in self.manifests:
            write_output(path, [text])
