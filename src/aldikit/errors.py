"""Exception hierarchy shared across the toolkit, the line reader that
every tab-separated input format is parsed from, and :func:`label`, the one
check of a closed-vocabulary token in an input file: a HIT or column-map
label, a split, a token tag or a sentence-DI label.

The CLI maps these onto exit codes: I/O problems exit 1 (plain OSError),
format/validation problems exit 2, external-scorer protocol problems exit 3.
"""

import os
from collections.abc import Iterator


class AldiError(Exception):
    """Base class for all toolkit errors."""


class FormatError(AldiError):
    """Malformed input file, config, or value (CLI exit code 2)."""


class ProtocolError(AldiError):
    """External scorer violated the line protocol (CLI exit code 3)."""


def numbered_cells(path: str | os.PathLike) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tab-separated cells)`` of each non-empty line of a UTF-8
    file, numbered from 1 with blank lines counted. Text mode has already
    turned ``\\r\\n`` and ``\\r`` line ends into ``\\n``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line := line.rstrip("\n"):
                yield lineno, line.split("\t")


def text_cell(text: str) -> str:
    """``text`` as one tab-separated cell: each tab, ``\\n`` and ``\\r``, which
    :func:`numbered_cells` would read as a line or cell end, becomes a space."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def check_width(path: str | os.PathLike, lineno: int, cells: list[str], width: int):
    """Raise FormatError unless the line's ``cells`` number exactly ``width``."""
    if len(cells) != width:
        message = "%s: line %d has %d columns, expected %d"
        raise FormatError(message % (path, lineno, len(cells), width))


def label(aliases: dict[str, str], token: str, field: str, place: str, args) -> str:
    """The canonical label of ``token`` in ``aliases``, keyed on stripped,
    lower-cased spellings. A miss raises ``<place> has unknown <field> <token>``,
    formatting ``place % args`` only then."""
    canonical = aliases.get(token.strip().lower())
    if canonical is None:
        raise FormatError("%s has unknown %s %r" % (place % args, field, token))
    return canonical
