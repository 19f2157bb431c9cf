"""Dialectness score producers.

Four estimators, all emitting scores in [0, 1]:

- lexicon: fraction of a sentence's tokens not found in a standard-language
  lexicon (built from a large MSA corpus with a frequency threshold),
- binary-di: 0 for a sentence labeled MSA by an external sentence-level
  dialect identifier, 1 for anything else (labels come from a file; the
  classifier itself is out of scope),
- cmi: code-mixing index over per-token dialect tags,
  n_egy / (n_egy + n_msa), 0 when neither tag occurs,
- external: arbitrary scorer process speaking a newline protocol
  (sentences in on stdin, one decimal per line out on stdout).

The first three cannot leave [0, 1], so their scores are returned as
computed; only an external scorer's output is clipped.

A lexicon is the frozenset of its tokens. Membership is checked on
normalized tokens (diacritics stripped): large MSA corpora are mostly
undiacritized, so diacritics on the input side would only manufacture
false out-of-vocabulary hits.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import textnorm
from .errors import FormatError, ProtocolError, numbered_cells
from .manifest import write_output

TOKEN_TAGS = ("MSA", "EGY", "NamedEntity", "Ambiguous", "Mixed", "Other")

_TAG_ALIASES = {
    "msa": "MSA",
    "egy": "EGY",
    "namedentity": "NamedEntity",
    "named-entity": "NamedEntity",
    "named_entity": "NamedEntity",
    "ne": "NamedEntity",
    "ambiguous": "Ambiguous",
    "ambig": "Ambiguous",
    "mixed": "Mixed",
    "other": "Other",
}

# Sentence-DI label files may use any of these; MSA maps to 0, the rest to 1.
KNOWN_DI_LABELS = frozenset(
    {"MSA", "EGY", "LEV", "GLF", "MAG", "IRQ", "GEN", "TUN", "MOR", "MGR", "DA"}
)

LEXICON_MAGIC = "#aldi-lexicon v1"


def build_lexicon(
    corpus: Iterable[str], min_occurrences: int = 2
) -> tuple[frozenset[str], Counter]:
    """Count normalized tokens over corpus lines; keep those with
    frequency >= min_occurrences. Returns (lexicon, full counts).

    Raises FormatError when no token is kept: an empty lexicon would score
    every sentence as fully dialectal."""
    if min_occurrences < 1:
        raise FormatError("min count must be at least 1, got %d" % min_occurrences)
    # tokenize(text) is the concatenation of tokenize(word) over text.split(),
    # so count words first and tokenize each distinct word once
    words: Counter = Counter()
    for line in corpus:
        words.update(textnorm.normalize(line).split())
    counts: Counter = Counter()
    for word, n in words.items():
        for token in textnorm.tokenize(word):
            counts[token] += n
    kept = frozenset(t for t, c in counts.items() if c >= min_occurrences)
    if not kept:
        raise FormatError(
            "no token occurs at least %d times (%d distinct tokens seen)"
            % (min_occurrences, len(counts))
        )
    return kept, counts


def save_lexicon(lexicon: frozenset[str], min_count: int, path: str | Path) -> None:
    """One sorted token per line, under the v1 header that records ``min_count``."""
    header = "%s min_count=%d\n" % (LEXICON_MAGIC, min_count)
    write_output(path, [header, *(token + "\n" for token in sorted(lexicon))])


def load_lexicon(path: str | Path) -> frozenset[str]:
    """The tokens of a lexicon file; its header's ``min_count``, if present,
    must be an integer."""
    lines = numbered_cells(path)
    lineno, cells = next(lines, (0, []))
    header = "\t".join(cells)
    if lineno != 1 or not header.startswith(LEXICON_MAGIC):
        raise FormatError("%s: not a lexicon file (bad header)" % path)
    for part in header.split():
        if part.startswith("min_count="):
            try:
                int(part.split("=", 1)[1])
            except ValueError:
                raise FormatError("%s: unreadable min_count" % path) from None
    tokens = frozenset(cells[0] for _, cells in lines)
    if not tokens:
        raise FormatError("%s: lexicon holds no tokens" % path)
    return tokens


def lexicon_score(sentence: str, lexicon: frozenset[str]) -> float:
    """Fraction of the sentence's tokens not found in the lexicon."""
    tokens = textnorm.tokenize(textnorm.normalize(sentence))
    if not tokens:
        raise FormatError("cannot score an empty sentence")
    oov = sum(1 for t in tokens if t not in lexicon)
    return oov / len(tokens)


def binary_di_score(label: str) -> float:
    """0 for MSA, 1 for any other dialect label."""
    token = label.strip()
    if not token or token.upper() not in KNOWN_DI_LABELS:
        raise FormatError("unknown sentence-DI label %r" % label)
    return 0.0 if token.upper() == "MSA" else 1.0


def cmi_score(tags: Sequence[str]) -> float:
    """Code-mixing index: n_egy / (n_egy + n_msa); 0 if neither tag occurs."""
    n_msa = 0
    n_egy = 0
    for tag in tags:
        if tag not in TOKEN_TAGS:
            raise FormatError("unknown token tag %r" % tag)
        if tag == "MSA":
            n_msa += 1
        elif tag == "EGY":
            n_egy += 1
    if n_msa + n_egy == 0:
        return 0.0
    return n_egy / (n_egy + n_msa)


def read_token_tag_file(path: str | Path) -> list[list[tuple[str, str]]]:
    """Parse 'token TAB tag' lines, blank line between sentences."""
    sentences: list[list[tuple[str, str]]] = []
    previous = -1  # the line number of the last tag line; line 1 opens a sentence
    for lineno, cells in numbered_cells(path):
        if not "".join(cells).strip():
            continue  # a whitespace-only line is blank too
        if len(cells) != 2:
            raise FormatError("%s: line %d must be 'token<TAB>tag'" % (path, lineno))
        token, raw_tag = cells
        tag = _TAG_ALIASES.get(raw_tag.strip().lower())
        if tag is None:
            raise FormatError("%s: line %d has unknown tag %r" % (path, lineno, raw_tag))
        if lineno != previous + 1:  # a blank line came before: a new sentence
            sentences.append([])
        sentences[-1].append((token, tag))
        previous = lineno
    return sentences


def read_label_file(path: str | Path) -> list[str]:
    """The stripped non-blank lines of ``score --sentences``, one sentence each."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").strip() for line in fh if line.strip()]


def read_di_labels(path: str | Path) -> list[str]:
    """Sentence-DI labels, one per non-blank line; an unknown label is named
    by its file line."""
    labels = []
    for lineno, cells in numbered_cells(path):
        label = "\t".join(cells).strip()
        if not label:
            continue
        if label.upper() not in KNOWN_DI_LABELS:
            raise FormatError(
                "%s: line %d has unknown sentence-DI label %r" % (path, lineno, label)
            )
        labels.append(label)
    return labels


def format_score(score: float) -> str:
    """The float's shortest repr at 6 decimal places, round half even."""
    dec = Decimal(repr(float(score)))
    return str(dec.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def _clip(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def external_score(
    sentences: Sequence[str],
    command: Sequence[str],
    batch_size: int | None = None,
    timeout: float | None = None,
) -> list[float]:
    """Score sentences through the external newline protocol.

    Runs ``command`` with normalized sentences, one per line, on its stdin;
    expects exactly one decimal per line back, in order. Scores are clipped
    to [0, 1]. ``batch_size`` bounds how many sentences one process
    invocation carries (default: all of them). A process that runs longer
    than ``timeout`` seconds (default: no limit) is killed, and that is a
    protocol failure. Each process runs in a session of its own, and a
    timeout or any other exception kills that whole process group. While
    a scorer runs, SIGTERM and SIGHUP (where they still have their default
    action) raise ``SystemExit(128 + signum)``, and SIGINT (where Python's
    own handler has it) ``KeyboardInterrupt``, so they end the group too.
    """
    import signal

    if batch_size is not None and batch_size < 1:
        raise FormatError("batch size must be at least 1, got %d" % batch_size)
    if timeout is not None and not 0 < timeout < math.inf:
        raise FormatError("scorer timeout must be finite and above 0, got %r" % timeout)
    # The scorer's session no longer gets the terminal's or our group's
    # signals, so turn the ones that would end us silently into an exception.
    # An ignored or custom handler (nohup, an embedding program) is kept.
    gate = _SignalGate()
    restore = {}
    for signum, default in (
        (signal.SIGTERM, signal.SIG_DFL),
        (signal.SIGHUP, signal.SIG_DFL),
        (signal.SIGINT, signal.default_int_handler),
    ):
        if signal.getsignal(signum) is default:
            try:
                restore[signum] = signal.signal(signum, gate)
            except ValueError:  # not the main thread, which alone gets signals
                break
    try:
        batch = batch_size or len(sentences) or 1
        return _score_batches(sentences, command, batch, timeout, gate)
    finally:
        for signum, handler in restore.items():
            signal.signal(signum, handler)


class _SignalGate:
    """The SIGTERM, SIGHUP and SIGINT handler while a scorer runs.

    It raises ``KeyboardInterrupt`` for SIGINT, as Python's own handler
    does, and ``SystemExit(128 + signum)`` for the others, except while a
    scorer starts: its process group cannot be killed before ``Popen``
    returns, so the signal is only recorded, and ``started`` raises it once
    it can be.
    """

    starting = False
    signum = 0

    def __call__(self, signum, frame):
        self.signum = signum
        if not self.starting:
            self._raise()

    def started(self):
        self.starting = False
        if self.signum:
            self._raise()

    def _raise(self):
        import signal

        if self.signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + self.signum)


def _score_batches(
    sentences: Sequence[str],
    command: Sequence[str],
    batch: int,
    timeout: float | None,
    gate: _SignalGate,
) -> list[float]:
    import signal
    import subprocess

    scores: list[float] = []
    for start in range(0, len(sentences), batch):
        chunk = sentences[start : start + batch]
        payload = "".join(textnorm.normalize(s) + "\n" for s in chunk)
        gate.starting = True  # until the try below can kill the scorer's group
        try:
            proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            gate.started()
            raise ProtocolError("cannot run scorer %s: %s" % (command, exc))
        with proc:
            try:
                gate.started()
                stdout, stderr = proc.communicate(payload.encode("utf-8"), timeout)
            except BaseException as exc:  # a timeout, Ctrl-C, a signal, a bug
                # the scorer leads its own session, so this also ends what it started
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise ProtocolError(
                        "scorer %s ran longer than %g s and was killed"
                        % (command, timeout)
                    ) from None
                raise
        if proc.returncode != 0:
            raise ProtocolError(
                "scorer exited with status %d: %s"
                % (proc.returncode, stderr.decode("utf-8", "replace").strip())
            )
        try:
            lines = stdout.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ProtocolError("scorer output is not UTF-8: %s" % exc) from None
        lines = [ln for ln in lines if ln.strip()]
        if len(lines) != len(chunk):
            raise ProtocolError(
                "scorer returned %d lines for %d sentences" % (len(lines), len(chunk))
            )
        for offset, line in enumerate(lines):
            try:
                value = float(line.strip())
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ProtocolError(
                    "scorer output line %d is not a finite number: %r"
                    % (start + offset + 1, line)
                )
            scores.append(_clip(value))
    return scores


# ---------------------------------------------------------------------------
# Uniform batch interface used by the series/contrastive drivers


class LexiconEstimator(NamedTuple):
    lexicon: frozenset[str]
    estimator_id = "lexicon"

    def score_many(self, sentences: Sequence[str]) -> list[float]:
        """Scores in order; an empty sentence is named by its 1-based ordinal."""
        scores = []
        for i, sentence in enumerate(sentences, start=1):
            try:
                scores.append(lexicon_score(sentence, self.lexicon))
            except FormatError:
                raise FormatError("sentence %d is empty" % i) from None
        return scores


# positional estimator id -> (score of one item, plural noun for the items)
_POSITIONAL = {
    "binary-di": (binary_di_score, "DI labels"),
    "cmi": (cmi_score, "tag sequences"),
}


class PositionalEstimator(NamedTuple):
    """Positional adapter: item i (a DI label or a tag sequence) belongs to
    sentence i, and the sentence text itself is not read."""

    estimator_id: str
    items: Sequence

    def score_many(self, sentences: Sequence[str]) -> list[float]:
        score, noun = _POSITIONAL[self.estimator_id]
        if len(sentences) != len(self.items):
            raise FormatError(
                "have %d %s for %d sentences" % (len(self.items), noun, len(sentences))
            )
        return [score(item) for item in self.items]


class ExternalEstimator(NamedTuple):
    command: Sequence[str]
    batch_size: int | None = None
    timeout: float | None = None
    estimator_id = "external"

    def score_many(self, sentences: Sequence[str]) -> list[float]:
        return external_score(sentences, self.command, self.batch_size, self.timeout)
