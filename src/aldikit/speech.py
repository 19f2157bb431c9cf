"""Segment saved speech-transcript HTML and score each sentence.

Two segmentation modes match how transcript sites lay out their text:
'br' splits the flowing body text on <br>-family tags, 'p' takes each
<p> element as one sentence. Input is saved HTML files, never live URLs.
"""

from __future__ import annotations

import csv
import warnings
from html.parser import HTMLParser
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from . import textnorm
from .errors import FormatError
from .estimators import format_score
from .manifest import write_output

_SKIP_CONTENT = ("script", "style")


class _SegmentingParser(HTMLParser):
    def __init__(self, mode: str):
        super().__init__(convert_charrefs=True)
        self.mode = mode
        self.segments: list[str] = []
        self._chunks: list[str] = []
        self._skip_depth = 0
        self._in_p = False
        self.warning_count = 0

    def _flush(self) -> None:
        text = textnorm.normalize("".join(self._chunks))
        self._chunks = []
        if text:
            self.segments.append(text)

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_CONTENT:
            self._skip_depth += 1
            return
        if self.mode == "br" and tag == "br":
            self._flush()
        elif self.mode == "p" and tag == "p":
            if self._in_p:
                # browsers close an open <p> implicitly; do the same
                self.warning_count += 1
                self._flush()
            self._in_p = True
            self._chunks = []

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag in _SKIP_CONTENT:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self.mode == "p" and tag == "p" and self._in_p:
            self._flush()
            self._in_p = False

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self.mode == "p" and not self._in_p:
            return
        self._chunks.append(data)

    def finish(self) -> None:
        if self.mode == "p" and self._in_p:
            self.warning_count += 1
        self._flush()


def segment_html(html_text: str, mode: str) -> list[str]:
    """Split an HTML document or fragment into sentence strings.

    Tags are stripped, character references decoded, whitespace collapsed,
    empty segments dropped. Raises when nothing survives.
    """
    if mode not in ("br", "p"):
        raise FormatError("segmentation mode must be 'br' or 'p', got %r" % mode)
    parser = _SegmentingParser(mode)
    parser.feed(html_text)
    parser.close()
    parser.finish()
    if parser.warning_count:
        warnings.warn(
            "%d markup anomalies handled best-effort" % parser.warning_count,
            stacklevel=2,
        )
    if not parser.segments:
        raise FormatError("no segments found (mode=%s)" % mode)
    return parser.segments


def segment_html_file(path: str | Path, mode: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return segment_html(fh.read(), mode)


class SeriesPoint(NamedTuple):
    index: int  # 1-based, contiguous
    sentence: str
    aldi: float
    di_label: str | None = None


class ScoreSeries(NamedTuple):
    document_id: str
    estimator_id: str
    points: tuple[SeriesPoint, ...]


def score_series(
    document_id: str,
    sentences: Sequence[str],
    estimator,
    di_labels: Sequence[str] | None = None,
) -> ScoreSeries:
    """One scored point per sentence, input order preserved."""
    if di_labels is not None and len(di_labels) != len(sentences):
        raise FormatError(
            "have %d DI labels for %d sentences" % (len(di_labels), len(sentences))
        )
    try:
        scores = estimator.score_many(list(sentences))
    except FormatError as exc:
        raise FormatError("scoring failed: %s" % exc) from exc
    points = tuple(
        SeriesPoint(
            index=i,
            sentence=sentence,
            aldi=score,
            di_label=di_labels[i - 1] if di_labels else None,
        )
        for i, (sentence, score) in enumerate(zip(sentences, scores), start=1)
    )
    return ScoreSeries(document_id, estimator.estimator_id, points)


def write_series_csv(series: ScoreSeries, path: str | Path) -> None:
    """One CSV row per point, each score written by ``format_score``.

    The rows stream into ``write_output`` one line at a time, never joined:
    ``csv.writer.writerow`` returns what its file's ``write`` returns, so a
    writer whose ``write`` is ``str`` yields each line as the ``csv`` module
    quotes it.
    """
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    rows = chain(
        [("index", "score", "di_label", "sentence")],
        ((p.index, format_score(p.aldi), p.di_label or "", p.sentence) for p in series.points),
    )
    write_output(path, map(writer.writerow, rows))
