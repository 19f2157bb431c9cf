"""Run an aldikit command chain in-process, optionally with per-layer tracing.

Usage (run.py starts it in a fresh interpreter with ``PYTHONPATH=src``):

    python3 tracer.py PLAN.json REPORT.json [--off]

PLAN holds ``{"steps": [[argv...], ...], "out": DIR}``. Each argv is passed
to ``aldikit.cli.main`` in turn, with ``DIR`` as the working directory, so
the traced run executes the same program as the timed run and does not
re-implement the stage sequence.

Tracing installs wrappers on public module attributes from outside: aldikit
itself is not changed. Coarse functions record one span each (name, start,
end, parent span), and every command gets a root span. Hot leaf functions
and generator steps record only a call count and cumulative time. Spans
stay in memory and are written to REPORT once, when the chain ends. A name
missing from the installed aldikit is listed under ``absent`` and its
metrics are left out; it never stops the run. ``--off`` runs the same
chain without wrappers; the difference of the two totals is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable

MB = 1024.0 * 1024.0

SPAN = "span"  # one span per call
LEAF = "leaf"  # count and cumulative time only
GEN = "gen"  # generator function: time and count each item it yields


@dataclass(frozen=True)
class Probe:
    """A public function to wrap, and what to record about its calls."""

    module: str
    attr: str  # "Class.method" wraps the method on that class
    kind: str
    metric: str
    count: str | None = None  # name of the count metric, if any
    counter: Callable | None = None  # (args, kwargs, result) -> count
    distinct: bool = False  # count distinct first arguments
    gc: bool = False  # attribute GC pauses inside the call
    rss: bool = False  # record RSS growth across the call


def _len_result(args, kwargs, result):
    return len(result)


def _len_first_result(args, kwargs, result):
    return len(result[0])


def _len_sentences(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["sentences"])


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


PROBES = (
    Probe("ingest", "parse_hit_file", GEN, "ingest.parse_hit_file", count="hits"),
    Probe("ingest", "read_rows", GEN, "ingest.read_rows", count="rows", gc=True),
    Probe("textnorm", "normalize", LEAF, "textnorm.normalize", distinct=True),
    Probe("textnorm", "tokenize", LEAF, "textnorm.tokenize", distinct=True),
    Probe("dataset", "group_comments", SPAN, "dataset.group_comments",
          count="groups", counter=_len_result, gc=True, rss=True),
    Probe("dataset", "count_distinct_keys", SPAN, "dataset.count_distinct_keys"),
    Probe("dataset", "discard_junk", SPAN, "dataset.discard_junk"),
    Probe("dataset", "categorize_discard", LEAF, "dataset.categorize_discard"),
    Probe("dataset", "aggregate", LEAF, "dataset.aggregate"),
    Probe("dataset", "make_splits", SPAN, "dataset.make_splits"),
    Probe("dataset", "corpus_stats", SPAN, "dataset.corpus_stats"),
    Probe("dataset", "dataset_lines", GEN, "dataset.serialize"),
    Probe("dataset", "discarded_lines", GEN, "dataset.serialize"),
    Probe("dataset", "assignment_lines", GEN, "dataset.serialize"),
    Probe("dataset", "render_stats_text", LEAF, "dataset.serialize"),
    Probe("agreement", "level_agreement_items", SPAN,
          "agreement.level_agreement_items", count="items",
          counter=_len_first_result),
    Probe("agreement", "fleiss_kappa", SPAN, "agreement.fleiss_kappa"),
    Probe("agreement", "krippendorff_alpha_interval", SPAN,
          "agreement.krippendorff_alpha_interval"),
    Probe("pipeline", "run_ingest", SPAN, "pipeline.run_ingest"),
    Probe("pipeline", "run_build_dataset", SPAN, "pipeline.run_build_dataset"),
    Probe("pipeline", "run_agreement", SPAN, "pipeline.run_agreement"),
    Probe("pipeline", "read_dataset_file", SPAN, "pipeline.read_dataset_file"),
    Probe("pipeline", "read_score_file", SPAN, "pipeline.read_score_file"),
    Probe("estimators", "build_lexicon", SPAN, "estimators.build_lexicon"),
    Probe("estimators", "save_lexicon", SPAN, "estimators.save_lexicon"),
    Probe("estimators", "load_lexicon", SPAN, "estimators.load_lexicon"),
    Probe("estimators", "LexiconEstimator.score_many", SPAN,
          "estimators.score_many", count="sentences", counter=_len_sentences),
    Probe("evaluation", "rmse_report", SPAN, "evaluation.rmse_report"),
    Probe("speech", "segment_html_file", SPAN, "speech.segment_html_file",
          count="segments", counter=_len_result),
    Probe("speech", "score_series", SPAN, "speech.score_series"),
    Probe("speech", "write_series_csv", SPAN, "speech.write_series_csv"),
    Probe("svgplot", "emit_plot", SPAN, "svgplot.emit_plot"),
    Probe("manifest", "file_digest", LEAF, "manifest.file_digest", count="bytes",
          counter=_file_size),
)

# Reported metrics: (name, unit). Metrics of absent probes are dropped.
REPORTED = (
    ("ingest.parse_hit_file.s", "s"), ("ingest.parse_hit_file.hits", "count"),
    ("ingest.read_rows.s", "s"), ("ingest.read_rows.rows", "count"),
    ("ingest.read_rows.gc_s", "s"),
    ("textnorm.normalize.calls", "count"), ("textnorm.normalize.distinct", "count"),
    ("textnorm.normalize.s", "s"), ("textnorm.normalize.distinct_share", "ratio"),
    ("textnorm.tokenize.calls", "count"), ("textnorm.tokenize.distinct", "count"),
    ("textnorm.tokenize.s", "s"),
    ("dataset.group_comments.s", "s"), ("dataset.group_comments.gc_s", "s"),
    ("dataset.group_comments.rss_mb", "MB"),
    ("dataset.group_comments.groups", "count"),
    ("dataset.count_distinct_keys.s", "s"), ("dataset.discard_junk.s", "s"),
    ("dataset.categorize_discard.s", "s"), ("dataset.aggregate.s", "s"),
    ("dataset.make_splits.s", "s"), ("dataset.corpus_stats.s", "s"),
    ("dataset.serialize.s", "s"),
    ("agreement.level_agreement_items.s", "s"),
    ("agreement.level_agreement_items.items", "count"),
    ("agreement.fleiss_kappa.s", "s"),
    ("agreement.krippendorff_alpha_interval.s", "s"),
    ("pipeline.run_build_dataset.self_s", "s"),
    ("pipeline.run_agreement.self_s", "s"),
    ("pipeline.read_dataset_file.s", "s"), ("pipeline.read_score_file.s", "s"),
    ("estimators.build_lexicon.s", "s"), ("estimators.save_lexicon.s", "s"),
    ("estimators.load_lexicon.s", "s"), ("estimators.score_many.s", "s"),
    ("estimators.score_many.sentences", "count"),
    ("evaluation.rmse_report.s", "s"),
    ("speech.segment_html_file.s", "s"), ("speech.segment_html_file.segments", "count"),
    ("speech.score_series.s", "s"), ("speech.write_series_csv.s", "s"),
    ("svgplot.emit_plot.s", "s"),
    ("manifest.file_digest.s", "s"), ("manifest.file_digest.bytes", "count"),
    ("gc.pause_s", "s"), ("gc.collections", "count"),
)


def _rss_bytes() -> int | None:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


class _Stat:
    __slots__ = ("s", "self_s", "calls", "count", "gc_s", "rss_mb", "distinct")

    def __init__(self):
        self.s = self.self_s = self.gc_s = self.rss_mb = 0.0
        self.calls = self.count = 0
        self.distinct: set | None = None


class Tracer:
    """Frame stack, per-metric totals, spans and GC pauses of one run."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.stack: list[list] = []  # [start, child_s, gc_s, span_id]
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end)
        self.absent: list[str] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._restore: list[tuple] = []

    # -- frames --------------------------------------------------------------

    def enter(self, span: bool) -> list:
        span_id = len(self.spans) + 1 if span else 0
        if span:
            self.spans.append(None)  # reserve the id; filled in on exit
        frame = [time.perf_counter(), 0.0, 0.0, span_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, name: str, probe: Probe | None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        start, child_s, gc_s, span_id = frame
        elapsed = end - start
        if self.stack:
            self.stack[-1][1] += elapsed
        if span_id:
            parent = next((f[3] for f in reversed(self.stack) if f[3]), 0)
            self.spans[span_id - 1] = (span_id, parent, name, start, end)
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.s += elapsed
        stat.self_s += elapsed - child_s
        if probe is not None and probe.gc:
            stat.gc_s += gc_s

    def _on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        pause = now - self._gc_start
        self.gc_pause_s += pause
        self.gc_collections += 1
        for frame in self.stack:
            frame[2] += pause

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, probe: Probe, fn):
        tracer = self
        name = probe.metric
        counter = probe.counter

        if probe.kind == GEN:
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                stat = tracer.stats.setdefault(name, _Stat())
                stat.calls += 1
                while True:
                    frame = tracer.enter(False)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame, name, probe)
                    stat.count += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            rss_before = _rss_bytes() if probe.rss else None
            frame = tracer.enter(probe.kind == SPAN)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, name, probe)
            stat = tracer.stats[name]
            stat.calls += 1
            if probe.distinct:
                if stat.distinct is None:
                    stat.distinct = set()
                stat.distinct.add(args[0] if args else None)
            if counter is not None:
                stat.count += counter(args, kwargs, result)
            if rss_before is not None:
                rss_after = _rss_bytes()
                if rss_after is not None:
                    stat.rss_mb = max(stat.rss_mb, (rss_after - rss_before) / MB)
            return result
        return wrapper

    def install(self) -> None:
        for probe in PROBES:
            owner_path, _, attr = ("%s.%s" % (probe.module, probe.attr)).rpartition(".")
            module_name, _, class_name = owner_path.partition(".")
            try:
                owner = importlib.import_module("aldikit." + module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append("%s.%s" % (probe.module, probe.attr))
                continue
            if probe.kind == GEN and not inspect.isgeneratorfunction(fn):
                probe = replace(probe, kind=LEAF)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(probe, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        # a metric fed by several probes is absent only when all of them are
        absent_metrics = {p.metric for p in PROBES} - {
            p.metric for p in PROBES
            if "%s.%s" % (p.module, p.attr) not in self.absent
        }
        values: dict[str, float] = {
            "gc.pause_s": self.gc_pause_s, "gc.collections": self.gc_collections
        }
        for probe in PROBES:
            if probe.metric in absent_metrics:
                continue
            stat = self.stats.get(probe.metric, _Stat())
            prefix = probe.metric
            values[prefix + ".s"] = stat.s
            values[prefix + ".self_s"] = stat.self_s
            values[prefix + ".calls"] = stat.calls
            values[prefix + ".gc_s"] = stat.gc_s
            values[prefix + ".rss_mb"] = stat.rss_mb
            if probe.count:
                values["%s.%s" % (prefix, probe.count)] = stat.count
            if probe.distinct:
                distinct = len(stat.distinct or ())
                values[prefix + ".distinct"] = distinct
                values[prefix + ".distinct_share"] = (
                    distinct / stat.calls if stat.calls else 0.0)
        return {name: (values[name], unit) for name, unit in REPORTED
                if name in values}


def run_steps(plan: dict, tracer: Tracer | None) -> tuple[list[dict], float]:
    from aldikit import cli

    os.chdir(plan["out"])
    results = []
    total = 0.0
    for argv in plan["steps"]:
        stdout = io.StringIO()
        sys.argv = ["aldikit"] + list(argv)
        frame = tracer.enter(True) if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of one command must not lose the report
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
        if tracer:
            tracer.exit(frame, "command:" + argv[0], None)
        total += wall
        results.append({"argv": argv, "code": code, "wall_s": wall,
                        "stdout": stdout.getvalue()})
    return results, total


def main(argv: list[str]) -> int:
    plan_path, report_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None if "--off" in argv[2:] else Tracer()
    if tracer:
        tracer.install()
    try:
        steps, total = run_steps(plan, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    report = {"steps": steps, "total_s": total, "metrics": {}, "absent": [],
              "spans": []}
    if tracer:
        report["metrics"] = tracer.metrics()
        report["absent"] = tracer.absent
        report["spans"] = tracer.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
