"""Tests of the benchmark itself: generator, ledger, RSS measure, tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = gen.Sizes(150, False, 200, (5, 12), 25, (4, 10))
TINY_VARIANTS = gen.Sizes(150, True, 200, (5, 12), 25, (4, 10))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("sizes", [TINY, TINY_VARIANTS])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, sizes):
    ledgers = [gen.generate(sizes, seed, tmp_path / name)
               for seed, name in ((3, "a"), (3, "b"), (4, "c"))]
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert a == b and ledgers[0] == ledgers[1]
    assert set(a) == set(c)
    assert all(a[name] != c[name] for name in a)


def test_variants_share_groups_and_never_repeat_raw_text(tmp_path):
    plain = gen.generate(TINY, 5, tmp_path / "plain")
    varied = gen.generate(TINY_VARIANTS, 5, tmp_path / "varied")
    for key in ("hits", "groups", "kept", "discarded", "agreement_items"):
        assert plain[key] == varied[key]
    assert plain["distinct_keys"]["raw"] < varied["distinct_keys"]["raw"]
    assert varied["distinct_raw_texts"] == varied["rows"]


@pytest.mark.parametrize("sizes", [TINY, TINY_VARIANTS])
def test_ledger_matches_a_build_of_a_tiny_corpus(tmp_path, sizes):
    ledger = gen.generate(sizes, 11, tmp_path / "in")
    assert ledger["discarded"] and all(ledger["discard_categories"].values())
    expected: dict[str, str] = {}
    deadline = time.monotonic() + 120
    for _ in range(2):
        results = run.run_chain(run.chain(11), tmp_path / "out", ledger,
                                expected, deadline)
        assert [(r.name, r.problems) for r in results if r.problems] == []
    assert "ds/dataset.tsv" in expected and "agreement.stdout" in expected


def test_wrong_ledger_counts_fail_the_step(tmp_path):
    ledger = gen.generate(TINY, 12, tmp_path / "in")
    ledger["agreement_items"] += 1
    results = run.run_chain(run.chain(12)[:3], tmp_path / "out", ledger, {},
                            time.monotonic() + 60)
    assert [r.name for r in results if r.problems] == ["agreement"]


def test_changed_output_bytes_fail_the_step(tmp_path):
    ledger = gen.generate(TINY, 13, tmp_path / "in")
    expected = {"rows.tsv": "0" * 64}
    results = run.run_chain(run.chain(13)[:1], tmp_path / "out", ledger,
                            expected, time.monotonic() + 60)
    assert results[0].problems == ["rows.tsv differs from its recorded digest"]


def test_a_call_that_writes_nothing_fails_even_after_an_earlier_call(tmp_path):
    ledger = gen.generate(TINY, 14, tmp_path / "in")
    ingest = run.chain(14)[0]
    assert run.run_chain([ingest], tmp_path / "out", ledger, {},
                         time.monotonic() + 60)[0].problems == []
    silent = run.Step("ingest", ("--version",), ingest.outputs)
    result = run.run_step(silent, tmp_path / "out", ledger, {},
                          time.monotonic() + 60)
    assert result.problems == ["rows.tsv was not written"]


def test_small_child_after_large_one_reports_its_own_rss(tmp_path):
    deadline = time.monotonic() + 60
    big = "x = b'x' * (160 << 20)"
    big_kb = run.run_child([sys.executable, "-c", big], tmp_path, deadline,
                           tmp_path / "big.out")[2]
    small_kb = run.run_child([sys.executable, "-c", "pass"], tmp_path, deadline,
                             tmp_path / "small.out")[2]
    assert big_kb > 160 * 1024
    assert small_kb < big_kb / 2


def test_tracer_tolerates_a_missing_function(monkeypatch):
    from aldikit import textnorm

    probes = tracer.PROBES + (
        tracer.Probe("textnorm", "no_such_function", tracer.LEAF, "textnorm.gone"),
        tracer.Probe("no_such_module", "f", tracer.SPAN, "gone.module"),
    )
    monkeypatch.setattr(tracer, "PROBES", probes)
    monkeypatch.setattr(tracer, "REPORTED", tracer.REPORTED + (
        ("textnorm.gone.s", "s"), ("gone.module.s", "s")))
    original = textnorm.normalize
    t = tracer.Tracer()
    t.install()
    try:
        assert textnorm.normalize("a  b") == "a b"
        textnorm.normalize("a  b")
    finally:
        t.uninstall()
    assert textnorm.normalize is original
    assert t.absent == ["textnorm.no_such_function", "no_such_module.f"]
    metrics = t.metrics()
    assert "textnorm.gone.s" not in metrics and "gone.module.s" not in metrics
    assert metrics["textnorm.normalize.calls"][0] == 2
    assert metrics["textnorm.normalize.distinct"][0] == 1


def test_self_time_excludes_wrapped_children():
    t = tracer.Tracer()
    outer = t.enter(True)
    inner = t.enter(True)
    time.sleep(0.02)
    t.exit(inner, "inner", None)
    t.exit(outer, "outer", None)
    assert t.stats["outer"].s >= t.stats["inner"].s >= 0.02
    assert t.stats["outer"].self_s < 0.01
    assert t.spans[1][1] == t.spans[0][0]  # inner's parent is outer
