import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from aldikit import cli, estimators, ingest, pipeline
from aldikit import dataset as dataset_mod
from aldikit.errors import FormatError
from aldikit.evaluation import read_pairs_file, render_matrix_tsv
from aldikit.pipeline import read_score_file, run_build_dataset, run_ingest
from aldikit.speech import ScoreSeries, SeriesPoint, write_series_csv

from conftest import make_hit_line, make_row, write_rows_file

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = SRC_DIR / "aldikit" / "data"


def run(argv):
    return cli.main([str(a) for a in argv])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "aldikit 0.1.0" in out
    assert "formats:" in out


def test_version_is_one_line_at_any_width(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == (
        "aldikit 0.1.0 (formats: annotation-rows=v1, dataset=v1, lexicon=v1, "
        "manifest=v1)\n"
    )


def test_ingest_fixture(hit_file, tmp_path, capsys):
    out = tmp_path / "rows.tsv"
    assert run(["ingest", hit_file, "-o", out]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 25  # header + 24 rows
    assert (tmp_path / "rows.tsv.manifest.json").exists()
    assert "24 rows" in capsys.readouterr().out


def test_ingest_missing_file_exits_1(tmp_path, capsys):
    assert run(["ingest", tmp_path / "nope.tsv", "-o", tmp_path / "o.tsv"]) == 1


def test_ingest_bad_column_map_exits_2(hit_file, tmp_path, capsys):
    cmap = tmp_path / "map.json"
    cmap.write_text('{"worker_id": 0, "sentences": []}', encoding="utf-8")
    code = run(["ingest", hit_file, "--column-map", cmap, "-o", tmp_path / "o.tsv"])
    assert code == 2
    assert "sentence blocks" in capsys.readouterr().err


def _block0(**fields):
    def edit(raw):
        raw["sentences"][0].update(fields)
        return raw
    return edit


def _top(**fields):
    return lambda raw: {**raw, **fields}


# Column-map faults that a line-by-line reading of the map let through, turned
# into one skipped line per input line, or crashed on with a traceback.
_MAP_FAULTS = [
    pytest.param(_block0(text="eight"),
                 "'text' of sentence block 0 has unusable reference 'eight'",
                 id="text-eight"),
    pytest.param(_block0(text=True),
                 "'text' of sentence block 0 has unusable reference True", id="text-true"),
    pytest.param(_block0(text=-1),
                 "'text' of sentence block 0 has unusable reference -1", id="text-minus-1"),
    pytest.param(_top(level_aliases={"msa": "Bogus"}),
                 "level alias 'msa': unknown level 'Bogus'", id="level-alias-bogus"),
    pytest.param(_top(columns="77"),
                 "'columns' must be an integer of at least 77, got '77'", id="columns-str"),
    pytest.param(_top(columns=True),
                 "'columns' must be an integer of at least 77, got True", id="columns-true"),
    pytest.param(_top(level_aliases=["msa"]),
                 "'level_aliases' must be an object, got ['msa']", id="level-aliases-list"),
    pytest.param(lambda raw: {**raw, "sentences": [7] + raw["sentences"][1:]},
                 "sentence block 0 must be an object, got 7", id="block-int"),
    pytest.param(lambda raw: [raw], "column map must be a JSON object", id="map-list"),
    pytest.param(_top(worker_id={"value": ""}),
                 "field 'worker_id' is missing or empty", id="worker-empty"),
]


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("edit, message", _MAP_FAULTS)
def test_ingest_column_map_fault_exits_2_at_load(
    hit_file, tmp_path, capsys, edit, message, lenient
):
    raw = json.loads((DATA_DIR / "aoc_column_map.json").read_text(encoding="utf-8"))
    cmap = tmp_path / "m.json"
    cmap.write_text(json.dumps(edit(raw)), encoding="utf-8")
    out = tmp_path / "rows.tsv"
    argv = ["ingest", hit_file, "--column-map", cmap, "-o", out]
    assert run(argv + (["--lenient"] if lenient else [])) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize(
    "field, value, message",
    [("residence", "Amman\tJO", "field 'residence' has a tab or line break"),
     ("native_speaker", "maybe", "column map has unknown native_speaker 'maybe'")],
    ids=["residence-tab", "native-maybe"],
)
def test_ingest_refuses_a_constant_its_rows_file_cannot_hold(
    hit_file, tmp_path, capsys, field, value, message, lenient
):
    # Accepted at load, the tab split every rows-file line and "maybe" was
    # refused on each HIT line, which --lenient skipped down to a header.
    raw = json.loads((DATA_DIR / "aoc_column_map.json").read_text(encoding="utf-8"))
    raw[field] = {"value": value}
    cmap = tmp_path / "m.json"
    cmap.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "rows.tsv"
    argv = ["ingest", hit_file, "--column-map", cmap, "-o", out]
    assert run(argv + (["--lenient"] if lenient else [])) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "rows.tsv.manifest.json").exists()


def test_ingest_structural_error_strict_vs_lenient(tmp_path, capsys):
    path = tmp_path / "hits.tsv"
    good = make_hit_line()
    bad = "\t".join(good.split("\t")[:-6])
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    assert run(["ingest", path, "-o", tmp_path / "o.tsv"]) == 2
    assert run(["ingest", path, "--lenient", "-o", tmp_path / "o.tsv"]) == 0


@pytest.mark.parametrize(
    "lines, lenient, suffix",
    [([], False, ""), ([], True, " (skipped 0 malformed line(s))"),
     ([make_hit_line(native="maybe"), make_hit_line(worker=" ")], True,
      " (skipped 2 malformed line(s))")],
    ids=["empty-strict", "empty-lenient", "all-skipped"],
)
def test_ingest_refuses_an_export_with_no_hit(tmp_path, capsys, lines, lenient, suffix):
    hits = tmp_path / "hits.tsv"
    hits.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "rows.tsv"
    argv = ["ingest", hits, "-o", out] + (["--lenient"] if lenient else [])
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: %s contains no HITs%s\n" % (hits, suffix)
    assert sorted(os.listdir(tmp_path)) == ["hits.tsv"]


def test_failed_ingest_rerun_leaves_the_old_rows_and_manifest(tmp_path, capsys):
    hits = tmp_path / "hits.tsv"
    lines = [make_hit_line("hit%d" % i, "w%d" % i) for i in range(1, 6)]
    hits.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "rows.tsv"
    assert run(["ingest", hits, "-o", out]) == 0
    # the rerun input differs in its first line and is malformed in its last
    lines[0] = make_hit_line("hit1", "w9")
    lines[-1] = "\t".join(lines[-1].split("\t")[:-6])
    hits.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["ingest", hits, "--lenient", "-o", tmp_path / "good.tsv"]) == 0
    old_rows = out.read_bytes()
    assert (tmp_path / "good.tsv").read_bytes() != old_rows
    manifest = Path(str(out) + ".manifest.json")
    old_manifest = manifest.read_bytes()
    assert run(["ingest", hits, "-o", out]) == 2
    # the failed run leaves the old rows and their manifest whole
    assert out.read_bytes() == old_rows
    assert manifest.read_bytes() == old_manifest


def make_rows_fixture(tmp_path):
    rows = []
    for a in range(6):
        for c in range(4):
            for w in range(3):
                level = ["MSA", "Little", "Most"][w] if c % 2 else "MSA"
                rows.append(
                    make_row(
                        article_id="art%d" % a,
                        text="تعليق رقم %d-%d" % (a, c),
                        level=level,
                        dialect="EGY" if level != "MSA" else "",
                        worker="w%d" % w,
                    )
                )
    # one junk group
    rows += [
        make_row(article_id="art0", text="؟؟؟؟؟", level="NotArabic", worker="w%d" % w)
        for w in range(3)
    ]
    return write_rows_file(tmp_path, rows)


def test_build_dataset_outputs(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    out_dir = tmp_path / "out"
    assert run(["build-dataset", rows_file, "--seed", "5", "-o", out_dir]) == 0
    for name in (
        "dataset.tsv",
        "discarded.tsv",
        "split_assignment.tsv",
        "stats.json",
        "stats.txt",
        "manifest.json",
    ):
        assert (out_dir / name).exists(), name
    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    assert stats["groups"]["kept"] == 24
    assert stats["groups"]["discarded"] == 1
    discarded = (out_dir / "discarded.tsv").read_text(encoding="utf-8").splitlines()
    assert discarded[1].split("\t")[3] == "Symbols"


def test_build_dataset_counts_normalized_and_raw_keys(tmp_path):
    texts = [  # (article, text): 6 distinct raw keys, 4 normalized ones
        ("art1", "كتب"), ("art1", "كتب"), ("art1", "كتَب"), ("art1", "ارض"),
        ("art2", "كتب"), ("art2", "كُتُب"), ("art3", "نص"),
    ]
    rows = [
        make_row(article_id=article, text=text, worker="w%d" % w)
        for article, text in texts
        for w in range(3)
    ]
    out_dir = tmp_path / "out"
    assert run(["build-dataset", write_rows_file(tmp_path, rows), "-o", out_dir]) == 0
    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    assert stats["distinct_keys"] == {"normalized": 4, "raw": 6}
    assert stats["groups"]["total"] == 4
    text = (out_dir / "stats.txt").read_text(encoding="utf-8")
    assert "Distinct keys: 4 normalized, 6 raw" in text


def test_build_dataset_header_only_rows_exits_2(tmp_path, capsys):
    rows_file = write_rows_file(tmp_path, [])
    assert run(["build-dataset", rows_file, "-o", tmp_path / "out"]) == 2
    assert "contains no annotation rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, value",
    [("source", "Bogus"), ("dialect", "XYZ"), ("native_speaker", "maybe")],
)
def test_build_dataset_rejects_unknown_cell(tmp_path, capsys, column, value):
    rows_file = make_rows_fixture(tmp_path)
    lines = rows_file.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split("\t")
    cells[ingest.ROWS_HEADER.index(column)] = value
    lines[2] = "\t".join(cells)
    rows_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["build-dataset", rows_file, "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and repr(value) in err


def test_build_dataset_non_utf8_rows_exits_2(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    rows_file.write_bytes(rows_file.read_bytes() + b"AlGhad\t\xff\xfe\n")
    assert run(["build-dataset", rows_file, "-o", tmp_path / "out"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def _headless(tmp_path):
    rows_file = make_rows_fixture(tmp_path)
    lines = rows_file.read_text(encoding="utf-8").splitlines(keepends=True)
    rows_file.write_text("".join(lines[1:]), encoding="utf-8")
    return [rows_file], "missing or wrong annotation-row header"


def _splits_missing_an_article(tmp_path):
    splits = tmp_path / "splits.tsv"
    splits.write_text(
        "".join("AlGhad\tart%d\ttrain\n" % a for a in range(5)), encoding="utf-8"
    )
    return [make_rows_fixture(tmp_path), "--splits", splits], "article 'art5'"


def _two_articles(tmp_path):
    rows = [
        make_row(article_id="art%d" % a, worker="w%d" % w)
        for a in range(2)
        for w in range(3)
    ]
    return [write_rows_file(tmp_path, rows)], "only 2 article(s)"


@pytest.mark.parametrize("refused", [_headless, _splits_missing_an_article, _two_articles])
def test_a_refused_build_creates_no_output_directory(tmp_path, capsys, refused):
    args, message = refused(tmp_path)
    out = tmp_path / "new" / "out"
    assert run(["build-dataset", *args, "-o", out]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_build_dataset_reads_the_splits_file_before_the_rows(tmp_path, monkeypatch, capsys):
    def unreached(path):
        raise AssertionError("the rows were read before the splits file")

    monkeypatch.setattr(ingest, "count_raw_keys", unreached)
    splits = tmp_path / "badsplits.tsv"
    splits.write_text("AlGhad\tart0\tnope\n", encoding="utf-8")
    argv = ["build-dataset", tmp_path / "missing-rows.tsv", "--splits", splits]
    assert run(argv + ["-o", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "error: %s: line 1 has unknown split 'nope'\n" % splits
    )
    assert not (tmp_path / "out").exists()


def test_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(rows_path):
        raise ValueError("internal bug")

    monkeypatch.setattr(pipeline, "run_agreement", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["agreement", make_rows_fixture(tmp_path)])


def test_unreadable_source_date_epoch_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "99999999999999999999")
    assert run(["build-dataset", make_rows_fixture(tmp_path), "-o", tmp_path / "o"]) == 2
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err


def _tree(root):
    """Each path under ``root``: its inode, mtime and, for a file, its bytes."""
    return {
        path: (path.stat().st_ino, path.stat().st_mtime_ns,
               path.read_bytes() if path.is_file() else None)
        for path in root.rglob("*")
    }


# command -> (argv run in chain_dir, its last argument in a first run and in a
# second run that would write other bytes)
_EPOCH_RUNS = {
    "build-dataset": (["build-dataset", "rows.tsv", "-o", "out", "--seed"], "42", "7"),
    "build-lexicon": (
        ["build-lexicon", "corpus.txt", "-o", "lex.txt", "--min-count"], "2", "1"
    ),
    "ingest": (["ingest", "-o", "ingested.tsv", "--lenient"], "hits.tsv", "mixed.tsv"),
    "score": (
        ["score", "--estimator", "lexicon", "--lexicon", "lex.txt", "-o", "scores.tsv",
         "--sentences"], "sent.txt", "corpus.txt",
    ),
    "contrastive": (
        ["contrastive", str(DATA_DIR / "contrastive_pairs_egy.tsv"), "-o", "matrix.tsv",
         "--lexicon"], str(DATA_DIR / "contrastive_lexicon.txt"), "lex.txt",
    ),
    "speech": (
        ["speech", "--mode", "p", "--estimator", "lexicon", "--lexicon", "lex.txt",
         "-o", "series.csv", "--plot", "series.svg"], "speech.html", "other.html",
    ),
}


@pytest.mark.parametrize("command", list(_EPOCH_RUNS))
def test_unreadable_source_date_epoch_leaves_earlier_outputs_whole(
    chain_dir, monkeypatch, capsys, command
):
    argv, first, second = _EPOCH_RUNS[command]
    Path("other.html").write_text("<p>قيلت الحقيقة</p>", encoding="utf-8")
    assert run(["build-lexicon", "corpus.txt", "-o", "lex.txt"]) == 0
    assert run(argv + [first]) == 0
    for path in chain_dir.rglob("*"):
        os.utime(path, ns=(_OLD_NS, _OLD_NS))
    before = _tree(chain_dir)
    capsys.readouterr()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    assert run(argv + [second]) == 2
    assert capsys.readouterr().err == "error: unreadable SOURCE_DATE_EPOCH 'abc'\n"
    # every earlier output keeps its bytes, inode and mtime, and none is added
    assert _tree(chain_dir) == before
    # ... which a readable timestamp would have replaced
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert run(argv + [second]) == 0
    assert _tree(chain_dir) != before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["speech", "T.html", "--mode", "p", "--estimator", "lexicon", "--lexicon", "L",
          "-o", "a.csv", "--plot", "a.csv.manifest.json"],
         "manifest a.csv.manifest.json is the same file as output a.csv.manifest.json"),
        (["build-lexicon", "c.txt", "-o", "c.txt"],
         "output c.txt is the same file as input c.txt"),
        (["score", "--estimator", "lexicon", "--lexicon", "L", "--sentences", "S",
          "-o", "L"], "output L is the same file as input L"),
        (["ingest", "h.tsv", "-o", "h.tsv"], "output h.tsv is the same file as input h.tsv"),
        (["build-dataset", "rows.tsv", "--splits", "ds/split_assignment.tsv", "-o", "ds"],
         "output ds/split_assignment.tsv is the same file as input "
         "ds/split_assignment.tsv"),
    ],
    ids=["speech", "build-lexicon", "score", "ingest", "build-dataset"],
)
def test_an_output_that_is_an_input_or_a_manifest_exits_2_and_writes_nothing(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    Path("T.html").write_text("<p>الحقيقة اتقالت</p>", encoding="utf-8")
    Path("c.txt").write_text("كلمة أولى كلمة\nثانية أولى ثانية\n", encoding="utf-8")
    Path("S").write_text("كلمة مجهولة\n", encoding="utf-8")
    Path("L").write_bytes((DATA_DIR / "contrastive_lexicon.txt").read_bytes())
    Path("h.tsv").write_text(make_hit_line() + "\n", encoding="utf-8")
    make_rows_fixture(tmp_path)
    assert run(["build-dataset", "rows.tsv", "-o", "ds"]) == 0
    for path in tmp_path.rglob("*"):
        os.utime(path, ns=(_OLD_NS, _OLD_NS))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    # every file keeps its bytes, inode and mtime, and none is added
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "argv, path",
    [
        (["build-dataset", "B", "-o", "X"], "X/dataset.tsv"),
        (["speech", "B", "--mode", "p", "--estimator", "lexicon", "--lexicon", "B",
          "-o", "X/a.csv"], "X/a.csv"),
        (["build-lexicon", "B", "-o", "X/lex.txt"], "X/lex.txt"),
    ],
    ids=["build-dataset", "speech", "build-lexicon"],
)
def test_an_output_under_a_file_exits_1_before_the_first_read(
    tmp_path, monkeypatch, capsys, argv, path
):
    # B is no UTF-8, so a command that read it would exit 2
    monkeypatch.chdir(tmp_path)
    Path("B").write_bytes(b"\xff\n")
    Path("X").write_text("a file\n", encoding="utf-8")
    before = _tree(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err == "i/o error: [Errno 20] Not a directory: %r\n" % path
    assert _tree(tmp_path) == before


def test_build_dataset_replays_assignment(tmp_path):
    rows_file = make_rows_fixture(tmp_path)
    first = tmp_path / "first"
    assert run(["build-dataset", rows_file, "--seed", "1", "-o", first]) == 0
    replay = tmp_path / "replay"
    code = run(
        [
            "build-dataset", rows_file,
            "--splits", first / "split_assignment.tsv", "-o", replay,
        ]
    )
    assert code == 0
    assert (first / "dataset.tsv").read_bytes() == (replay / "dataset.tsv").read_bytes()


def test_build_dataset_refuses_a_seed_with_splits_and_a_replay_records_none(
    tmp_path, capsys
):
    rows_file = make_rows_fixture(tmp_path)
    first = tmp_path / "first"
    assert run(["build-dataset", rows_file, "--seed", "7", "-o", first]) == 0
    assignment = first / "split_assignment.tsv"
    for seed in ("7", "42"):  # 42, the default, too
        refused = tmp_path / ("refused-" + seed)
        with pytest.raises(SystemExit) as excinfo:
            run(["build-dataset", rows_file, "--seed", seed,
                 "--splits", assignment, "-o", refused])
        assert excinfo.value.code == 2
        assert "not allowed with argument --seed" in capsys.readouterr().err
        assert not refused.exists()
    replay = tmp_path / "replay"
    assert run(["build-dataset", rows_file, "--splits", assignment, "-o", replay]) == 0
    for name in ("stats.json", "manifest.json"):
        assert json.loads((first / name).read_text("utf-8"))["seed"] == 7
        assert json.loads((replay / name).read_text("utf-8"))["seed"] is None


def test_agreement_command(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    assert run(["agreement", rows_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["items"] == 24
    assert -1.0 <= report["fleiss_kappa"] <= 1.0
    assert report["krippendorff_alpha_interval"] <= 1.0


def _single_category_agreement(tmp_path):
    rows = [
        make_row(article_id="a%d" % a, level="Most", worker="w%d" % w)
        for a in range(3)
        for w in range(3)
    ]
    return ["agreement", write_rows_file(tmp_path, rows), "--json"]


def _unclosed_paragraph_speech(tmp_path):
    html = tmp_path / "unclosed.html"
    html.write_text("<p>a<p>b</p>", encoding="utf-8")
    lexicon = DATA_DIR / "contrastive_lexicon.txt"
    return ["speech", html, "--mode", "p", "--estimator", "lexicon",
            "--lexicon", lexicon]


@pytest.mark.parametrize(
    "argv, warning",
    [
        (_single_category_agreement,
         "all ratings fall in a single category; kappa is 1 by convention"),
        (_unclosed_paragraph_speech, "1 markup anomalies handled best-effort"),
    ],
    ids=("agreement", "speech"),
)
def test_a_library_warning_is_one_line_on_stderr(tmp_path, argv, warning):
    proc = subprocess.run(
        [sys.executable, "-m", "aldikit.cli", *map(str, argv(tmp_path))],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr.decode("utf-8") == "warning: %s\n" % warning
    assert proc.stdout


def test_build_lexicon_and_score(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("كلمة أولى كلمة\nثانية أولى ثانية\n", encoding="utf-8")
    lex_path = tmp_path / "lex.txt"
    assert run(["build-lexicon", corpus, "--min-count", "2", "-o", lex_path]) == 0
    assert (Path(str(lex_path) + ".manifest.json")).exists()
    sentences = tmp_path / "sent.txt"
    sentences.write_text("كلمة مجهولة\nأولى ثانية\n", encoding="utf-8")
    scores = tmp_path / "scores.tsv"
    code = run(
        [
            "score", "--estimator", "lexicon", "--lexicon", lex_path,
            "--sentences", sentences, "-o", scores,
        ]
    )
    assert code == 0
    lines = scores.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "1\t0.500000"
    assert lines[1] == "2\t0.000000"


def test_score_names_an_empty_sentence_by_its_score_id(tmp_path, capsys):
    sentences = tmp_path / "s.txt"
    # line 3 holds only tatweel, which normalizes away; blank line 2 gets no id
    sentences.write_text("الحقيقة\n\n\u0640\u0640\n", encoding="utf-8")
    argv = ["score", "--estimator", "lexicon", "--lexicon",
            DATA_DIR / "contrastive_lexicon.txt", "--sentences", sentences]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: sentence 2 is empty\n"


def test_every_score_writer_writes_format_score(tmp_path, capsys):
    rng = random.Random(23)
    ties = [0.2500005, 0.2500015, 0.0000005, 0.9999995, 0.1234565]
    thirds = [k / (3 * n) for n in range(1, 8) for k in range(3 * n + 1)]
    values = [0.0, 1.0, *ties, *thirds, *(rng.random() for _ in range(200))]
    expected = [estimators.format_score(v) for v in values]

    series = ScoreSeries("doc", "lexicon", tuple(
        SeriesPoint(i, "جملة", v) for i, v in enumerate(values, start=1)
    ))
    write_series_csv(series, tmp_path / "series.csv")
    lines = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == expected

    rows = [
        {"feature_id": "F%d" % i, "word_order": "VSO", "flagged": [],
         "scores": {"lexicon": {"MSA": {"masc": v}, "EGY": {"fem": v}}}}
        for i, v in enumerate(values)
    ]
    lines = render_matrix_tsv(rows).splitlines()
    assert [line.split("\t")[2:4] for line in lines[1:]] == [[c, c] for c in expected]

    # an external scorer that echoes each sentence, here the float's repr
    sentences = tmp_path / "s.txt"
    sentences.write_text("".join(repr(v) + "\n" for v in values), encoding="utf-8")
    echo = '%s -c "import sys; sys.stdout.write(sys.stdin.read())"' % sys.executable
    out = tmp_path / "scores.tsv"
    argv = ["score", "--estimator", "external", "--scorer-cmd", echo,
            "--sentences", sentences, "-o", out]
    assert run(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == ["%d\t%s" % (i, c) for i, c in enumerate(expected, start=1)]


def test_empty_lexicon_exits_2_and_is_not_scored(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("empty.txt").write_text("", encoding="utf-8")
    assert run(["build-lexicon", "empty.txt", "-o", "lex.txt"]) == 2
    assert "at least 2 times" in capsys.readouterr().err
    assert not Path("lex.txt").exists()
    assert not Path("lex.txt.manifest.json").exists()
    # a header-only lexicon, as an older build-lexicon wrote for this corpus
    Path("lex.txt").write_text("#aldi-lexicon v1 min_count=2\n", encoding="utf-8")
    Path("sent.txt").write_text("كلمة مجهولة\n", encoding="utf-8")
    argv = ["score", "--estimator", "lexicon", "--lexicon", "lex.txt"]
    assert run(argv + ["--sentences", "sent.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lex.txt: lexicon holds no tokens" in captured.err


@pytest.mark.parametrize("min_count", ["0", "-3"])
def test_build_lexicon_rejects_min_count_below_1(tmp_path, monkeypatch, capsys, min_count):
    monkeypatch.chdir(tmp_path)
    Path("corpus.txt").write_text("كلمة أولى كلمة\n", encoding="utf-8")
    argv = ["build-lexicon", "corpus.txt", "--min-count", min_count, "-o", "lex.txt"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: min count must be at least 1, got %s\n" % min_count
    )
    assert sorted(os.listdir()) == ["corpus.txt"]


def test_closed_stdout_exits_1(tmp_path):
    sentences = tmp_path / "sent.txt"
    sentences.write_text("كلمة مجهولة\n", encoding="utf-8")
    command = [
        sys.executable, "-m", "aldikit.cli", "score", "--estimator", "lexicon",
        "--lexicon", str(DATA_DIR / "contrastive_lexicon.txt"),
        "--sentences", str(sentences),
    ]
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", *command],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=60,
    )
    assert proc.returncode == 1
    assert b"i/o error: stdout is closed" in proc.stderr


def test_score_cmi_from_tags(tmp_path):
    tags = tmp_path / "tags.tsv"
    tags.write_text(
        "انا\tEGY\nاقول\tEGY\nالحق\tMSA\nمصر\tNE\n\nهو\tMSA\nقال\tMSA\n",
        encoding="utf-8",
    )
    scores = tmp_path / "scores.tsv"
    assert run(["score", "--estimator", "cmi", "--tags", tags, "-o", scores]) == 0
    lines = scores.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "1\t0.666667"
    assert lines[1] == "2\t0.000000"


def test_score_cmi_reads_its_tag_file_once(tmp_path, monkeypatch):
    calls = []
    read = estimators.read_token_tag_file

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(estimators, "read_token_tag_file", counted)
    tags = tmp_path / "tags.tsv"
    tags.write_text("انا\tEGY\nالحق\tMSA\n\nهو\tMSA\n", encoding="utf-8")
    scores = tmp_path / "scores.tsv"
    assert run(["score", "--estimator", "cmi", "--tags", tags, "-o", scores]) == 0
    assert len(calls) == 1
    assert scores.read_text(encoding="utf-8") == "1\t0.500000\n2\t0.000000\n"


def test_score_binary_di_counts_its_own_labels(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("MSA\n\negy\nGLF\n", encoding="utf-8")
    argv = ["score", "--estimator", "binary-di", "--labels", labels]
    assert run(argv) == 0
    assert capsys.readouterr().out == "1\t0.000000\n2\t1.000000\n3\t1.000000\n"
    scores = tmp_path / "scores.tsv"
    assert run(argv + ["-o", scores]) == 0
    assert scores.read_text(encoding="utf-8").count("\n") == 3
    sidecar = json.loads(
        (tmp_path / "scores.tsv.manifest.json").read_text(encoding="utf-8")
    )
    assert list(sidecar["inputs"]) == [str(labels)]


def test_evaluate_equal_predictions(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    out_dir = tmp_path / "out"
    run(["build-dataset", rows_file, "--seed", "5", "-o", out_dir])
    dataset_file = out_dir / "dataset.tsv"
    lines = dataset_file.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    aldi_col = header.index("aldi")
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "".join(
            "%d\t%s\n" % (i, line.split("\t")[aldi_col])
            for i, line in enumerate(lines[1:], start=1)
        ),
        encoding="utf-8",
    )
    capsys.readouterr()  # drop build-dataset output
    assert run(["evaluate", "--gold", dataset_file, "--pred", preds, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all"]["rmse"] == 0.0


def test_evaluate_missing_prediction_exits_2(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    out_dir = tmp_path / "out"
    run(["build-dataset", rows_file, "--seed", "5", "-o", out_dir])
    preds = tmp_path / "preds.tsv"
    preds.write_text("1\t0.5\n", encoding="utf-8")
    assert run(["evaluate", "--gold", out_dir / "dataset.tsv", "--pred", preds]) == 2


def test_evaluate_non_numeric_gold_exits_2(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    out_dir = tmp_path / "out"
    run(["build-dataset", rows_file, "--seed", "5", "-o", out_dir])
    dataset_file = out_dir / "dataset.tsv"
    lines = dataset_file.read_text(encoding="utf-8").splitlines()
    aldi_col = lines[0].split("\t").index("aldi")
    cells = lines[1].split("\t")
    cells[aldi_col] = "high"
    lines[1] = "\t".join(cells)
    dataset_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text("".join("0.5\n" for _ in lines[1:]), encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--gold", dataset_file, "--pred", preds]) == 2
    assert "row 1 has non-numeric aldi 'high'" in capsys.readouterr().err


def _evaluate_faults(tmp_path, non_numeric, missing):
    """Exit code of evaluate on the fixture's dataset with a
    non-numeric aldi on the rows in ``non_numeric`` and no prediction for
    the rows in ``missing``."""
    out_dir = tmp_path / "out"
    run(["build-dataset", make_rows_fixture(tmp_path), "--seed", "5", "-o", out_dir])
    dataset_file = out_dir / "dataset.tsv"
    lines = dataset_file.read_text(encoding="utf-8").splitlines()
    aldi_col = lines[0].split("\t").index("aldi")
    for row_id in non_numeric:
        cells = lines[row_id].split("\t")
        cells[aldi_col] = "high"
        lines[row_id] = "\t".join(cells)
    dataset_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "".join("%d\t0.5\n" % i for i in range(1, len(lines)) if i not in missing),
        encoding="utf-8",
    )
    return run(["evaluate", "--gold", dataset_file, "--pred", preds])


@pytest.mark.parametrize(
    "non_numeric, missing, message",
    [
        ([2], [5], "row 2 has non-numeric aldi 'high'"),
        ([5], [2], "no prediction for dataset row 2"),
        ([3], [3], "no prediction for dataset row 3"),
        ([], [1, 4], "no prediction for dataset row 1"),
        ([4, 6], [], "row 4 has non-numeric aldi 'high'"),
    ],
)
def test_evaluate_reports_the_first_faulty_row(
    tmp_path, capsys, non_numeric, missing, message
):
    assert _evaluate_faults(tmp_path, non_numeric, missing) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("split", [[], ["--split", "test"]], ids=["all", "test"])
def test_evaluate_refuses_a_prediction_id_that_is_no_gold_row(tmp_path, capsys, split):
    out_dir = tmp_path / "out"
    run(["build-dataset", make_rows_fixture(tmp_path), "--seed", "5", "-o", out_dir])
    gold = out_dir / "dataset.tsv"
    rows = len(gold.read_text(encoding="utf-8").splitlines()) - 1
    preds = tmp_path / "preds.tsv"
    lines = ["%d\t0.5\n" % i for i in range(1, rows + 1)] + ["99999\t0.5\n", "0\t0.1\n"]
    preds.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--gold", gold, "--pred", preds, *split]) == 2
    assert capsys.readouterr().err == (
        "error: %s: id 99999 is not a row of %s\n" % (preds, gold)
    )


def test_score_and_evaluate_ids_skip_blank_dataset_lines(tmp_path, capsys):
    # ids count data lines, so the blank third line shifts no later row
    cells = [("0.000000", "test"), ("1.000000", "test"),
             ("0.000000", "test"), ("1.000000", "train")]
    lines = [
        "\t".join(["AlGhad", "a%d" % i, "comment", "نص%d" % i, "MSA"]
                  + [""] * 5 + [aldi, split])
        for i, (aldi, split) in enumerate(cells, start=1)
    ]
    lines.insert(2, "")
    dataset_file = tmp_path / "dataset.tsv"
    dataset_file.write_text(
        "\n".join(["\t".join(dataset_mod.DATASET_HEADER)] + lines) + "\n",
        encoding="utf-8",
    )
    labels = tmp_path / "labels.txt"
    labels.write_text("MSA\nEGY\nMSA\nEGY\n", encoding="utf-8")  # the gold scores
    preds = tmp_path / "preds.tsv"
    argv = ["score", "--estimator", "binary-di", "--labels", labels]
    assert run(argv + ["--from-dataset", dataset_file, "-o", preds]) == 0
    capsys.readouterr()
    argv = ["evaluate", "--gold", dataset_file, "--pred", preds]
    assert run(argv + ["--split", "test", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all"] == {"n": 3, "rmse": 0.0}


def test_dprime_command(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("0.8\n1.0\n", encoding="utf-8")
    b.write_text("0.0\n0.2\n", encoding="utf-8")
    assert run(["dprime", "--a", a, "--b", b]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 5.657) < 1e-3


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e999"])
def test_dprime_rejects_non_finite_score(tmp_path, capsys, score):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("0.8\n%s\n" % score, encoding="utf-8")
    b.write_text("0.0\n0.2\n", encoding="utf-8")
    assert run(["dprime", "--a", a, "--b", b, "--json"]) == 2
    captured = capsys.readouterr()
    assert "line 2 has non-finite score %r" % score in captured.err
    assert captured.out == ""


def test_score_file_ids_count_data_lines(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("# header\n0.1\n\n0.2\n0.3\n", encoding="utf-8")
    assert read_score_file(path) == {1: 0.1, 2: 0.2, 3: 0.3}


def test_score_file_rejects_repeated_id(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("1\t0.5\n1\t0.9\n2\t0.1\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 2 repeats id 1"):
        read_score_file(path)


# Cells for the score-file fuzz test: good, odd and bad numbers and ids.
_SCORE_CELLS = [
    "1", "2", "0.5", "-1", "0.25", "1e999", "nan", "-inf", "0x10", "1_0", "١",
    "", " ", "abc", "1.2.3", "+", "--1", "1e", ".", "#", "9" * 5000,
]


def test_read_score_file_fuzz_raises_only_format_error(tmp_path):
    rng = random.Random(20231023)
    outcomes = set()
    for case in range(300):
        lines = []
        for _ in range(rng.randrange(0, 6)):
            shape = rng.randrange(4)
            if shape == 3:
                lines.append(rng.choice(["# note", "", "  ", "\r", "x\r", "\t"]))
            else:
                cells = [1, 2, rng.randrange(3, 5)][shape]
                lines.append("\t".join(rng.choice(_SCORE_CELLS) for _ in range(cells)))
        path = tmp_path / ("scores%d.tsv" % case)
        path.write_text("\n".join(lines) + rng.choice(["", "\n"]), encoding="utf-8")
        try:
            scores = read_score_file(path)
        except FormatError:
            outcomes.add("error")
            continue
        outcomes.add("scores")
        assert scores and all(math.isfinite(v) for v in scores.values())
    assert outcomes == {"error", "scores"}


def test_evaluate_split_rejects_repeated_id(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    out_dir = tmp_path / "out"
    run(["build-dataset", rows_file, "--seed", "5", "-o", out_dir])
    dataset_file = out_dir / "dataset.tsv"
    n = len(dataset_file.read_text(encoding="utf-8").splitlines()) - 1
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "".join("%d\t0.5\n" % i for i in [1] + list(range(1, n + 1))),
        encoding="utf-8",
    )
    code = run(
        ["evaluate", "--gold", dataset_file, "--pred", preds, "--split", "train"]
    )
    assert code == 2
    assert "repeats id 1" in capsys.readouterr().err


def test_evaluate_split_that_selects_nothing_is_refused_first(tmp_path, capsys):
    rows_file = make_rows_fixture(tmp_path)
    out_dir = tmp_path / "out"
    run(["build-dataset", rows_file, "--seed", "5", "-o", out_dir])
    dataset_file = out_dir / "dataset.tsv"
    lines = dataset_file.read_text(encoding="utf-8").splitlines()
    dataset_file.write_text(  # every row in train, so --split test selects none
        lines[0] + "\n"
        + "".join(line.rsplit("\t", 1)[0] + "\ttrain\n" for line in lines[1:]),
        encoding="utf-8",
    )
    preds = tmp_path / "preds.tsv"
    preds.write_text("1\t0.5\n", encoding="utf-8")  # rows 2 onwards are missing
    capsys.readouterr()
    code = run(["evaluate", "--gold", dataset_file, "--pred", preds, "--split", "test"])
    assert code == 2
    assert capsys.readouterr().err == "error: no gold rows selected\n"


def test_contrastive_command(tmp_path, capsys):
    matrix = tmp_path / "matrix.tsv"
    code = run(
        [
            "contrastive", DATA_DIR / "contrastive_pairs_egy.tsv",
            "--lexicon", DATA_DIR / "contrastive_lexicon.txt",
            "-o", matrix,
        ]
    )
    assert code == 0
    lines = matrix.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == [
        "feature_id", "word_order", "lexicon:MSA", "lexicon:EGY", "flags",
    ]
    f3 = [ln for ln in lines if ln.startswith("F3\tVO")][0].split("\t")
    assert f3[2] == "0.000000"
    assert f3[3] == "0.500000"


def test_contrastive_all_estimators(tmp_path, capsys):
    pairs = read_pairs_file(DATA_DIR / "contrastive_pairs_egy.tsv")
    labels = tmp_path / "di.txt"
    labels.write_text("".join(p.variant + "\n" for p in pairs), encoding="utf-8")
    tags = tmp_path / "tags.tsv"
    tags.write_text(
        "\n".join(
            "".join("%s\t%s\n" % (tok, p.variant) for tok in p.text.split())
            for p in pairs
        ),
        encoding="utf-8",
    )
    # every sentence of a batch scores 1/batch length, so the batch size shows
    scorer = (
        '%s -c "import sys; lines = sys.stdin.readlines(); '
        '[print(1 / len(lines)) for _ in lines]"' % sys.executable
    )
    matrix = tmp_path / "matrix.tsv"
    code = run(
        [
            "contrastive", DATA_DIR / "contrastive_pairs_egy.tsv",
            "--lexicon", DATA_DIR / "contrastive_lexicon.txt",
            "--di-labels", labels, "--tags", tags,
            "--scorer-cmd", scorer, "--batch-size", "8",
            "-o", matrix,
        ]
    )
    assert code == 0
    lines = matrix.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == [
        "feature_id", "word_order",
        "binary-di:MSA", "binary-di:EGY", "cmi:MSA", "cmi:EGY",
        "external:MSA", "external:EGY", "lexicon:MSA", "lexicon:EGY", "flags",
    ]
    f3 = [ln for ln in lines if ln.startswith("F3\tVO")][0].split("\t")
    assert f3[2:] == [
        "0.000000", "1.000000", "0.000000", "1.000000",
        "0.125000", "0.125000", "0.000000", "0.500000", "external",
    ]


def test_contrastive_refuses_a_missing_variant_before_the_scorer_runs(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("pairs.tsv").write_text("F1\tMSA\tVSO\tmasc\tيقول الولد\n", encoding="utf-8")
    scorer = (
        "%s -c \"open('scorer-ran', 'w'); import sys; [print(0) for _ in sys.stdin]\""
        % sys.executable
    )
    assert run(["contrastive", "pairs.tsv", "--scorer-cmd", scorer]) == 2
    assert capsys.readouterr().err == "error: feature F1 (VSO) is missing its EGY variant\n"
    assert not Path("scorer-ran").exists()


def test_contrastive_requires_estimator(tmp_path, capsys):
    code = run(["contrastive", DATA_DIR / "contrastive_pairs_egy.tsv"])
    assert code == 2


def test_speech_command(tmp_path, capsys):
    html = tmp_path / "speech.html"
    html.write_text(
        "<p>أولى ثانية</p><p>كلمة مجهولة</p><p>غريبة تماما</p>", encoding="utf-8"
    )
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("أولى ثانية أولى ثانية كلمة كلمة\n", encoding="utf-8")
    lex = tmp_path / "lex.txt"
    run(["build-lexicon", corpus, "-o", lex])
    csv_out = tmp_path / "series.csv"
    svg_out = tmp_path / "series.svg"
    code = run(
        [
            "speech", html, "--mode", "p",
            "--estimator", "lexicon", "--lexicon", lex,
            "-o", csv_out, "--plot", svg_out,
        ]
    )
    assert code == 0
    csv_lines = csv_out.read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 4
    assert csv_lines[1].startswith("1,0.000000")
    assert csv_lines[3].startswith("3,1.000000")
    assert svg_out.read_text(encoding="utf-8").count('class="pt"') == 3


@pytest.mark.parametrize("plot", ["./series.csv", "link.svg"])
def test_speech_refuses_one_file_for_series_and_plot(tmp_path, monkeypatch, capsys, plot):
    monkeypatch.chdir(tmp_path)
    os.symlink("series.csv", "link.svg")
    # the transcript does not exist: the refusal comes before it is read
    code = run(["speech", "missing.html", "--mode", "p", *_LEX_FILE,
                "--estimator", "lexicon", "-o", "series.csv", "--plot", plot])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: output %s is the same file as output series.csv\n" % plot
    )
    assert sorted(os.listdir(tmp_path)) == ["link.svg"]


def test_external_scorer_protocol_error_exits_3(tmp_path):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    code = run(
        [
            "score", "--estimator", "external",
            "--scorer-cmd", "%s -c \"import sys; sys.exit(4)\"" % sys.executable,
            "--sentences", sentences,
        ]
    )
    assert code == 3


def test_external_scorer_non_utf8_output_exits_3(tmp_path, capsys):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    scorer = "import sys; sys.stdin.read(); sys.stdout.buffer.write(b'0.5\\xff\\n')"
    code = run(
        [
            "score", "--estimator", "external",
            "--scorer-cmd", '%s -c "%s"' % (sys.executable, scorer),
            "--sentences", sentences,
        ]
    )
    assert code == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("reply", ["nan", "inf", "-1e999"])
def test_external_scorer_non_finite_output_exits_3(tmp_path, capsys, reply):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    out = tmp_path / "scores.tsv"
    code = run(
        [
            "score", "--estimator", "external",
            "--scorer-cmd",
            '%s -c "import sys; [print(%r) for _ in sys.stdin]"' % (sys.executable, reply),
            "--sentences", sentences, "-o", out,
        ]
    )
    assert code == 3
    assert "line 1 is not a finite number: %r" % reply in capsys.readouterr().err
    assert not out.exists()


def _scorer_argv(command, sentences, *flags):
    if command == "score":
        return ["score", "--estimator", "external", "--sentences", sentences, *flags]
    return ["contrastive", DATA_DIR / "contrastive_pairs_egy.tsv", *flags]


@pytest.mark.parametrize("command", ["score", "contrastive"])
def test_scorer_timeout_kills_a_hung_scorer_and_exits_3(tmp_path, capsys, command):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    pid_file = tmp_path / "scorer.pid"
    scorer = "import os, time; open(%r, 'w').write(str(os.getpid())); time.sleep(60)"
    argv = _scorer_argv(
        command, sentences,
        "--scorer-cmd", '%s -c "%s"' % (sys.executable, scorer % str(pid_file)),
        "--scorer-timeout", "0.5",
    )
    assert run(argv) == 3
    assert "ran longer than 0.5 s and was killed" in capsys.readouterr().err
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def _has_exited(pid):
    """True once ``pid`` is gone or a zombie that its new parent has not reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open("/proc/%d/stat" % pid, encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_scorer_timeout_kills_what_the_scorer_started(tmp_path, capsys):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    pid_file = tmp_path / "sleep.pid"
    scorer = "sh -c 'sleep 60 & echo $! > %s; wait'" % pid_file
    argv = _scorer_argv(
        "score", sentences, "--scorer-cmd", scorer, "--scorer-timeout", "0.5"
    )
    assert run(argv) == 3
    assert "ran longer than 0.5 s and was killed" in capsys.readouterr().err
    _assert_exits_soon(int(pid_file.read_text()))


def _assert_exits_soon(pid):
    try:
        deadline = time.monotonic() + 5
        while not _has_exited(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _has_exited(pid)
    finally:
        if not _has_exited(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT])
def test_a_signal_that_ends_aldikit_kills_what_the_scorer_started(tmp_path, signum):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    pid_file = tmp_path / "sleep.pid"
    scorer = "sh -c 'sleep 60 & echo $! > %s; wait'" % pid_file
    argv = _scorer_argv("score", sentences, "--scorer-cmd", scorer)
    child = subprocess.Popen(
        [sys.executable, "-m", "aldikit.cli", *map(str, argv)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    try:
        deadline = time.monotonic() + 30
        while not pid_file.is_file() or not pid_file.read_text().endswith("\n"):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signum)
        child.wait(timeout=30)
        _assert_exits_soon(int(pid_file.read_text()))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    # after an uncaught KeyboardInterrupt, Python ends itself by SIGINT
    assert child.returncode == (-signum if signum == signal.SIGINT else 128 + signum)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT])
def test_a_signal_while_the_scorer_starts_kills_its_group(monkeypatch, signum):
    """A signal that arrives inside ``Popen``, once the scorer exists but
    before ``Popen`` returns it, still ends the scorer's process group."""
    real_popen = subprocess.Popen
    started = []

    def popen_then_signal(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        os.kill(os.getpid(), signum)  # the handler runs before this returns
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen_then_signal)
    interrupt = signum == signal.SIGINT
    old_handler = signal.signal(
        signum, signal.default_int_handler if interrupt else signal.SIG_DFL
    )
    try:
        with pytest.raises((SystemExit, KeyboardInterrupt)) as exc:
            estimators.external_score(["x"], ["sleep", "60"])
    finally:
        signal.signal(signum, old_handler)
    (proc,) = started
    try:
        if interrupt:
            assert exc.type is KeyboardInterrupt
        else:
            assert exc.value.code == 128 + signum
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(proc.pid, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("command", ["score", "contrastive"])
@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
def test_scorer_timeout_must_be_finite_and_above_0(tmp_path, capsys, command, seconds):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    scorer = '%s -c "import sys; [print(0.25) for _ in sys.stdin]"' % sys.executable
    argv = _scorer_argv(
        command, sentences, "--scorer-cmd", scorer, "--scorer-timeout", seconds
    )
    assert run(argv) == 2
    assert "scorer timeout must be finite and above 0" in capsys.readouterr().err


_SCORE = ("score", "--sentences", "S", "--estimator")
_LEX_FILE = ("--lexicon", DATA_DIR / "contrastive_lexicon.txt")
_PAIRS_FILE = DATA_DIR / "contrastive_pairs_egy.tsv"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*_SCORE, "lexicon", *_LEX_FILE, "--batch-size", "3"],
         "--batch-size applies only to the external estimator"),
        ([*_SCORE, "lexicon", *_LEX_FILE, "--scorer-timeout", "5"],
         "--scorer-timeout applies only to the external estimator"),
        (["contrastive", _PAIRS_FILE, *_LEX_FILE, "--batch-size", "3"],
         "--batch-size applies only to the external estimator"),
        (["contrastive", _PAIRS_FILE, *_LEX_FILE, "--scorer-timeout", "5"],
         "--scorer-timeout applies only to the external estimator"),
        ([*_SCORE, "lexicon", *_LEX_FILE, "--labels", "/nonexistent"],
         "--labels applies only to the binary-di estimator"),
        ([*_SCORE, "lexicon", *_LEX_FILE, "--tags", "/nonexistent"],
         "--tags applies only to the cmi estimator"),
        ([*_SCORE, "lexicon", *_LEX_FILE, "--scorer-cmd", "false"],
         "--scorer-cmd applies only to the external estimator"),
        ([*_SCORE, "binary-di", "--labels", "DI", *_LEX_FILE],
         "--lexicon applies only to the lexicon estimator"),
        (["speech", "T.html", "--mode", "p", "--estimator", "lexicon", *_LEX_FILE,
          "--labels", "/nonexistent"],
         "--labels applies only to the binary-di estimator"),
        ([*_SCORE, "lexicon", *_LEX_FILE, "--from-dataset", "/nonexistent"],
         "argument --from-dataset: not allowed with argument --sentences"),
    ],
    ids=[
        "score-batch-size", "score-scorer-timeout",
        "contrastive-batch-size", "contrastive-scorer-timeout",
        "score-labels", "score-tags", "score-scorer-cmd", "score-lexicon",
        "speech-labels", "score-from-dataset",
    ],
)
def test_a_flag_the_run_would_not_read_exits_2(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    Path("S").write_text("جملة\n", encoding="utf-8")
    Path("DI").write_text("EGY\n", encoding="utf-8")
    Path("T.html").write_text("<p>جملة</p>", encoding="utf-8")
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["contrastive", _PAIRS_FILE, "--di-labels", ""],
         "the binary-di estimator requires --di-labels"),
        ([*_SCORE, "binary-di", "--labels", ""],
         "the binary-di estimator requires --labels"),
        # an unset flag is no input of the run that -o declares
        (["score", "--estimator", "lexicon", "-o", "x"],
         "the lexicon estimator requires --lexicon"),
    ],
    ids=["contrastive", "score", "score-output"],
)
def test_an_empty_estimator_input_names_the_flag_the_command_declares(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    Path("S").write_text("جملة\n", encoding="utf-8")
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert os.listdir() == ["S"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_SCORE, "binary-di", "--labels", "DI"],
        ["speech", "T.html", "--mode", "p", "--estimator", "binary-di",
         "--labels", "DI"],
        ["contrastive", _PAIRS_FILE, "--di-labels", "DI"],
        ["speech", "T.html", "--mode", "p", "--estimator", "lexicon", "--lexicon",
         DATA_DIR / "contrastive_lexicon.txt", "--di-labels-file", "DI"],
    ],
    ids=["score", "speech", "contrastive", "speech-di-labels-file"],
)
def test_an_unknown_di_label_is_named_by_its_file_line(
    tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    Path("S").write_text("جملة\nجملة\n", encoding="utf-8")
    Path("DI").write_text("EGY\n\n XYZ \n", encoding="utf-8")
    Path("T.html").write_text("<p>جملة</p><p>جملة</p>", encoding="utf-8")
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: DI: line 3 has unknown sentence-DI label 'XYZ'\n"
    )


def test_speech_di_labels_file_gives_the_series_of_its_labels(tmp_path, monkeypatch):
    from aldikit import speech
    from aldikit.svgplot import emit_plot

    monkeypatch.chdir(tmp_path)
    Path("T.html").write_text(
        "<p>الحقيقة اتقالت</p><p>قيلت الحقيقة</p><p>قال الولد</p>", encoding="utf-8")
    Path("DI").write_text("msa\n\n EGY \nMSA\n", encoding="utf-8")
    lexicon = DATA_DIR / "contrastive_lexicon.txt"
    assert run(["speech", "T.html", "--mode", "p", "--estimator", "lexicon", "--lexicon",
                lexicon, "--di-labels-file", "DI", "-o", "a.csv", "--plot", "a.svg"]) == 0
    # the bytes of the series with the canonical label of each non-blank line
    estimator = estimators.LexiconEstimator(estimators.load_lexicon(lexicon))
    sentences = speech.segment_html_file("T.html", "p")
    series = speech.score_series("T", sentences, estimator, ["MSA", "EGY", "MSA"])
    speech.write_series_csv(series, "b.csv")
    emit_plot(series, "b.svg")
    assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()
    assert Path("a.svg").read_bytes() == Path("b.svg").read_bytes()
    assert "EGY" in Path("a.csv").read_text(encoding="utf-8")
    # one legend entry per canonical label: msa and MSA are one colour
    svg = Path("a.svg").read_text(encoding="utf-8")
    assert re.findall(r'font-size="10">([A-Za-z]+)</text>', svg) == ["EGY", "MSA"]


def test_score_json_and_stdout(tmp_path, capsys):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    code = run(
        [
            "score", "--estimator", "external",
            "--scorer-cmd",
            '%s -c "import sys; [print(0.25) for _ in sys.stdin]"' % sys.executable,
            "--sentences", sentences,
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "1\t0.250000"


def test_an_external_minus_zero_is_written_as_zero(tmp_path, capsys):
    scorer = "sh -c 'sed s/.*/-0/'"
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    assert run(["score", "--estimator", "external", "--scorer-cmd", scorer,
                "--sentences", sentences]) == 0
    assert capsys.readouterr().out == "1\t0.000000\n"
    matrix = tmp_path / "matrix.tsv"
    assert run(["contrastive", DATA_DIR / "contrastive_pairs_egy.tsv",
                "--scorer-cmd", scorer, "-o", matrix]) == 0
    lines = matrix.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t")[2:4] == ["external:MSA", "external:EGY"]
    assert {cell for line in lines[1:] for cell in line.split("\t")[2:4]} == {"0.000000"}


@pytest.mark.parametrize("line", ["\tكلمة", "\t7", "جملة\t", "جملة\tسبعة", "جملة\t7\t8"])
def test_a_lexicon_line_other_than_a_token_and_its_count_exits_2(tmp_path, capsys, line):
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("#aldi-lexicon v1 min_count=2\nجملة\t7\nكلمة\n%s\n" % line,
                       encoding="utf-8")
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\n", encoding="utf-8")
    assert run(["score", "--estimator", "lexicon", "--lexicon", lexicon,
                "--sentences", sentences]) == 2
    assert capsys.readouterr().err == "error: %s: line 4 has %d columns, expected 1\n" % (
        lexicon, line.count("\t") + 1)


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_score_rejects_batch_size_below_1(tmp_path, capsys, batch_size):
    sentences = tmp_path / "s.txt"
    sentences.write_text("جملة\nجملة ثانية\n", encoding="utf-8")
    code = run(
        [
            "score", "--estimator", "external",
            "--scorer-cmd",
            '%s -c "import sys; [print(0.25) for _ in sys.stdin]"' % sys.executable,
            "--batch-size", batch_size,
            "--sentences", sentences, "-o", tmp_path / "scores.tsv",
        ]
    )
    assert code == 2
    assert "batch size must be at least 1" in capsys.readouterr().err


# Every subcommand in text mode with its exact stdout, run in order from the
# directory the chain_dir fixture fills.
_LEXICON = ["--estimator", "lexicon", "--lexicon", "lex.txt"]
_PAIRS = [
    str(DATA_DIR / "contrastive_pairs_egy.tsv"),
    "--lexicon", str(DATA_DIR / "contrastive_lexicon.txt"),
]
CHAIN = [
    (
        ["ingest", "hits.tsv", "-o", "ingested.tsv"],
        "ingested 2 HITs -> 24 rows (ingested.tsv)\n  AlGhad    24\n",
    ),
    (
        ["ingest", "mixed.tsv", "--lenient", "-o", "mixed_rows.tsv"],
        "ingested 1 HITs -> 12 rows (mixed_rows.tsv)\n  AlGhad    12\n"
        "  skipped 1 malformed line(s)\n",
    ),
    (
        ["build-dataset", "rows.tsv", "--seed", "5", "-o", "out"],
        "built dataset: 24 kept, 1 discarded -> out\n",
    ),
    (
        ["agreement", "rows.tsv"],
        "items with 3 usable annotations: 24\n"
        "ratings:                         72\n"
        "Fleiss kappa:                    0.000000\n"
        "Krippendorff alpha (interval):   0.058712\n",
    ),
    (
        ["build-lexicon", "corpus.txt", "-o", "lex.txt"],
        "lexicon: kept 3 of 3 distinct tokens (min_count=2) -> lex.txt\n",
    ),
    (["score", *_LEXICON, "--sentences", "sent.txt"], "1\t0.500000\n2\t0.000000\n"),
    (
        ["score", *_LEXICON, "--sentences", "sent.txt", "-o", "scores.tsv"],
        "scored 2 sentences -> scores.tsv\n",
    ),
    (
        ["score", *_LEXICON, "--from-dataset", "out/dataset.tsv", "-o", "preds.tsv"],
        "scored 24 sentences -> preds.tsv\n",
    ),
    (
        ["evaluate", "--gold", "out/dataset.tsv", "--pred", "preds.tsv"],
        "subset          n  rmse\ncontrol         0  -\n"
        "comment        24  0.808901\nall            24  0.808901\n",
    ),
    (["dprime", "--a", "scores.tsv", "--b", "preds.tsv"], "3.000000\n"),
    (
        ["contrastive", *_PAIRS],
        "feature_id\tword_order\tlexicon:MSA\tlexicon:EGY\tflags\n"
        + "".join(
            "%s\t%s\t0.000000\t%s\t\n" % row
            for row in [
                ("F1", "VSO", "0.333333"), ("F1", "SVO", "0.333333"),
                ("F2", "VSO", "0.333333"), ("F2", "SVO", "0.333333"),
                ("F3", "VO", "0.500000"), ("F3", "OV", "0.500000"),
                ("F4", "VSO", "0.333333"), ("F4", "SVO", "0.333333"),
                ("F5", "VSO", "0.500000"),
            ]
        ),
    ),
    (
        ["contrastive", *_PAIRS, "-o", "matrix.tsv"],
        "wrote 9 matrix rows -> matrix.tsv\n",
    ),
    (
        ["speech", "speech.html", "--mode", "p", *_LEXICON,
         "-o", "series.csv", "--plot", "series.svg"],
        "speech: 3 segments scored with lexicon\n  wrote series.csv\n"
        "  wrote series.svg\n",
    ),
]


@pytest.fixture
def chain_dir(hit_file, tmp_path, monkeypatch):
    """The inputs of CHAIN in tmp_path, which becomes the working directory."""
    monkeypatch.chdir(tmp_path)
    Path("mixed.tsv").write_text(make_hit_line() + "\nnot a hit\n", encoding="utf-8")
    make_rows_fixture(tmp_path)
    Path("corpus.txt").write_text("كلمة أولى كلمة\nثانية أولى ثانية\n", encoding="utf-8")
    Path("sent.txt").write_text("كلمة مجهولة\nأولى ثانية\n", encoding="utf-8")
    Path("speech.html").write_text(
        "<p>أولى ثانية</p><p>كلمة مجهولة</p><p>غريبة تماما</p>", encoding="utf-8"
    )
    return tmp_path


def test_text_stdout_of_every_subcommand(chain_dir, capsys):
    for argv, expected in CHAIN:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


_REPORT_LOADED_MODULES = """
import sys
from aldikit import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(
    m for m in sys.modules if m.partition(".")[0] in ("aldikit", "dataclasses")
))
"""


def _modules_loaded_by(argv):
    """Exit code, and the aldikit modules and ``dataclasses`` if loaded, after
    ``main(argv)`` in a fresh interpreter without ``site``, whose start-up
    hooks may import modules of their own."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _REPORT_LOADED_MODULES, *map(str, argv)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=60,
        check=True,
    )
    code, *modules = proc.stdout.decode("utf-8").splitlines()[-1].split()
    return int(code), set(modules)


def test_each_command_loads_only_the_modules_it_runs(chain_dir):
    assert _modules_loaded_by(["--version"]) == (
        0, {"aldikit", "aldikit.cli", "aldikit.errors"}
    )
    loaded = {}
    for argv, _ in CHAIN:
        code, modules = _modules_loaded_by(argv)
        assert code == 0, argv
        assert "dataclasses" not in modules, argv
        loaded.setdefault(argv[0], set()).update(modules)
    assert loaded["evaluate"] == {
        "aldikit", "aldikit.cli", "aldikit.errors", "aldikit.evaluation",
        "aldikit.pipeline",
    }
    assert "aldikit.pipeline" in loaded["agreement"]
    unused = {"estimators", "evaluation", "manifest", "speech", "svgplot"}
    assert loaded["agreement"].isdisjoint("aldikit." + name for name in unused)
    for command in ("score", "speech"):
        assert loaded[command].isdisjoint({"aldikit.dataset", "aldikit.ingest"})


def _manifest_paths(argv):
    """The manifests a CHAIN command writes: one per -o or --plot output."""
    if argv[0] == "build-dataset":
        return [Path(argv[argv.index("-o") + 1], "manifest.json")]
    return [
        Path(value + ".manifest.json")
        for flag, value in zip(argv, argv[1:])
        if flag in ("-o", "--plot")
    ]


def test_manifests_record_the_argv_main_parsed(chain_dir, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pytest", "-q", "tests/"])
    for argv, _ in CHAIN:
        assert run(argv) == 0, argv
    for argv, _ in CHAIN:
        for path in _manifest_paths(argv):
            assert json.loads(path.read_text(encoding="utf-8"))["command"] == argv


def test_manifests_record_every_file_the_command_reads(chain_dir):
    assert run(["build-lexicon", "corpus.txt", "-o", "lex.txt"]) == 0
    Path("di.txt").write_text("MSA\nEGY\nMSA\n", encoding="utf-8")
    for argv, inputs in [  # each argv ends in its one output
        (["score", *_LEXICON, "--sentences", "sent.txt", "-o", "scores.tsv"],
         ["lex.txt", "sent.txt"]),
        (["speech", "speech.html", "--mode", "p", *_LEXICON,
          "--di-labels-file", "di.txt", "--plot", "p.svg"],
         ["di.txt", "lex.txt", "speech.html"]),
        (["contrastive", *_PAIRS, "-o", "matrix.tsv"],
         sorted(_PAIRS[::2])),  # the pairs file and --lexicon
    ]:
        assert run(argv) == 0, argv
        manifest = Path(argv[-1] + ".manifest.json").read_text(encoding="utf-8")
        assert sorted(json.loads(manifest)["inputs"]) == inputs, argv


_OLD_NS = 10**18  # an mtime in 2001, long before any rerun


_DATASET_FILES = [
    "dataset.tsv", "discarded.tsv", "split_assignment.tsv", "stats.json", "stats.txt"
]


def _output_paths(argv):
    """Every file a CHAIN command writes: its -o and --plot outputs, or
    build-dataset's data files, and their manifests."""
    if argv[0] == "build-dataset":
        outputs = [Path(argv[argv.index("-o") + 1], name) for name in _DATASET_FILES]
    else:
        outputs = [
            Path(value) for flag, value in zip(argv, argv[1:]) if flag in ("-o", "--plot")
        ]
    return outputs + _manifest_paths(argv)


@pytest.mark.parametrize(
    "step",
    [i for i, (argv, _) in enumerate(CHAIN) if _output_paths(argv)],
    ids=lambda i: "%d-%s" % (i, CHAIN[i][0][0]),
)
def test_identical_outputs_are_left_untouched(chain_dir, monkeypatch, step):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    for argv, _ in CHAIN[: step + 1]:
        assert run(argv) == 0, argv
    argv = CHAIN[step][0]
    paths = _output_paths(argv)
    manifests = _manifest_paths(argv)

    def assert_untouched(path, ino, data):
        stat = path.stat()
        assert (stat.st_mtime_ns, stat.st_ino, path.read_bytes()) == (
            _OLD_NS, ino, data
        ), path

    for path in paths:
        os.utime(path, ns=(_OLD_NS, _OLD_NS))
    first = {path: (path.stat().st_ino, path.read_bytes()) for path in paths}
    assert run(argv) == 0
    for path in paths:
        assert_untouched(path, *first[path])

    # a new timestamp rewrites every manifest with the new bytes, and only them
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
    assert run(argv) == 0
    expected = {}
    for path in paths:
        ino, old_bytes = first[path]
        if path not in manifests:
            assert_untouched(path, ino, old_bytes)
            expected[path] = old_bytes
            continue
        expected[path] = old_bytes.replace(
            b'"1970-01-01T00:00:00Z"', b'"1970-01-02T00:00:00Z"'
        )
        assert expected[path] != old_bytes
        assert path.read_bytes() == expected[path]
    # the new bytes followed by junk are not a match
    for path in paths:
        path.write_bytes(expected[path] + b"junk")
        os.utime(path, ns=(_OLD_NS, _OLD_NS))
    assert run(argv) == 0
    for path in paths:
        assert path.read_bytes() == expected[path], path
        assert path.stat().st_mtime_ns != _OLD_NS, path


@pytest.mark.parametrize("command", ["build-lexicon", "speech"])
def test_non_utf8_path_is_escaped_in_outputs(chain_dir, capsys, command):
    # a path byte that is not UTF-8 reaches aldikit as a lone surrogate
    bad = os.fsdecode(b"\xff")
    if command == "build-lexicon":
        argv = ["build-lexicon", "corpus.txt", "-o", "lex%s.txt" % bad, "--json"]
        manifest = Path("lex%s.txt.manifest.json" % bad)
        written = Path("lex%s.txt" % bad)
    else:
        assert run(["build-lexicon", "corpus.txt", "-o", "lex.txt"]) == 0
        os.rename("speech.html", "t%s.html" % bad)
        argv = ["speech", "t%s.html" % bad, "--mode", "p", *_LEXICON,
                "--plot", "p.svg", "--json"]
        manifest = Path("p.svg.manifest.json")
        written = Path("p.svg")
    capsys.readouterr()
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    json.loads(captured.out)
    recorded = json.loads(manifest.read_text(encoding="utf-8"))["command"]
    assert [os.fsencode(a) for a in recorded] == [os.fsencode(a) for a in argv]
    assert written.stat().st_size > 0
    if command == "speech":
        assert "t\\udcff (lexicon)" in written.read_text(encoding="utf-8")


def test_non_utf8_path_keeps_its_bytes_on_a_stdout_that_carries_them(chain_dir):
    # in UTF-8 mode stdout writes lone surrogates back as the original bytes
    proc = subprocess.run(
        [sys.executable, "-X", "utf8", "-m", "aldikit.cli", "build-lexicon",
         "corpus.txt", "-o", b"lex\xff.txt"],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith(b"-> lex\xff.txt\n")


@pytest.mark.parametrize(
    "step",
    [i for i, (argv, _) in enumerate(CHAIN) if argv[0] != "score"],
    ids=lambda i: "%d-%s" % (i, CHAIN[i][0][0]),
)
def test_json_stdout_is_one_document(chain_dir, capsys, step):
    for argv, _ in CHAIN[:step]:
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert run(CHAIN[step][0] + ["--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)  # raises on anything before or after the document
    canonical = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    assert out == canonical + "\n"


@pytest.mark.parametrize(
    "argv, content",
    [
        (["score", "--estimator", "lexicon", "--sentences", "in.txt"], "\n  \n"),
        (
            ["score", "--estimator", "lexicon", "--from-dataset", "in.txt"],
            "\t".join(dataset_mod.DATASET_HEADER) + "\n",
        ),
        (["contrastive", "in.txt"], "feature_id\tvariant\tword_order\tgender\ttext\n"),
    ],
    ids=["score-sentences", "score-from-dataset", "contrastive"],
)
def test_empty_input_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, argv, content
):
    monkeypatch.chdir(tmp_path)
    Path("in.txt").write_text(content, encoding="utf-8")
    lexicon = ["--lexicon", str(DATA_DIR / "contrastive_lexicon.txt")]
    assert run(argv + lexicon + ["-o", "result.tsv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "in.txt contains no" in captured.err
    assert not Path("result.tsv").exists()
    assert not Path("result.tsv.manifest.json").exists()
