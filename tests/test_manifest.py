"""Seeded property tests of the one output writer."""

import os
import random

import pytest

from aldikit.manifest import write_output

_ALPHABET = list("كتب ابدا جدا؟") + list("plain ASCII 0-9\t\n")

OLD_FILES = (
    "missing", "empty", "equal", "shorter", "longer", "prefix", "extended",
    "flipped",
)


def _text(rng, low=0, high=60):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(low, high)))


def _cut(rng, text):
    """``text`` cut at random points, empty chunks included."""
    cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 8)))
    bounds = [0, *cuts, len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def _old_bytes(rng, kind, new):
    if kind == "empty":
        return b""
    if kind == "equal":
        return new
    if kind == "shorter":
        return _text(rng, 0, 30).encode("utf-8")[: max(len(new) - 1, 0)]
    if kind == "longer":
        return new + b"x" + _text(rng).encode("utf-8")
    if kind == "prefix":
        return new[: rng.randint(0, max(len(new) - 1, 0))]
    if kind == "extended":
        return new + _text(rng, 1).encode("utf-8")
    # flipped: one byte differs somewhere
    if not new:
        return b"\x00"
    at = rng.randrange(len(new))
    return new[:at] + bytes([new[at] ^ rng.randint(1, 255)]) + new[at + 1:]


@pytest.mark.parametrize("kind", OLD_FILES)
def test_write_output_leaves_exactly_the_new_bytes(tmp_path, kind):
    for seed in range(50):
        rng = random.Random("%s-%d" % (kind, seed))
        text = _text(rng)
        new = text.encode("utf-8")
        # a fresh file per seed: rewriting one file with blocks is slow
        path = tmp_path / ("out%d.txt" % seed)
        if kind != "missing":
            path.write_bytes(_old_bytes(rng, kind, new))
        write_output(path, _cut(rng, text))
        assert path.read_bytes() == new, seed


@pytest.mark.parametrize("kind", OLD_FILES)
def test_a_failed_stream_leaves_only_the_chunks_before_it(tmp_path, kind):
    for seed in range(20):
        rng = random.Random("fail-%s-%d" % (kind, seed))
        chunks = _cut(rng, _text(rng))
        done = rng.randint(0, len(chunks))

        def failing():
            yield from chunks[:done]
            raise ValueError("bad input")

        new = "".join(chunks).encode("utf-8")
        path = tmp_path / ("out%d.txt" % seed)
        if kind != "missing":
            path.write_bytes(_old_bytes(rng, kind, new))
        with pytest.raises(ValueError):
            write_output(path, failing())
        assert path.read_bytes() == "".join(chunks[:done]).encode("utf-8"), seed


def test_write_output_escapes_a_lone_surrogate(tmp_path):
    path = tmp_path / "out.txt"
    write_output(path, ["كلمة ", os.fsdecode(b"\xff"), "\n"])
    assert path.read_bytes() == "كلمة \\udcff\n".encode("utf-8")
