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


_OLD_NS = 10**18  # an mtime in 2001, long before any write


@pytest.mark.parametrize("kind", OLD_FILES)
def test_write_output_leaves_exactly_the_new_bytes(tmp_path, kind):
    """Any old file, a prefix or a longer one too, ends up holding the new
    bytes; one that already holds them keeps its inode and mtime."""
    for seed in range(50):
        rng = random.Random("%s-%d" % (kind, seed))
        text = _text(rng)
        new = text.encode("utf-8")
        # a fresh file per seed: rewriting one file with blocks is slow
        path = tmp_path / ("out%d.txt" % seed)
        old = None if kind == "missing" else _old_bytes(rng, kind, new)
        if old is not None:
            path.write_bytes(old)
            os.utime(path, ns=(_OLD_NS, _OLD_NS))
            ino = path.stat().st_ino
        write_output(path, _cut(rng, text))
        assert path.read_bytes() == new, seed
        if old == new:
            assert (path.stat().st_ino, path.stat().st_mtime_ns) == (ino, _OLD_NS), seed
        # only equal holds the new bytes, unless they are empty
        assert (old == new) == (kind == "equal") or not new, seed


@pytest.mark.parametrize("kind", OLD_FILES)
def test_a_failed_stream_leaves_the_old_file_whole(tmp_path, kind):
    """The chunks before the failure never reach ``path``: the old file
    stays whole (or absent), and no other file is left behind."""
    for seed in range(20):
        rng = random.Random("fail-%s-%d" % (kind, seed))
        chunks = _cut(rng, _text(rng))
        done = rng.randint(0, len(chunks))

        def failing():
            yield from chunks[:done]
            raise ValueError("bad input")

        new = "".join(chunks).encode("utf-8")
        path = tmp_path / ("out%d.txt" % seed)
        old = None if kind == "missing" else _old_bytes(rng, kind, new)
        if old is not None:
            path.write_bytes(old)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(ValueError):
            write_output(path, failing())
        assert sorted(tmp_path.iterdir()) == before, seed
        assert (path.read_bytes() if path.exists() else None) == old, seed


def test_write_output_keeps_the_mode_a_new_or_an_old_file_has(tmp_path):
    path = tmp_path / "out.txt"
    old_umask = os.umask(0o027)
    try:
        write_output(path, ["text\n"])
        assert path.stat().st_mode & 0o777 == 0o640
        path.chmod(0o604)
        write_output(path, ["new text\n"])
    finally:
        os.umask(old_umask)
    assert path.stat().st_mode & 0o777 == 0o604


def test_write_output_writes_through_a_symlink_and_into_a_device(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    write_output(link, ["new\n"])
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "new\n"
    write_output(os.devnull, ["discarded\n"])
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_write_output_names_the_target_when_its_directory_is_missing(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as excinfo:
        write_output(path, ["text\n"])
    assert excinfo.value.filename == str(path)


def test_write_output_escapes_a_lone_surrogate(tmp_path):
    path = tmp_path / "out.txt"
    write_output(path, ["كلمة ", os.fsdecode(b"\xff"), "\n"])
    assert path.read_bytes() == "كلمة \\udcff\n".encode("utf-8")
