"""ResultCache: source-keyed entries, per-writer temporary files, and
writes that fail without failing the command."""

import os

import pytest

import maclab.cache
from maclab.cache import ResultCache, source_hash
from maclab.cli import main

MACDONALD = ("macdonald", "--n", "3", "--lambda", "2,1", "--output", "json")


def test_source_hash_is_stable_sha256():
    h = source_hash()
    assert len(h) == 64 and int(h, 16) >= 0
    assert source_hash() == h


def test_entry_not_served_under_another_source_hash(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    monkeypatch.setattr(maclab.cache, "source_hash", lambda: "a" * 64)
    cache.put("op", {"n": 1}, {"value": 1})
    assert cache.get("op", {"n": 1}) == {"value": 1}
    monkeypatch.setattr(maclab.cache, "source_hash", lambda: "b" * 64)
    assert cache.get("op", {"n": 1}) is None
    monkeypatch.setattr(maclab.cache, "source_hash", lambda: "a" * 64)
    assert cache.get("op", {"n": 1}) == {"value": 1}


def test_each_write_uses_its_own_temporary_file(tmp_path, monkeypatch):
    sources = []
    replace = os.replace

    def recording_replace(src, dst):
        sources.append(src)
        replace(src, dst)

    monkeypatch.setattr(maclab.cache.os, "replace", recording_replace)
    cache = ResultCache(tmp_path)
    cache.put("op", {"n": 1}, {"value": 1})
    cache.put("op", {"n": 1}, {"value": 1})
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(os.path.dirname(s) == str(tmp_path) for s in sources)
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_write_warns_and_cli_output_is_unchanged(tmp_path, monkeypatch, capsys):
    assert main([*MACDONALD, "--no-cache"]) == 0
    expected = capsys.readouterr().out

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(maclab.cache.os, "replace", failing_replace)
    with pytest.warns(RuntimeWarning, match="disk full"):
        code = main([*MACDONALD, "--cache-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == expected
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["[1, 2]", "null"])
def test_entry_that_is_not_an_object_is_recomputed(tmp_path, capsys, text):
    args = (*MACDONALD, "--cache-dir", str(tmp_path))
    assert main(list(args)) == 0
    cold = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(text)
    assert main(list(args)) == 0
    assert capsys.readouterr().out == cold
    assert entry.read_text() != text
