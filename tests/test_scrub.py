"""Tests for ``repro.index.scrub``: offline ``verify`` finds every kind of
at-rest damage without modifying anything, and ``repair`` re-derives
exactly the damage the table store can rebuild — after which the corpus
verifies clean and ranks bit-identically to the undamaged original."""

import pytest

from repro.cli import main
from repro.index import build_sharded_corpus, load_corpus
from repro.index.scrub import repair_corpus, verify_corpus
from repro.tables.table import WebTable

TERMS = ["name", "val3a"]


def make_tables(n=24):
    return [
        WebTable.from_rows(
            [[f"val{i}a", f"{i}"], [f"val{i}b", f"{i + 1}"]],
            header=["name", "rank"],
            table_id=f"t{i}",
        )
        for i in range(n)
    ]


def ranking(path):
    corpus = load_corpus(path, mutable=False)
    return [(h.doc_id, h.score) for h in corpus.search(TERMS, limit=50)]


@pytest.fixture
def corpus_dir(tmp_path):
    path = tmp_path / "corpus"
    build_sharded_corpus(make_tables(), 2).save(path)
    return path


def flip_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


REPAIRABLE = {
    "checksum": ("index.bin", flip_byte),
    "size": ("index.bin", truncate),
    "missing": ("index.bin", lambda p: p.unlink()),
}


def test_clean_corpus_verifies(corpus_dir):
    report = verify_corpus(corpus_dir)
    assert report.ok and not report.repairable
    assert report.shards_checked == 2
    assert report.to_dict()["issues"] == []


@pytest.mark.parametrize("kind", sorted(REPAIRABLE))
def test_repair_rederives_a_broken_snapshot(corpus_dir, kind):
    before = ranking(corpus_dir)
    name, damage = REPAIRABLE[kind]
    damage(corpus_dir / "shard-0001" / name)

    found = verify_corpus(corpus_dir)
    assert [(i.shard, i.kind) for i in found.issues] == [("shard-0001", kind)]
    assert found.repairable

    repaired = repair_corpus(corpus_dir)
    assert repaired.repaired == ["shard-0001"] and repaired.ok
    assert verify_corpus(corpus_dir).ok
    assert ranking(corpus_dir) == before


def test_v2_snapshot_decode_failure_is_repaired(tmp_path):
    path = tmp_path / "corpus"
    build_sharded_corpus(make_tables(), 2).save(path, index_format="json")
    before = ranking(path)
    (path / "shard-0000" / "index.json").write_text("{")

    found = verify_corpus(path)
    assert [(i.kind, i.repairable) for i in found.issues] == [("decode", True)]
    assert repair_corpus(path).repaired == ["shard-0000"]
    assert verify_corpus(path).ok
    assert ranking(path) == before


def test_source_damage_is_reported_not_repaired(corpus_dir):
    # A bad record before a good one (a bad *last* line is a torn tail
    # that load-time journal repair truncates, not damage).
    (corpus_dir / "shard-0000" / "journal.jsonl").write_text(
        'garbage\n{"seq": 1}\n'
    )
    (corpus_dir / "shard-0001" / "tables.jsonl").write_text("garbage\n")

    found = verify_corpus(corpus_dir)
    assert [(i.shard, i.kind, i.repairable) for i in found.issues] == [
        ("shard-0000", "journal", False),
        ("shard-0001", "tables", False),
    ]
    report = repair_corpus(corpus_dir)
    assert report.repaired == [] and not report.ok
    assert len(report.issues) == 2


def test_unreadable_manifest_ends_the_scrub(corpus_dir):
    (corpus_dir / "manifest.json").write_text("{")
    report = verify_corpus(corpus_dir)
    assert [i.kind for i in report.issues] == ["manifest"]
    assert report.shards_checked == 0


def test_cli_verify_fails_until_repair(corpus_dir, capsys):
    flip_byte(corpus_dir / "shard-0000" / "index.bin")
    assert main(["index", "verify", str(corpus_dir)]) == 1
    assert "checksum" in capsys.readouterr().out
    assert main(["index", "repair", str(corpus_dir)]) == 0
    assert main(["index", "verify", str(corpus_dir), "--json"]) == 0
