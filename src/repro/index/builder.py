"""Building the searchable corpus: index + store from extracted tables.

Ties the offline half of Figure 2 together: given :class:`WebTable` objects
(from the extractor or the synthetic generator), produce the
:class:`~repro.index.inverted.InvertedIndex`, the
:class:`~repro.index.store.TableStore`, and the corpus-wide
:class:`~repro.text.tfidf.TermStatistics` every feature shares.

:class:`IndexedCorpus` implements the backend contract of
:class:`~repro.index.protocol.CorpusProtocol`; ``build_corpus_index`` can
alternatively produce a hash-partitioned
:class:`~repro.index.sharded.ShardedCorpus` (``num_shards=``) and persist
either kind to a directory (``save=``) for O(read) reloads.

Persisted shards come in two formats, selected by ``index_format``:
``"bin"`` (the default; manifest ``version: 3``) writes the
:mod:`repro.index.binfmt` binary columnar snapshot that loads through
``mmap`` and supports lazy per-shard materialization, while ``"json"``
(manifest ``version: 2``) keeps the PR 2 JSON snapshot.  Both versions
load through the same entry points.  :func:`build_corpus_stream` is the
O(shard)-memory streaming builder for corpora that don't fit in RAM at
once.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from ..text.tokenize import tokenize
from .binfmt import SHARD_BIN_FILE, read_index_bin, write_index_bin
from .inverted import FIELD_BOOSTS, InvertedIndex, SearchHit
from .store import TableStore, write_offsets_sidecar

__all__ = [
    "IndexedCorpus",
    "analyze_table",
    "build_corpus_index",
    "build_corpus_stream",
    "INDEX_FORMAT",
    "INDEX_VERSION",
    "JSON_INDEX_VERSION",
    "SUPPORTED_VERSIONS",
    "DEFAULT_INDEX_FORMAT",
]

#: Manifest ``format`` marker of the persisted corpus directory layout.
INDEX_FORMAT = "repro-index"
#: Current manifest ``version`` written by default.  Version 2 added the
#: ``journal_seq`` manifest key and per-shard write-ahead journals; version
#: 3 switched shard snapshots to the binary columnar format of
#: :mod:`repro.index.binfmt` with per-shard byte lengths + CRC-32 checksums
#: in the manifest (see DESIGN.md, "On-disk corpus format").
INDEX_VERSION = 3
#: The JSON-snapshot manifest version (still fully readable and writable).
JSON_INDEX_VERSION = 2
#: Manifest versions this build can load.
SUPPORTED_VERSIONS = (2, 3)
#: Default shard snapshot format for new saves.
DEFAULT_INDEX_FORMAT = "bin"
#: Shard snapshot format <-> manifest version (one determines the other).
_FORMAT_VERSIONS: Dict[str, int] = {"json": JSON_INDEX_VERSION, "bin": INDEX_VERSION}
_VERSION_FORMATS: Dict[int, str] = {v: f for f, v in _FORMAT_VERSIONS.items()}

#: File names inside a persisted corpus directory (see DESIGN.md).
MANIFEST_FILE = "manifest.json"
STATS_FILE = "stats.json"
SHARD_INDEX_FILE = "index.json"
SHARD_TABLES_FILE = "tables.jsonl"
#: Per-shard write-ahead journal (``repro.index.journal``), living next to
#: the shard snapshot it mutates.
JOURNAL_FILE = "journal.jsonl"


@dataclass
class IndexedCorpus:
    """The queryable corpus bundle produced by offline processing."""

    index: InvertedIndex
    store: TableStore
    stats: TermStatistics

    @property
    def num_tables(self) -> int:
        """Number of tables in the corpus."""
        return len(self.store)

    @property
    def boosts(self) -> Dict[str, float]:
        """Field boosts of the underlying index (copy)."""
        return dict(self.index.boosts)

    # -- CorpusProtocol --------------------------------------------------------

    def search(
        self,
        terms: Sequence[str],
        limit: int = 100,
        fields: Optional[Iterable[str]] = None,
        with_field_scores: bool = False,
    ) -> List[SearchHit]:
        """Disjunctive boosted TF-IDF retrieval (delegates to the index).

        ``with_field_scores`` forwards to
        :meth:`~repro.index.inverted.InvertedIndex.search`; the serving
        path leaves it off (the per-field breakdown is diagnostic only).
        """
        return self.index.search(
            terms, limit=limit, fields=fields,
            with_field_scores=with_field_scores,
        )

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Conjunctive containment probe (delegates to the index)."""
        return self.index.docs_containing_all(terms, fields)

    def get_table(self, table_id: str) -> WebTable:
        """Fetch one table by id (KeyError if absent)."""
        return self.store.get(table_id)

    def get_many(self, table_ids: Iterable[str]) -> List[WebTable]:
        """Fetch several tables, preserving input order, skipping unknowns."""
        return self.store.get_many(table_ids)

    def ids(self) -> List[str]:
        """All table ids in insertion order."""
        return self.store.ids()

    def __contains__(self, table_id: str) -> bool:
        return table_id in self.store

    def __iter__(self) -> Iterator[WebTable]:
        return iter(self.store)

    # -- persistence -----------------------------------------------------------

    def save(
        self,
        path: Union[str, Path],
        index_format: str = DEFAULT_INDEX_FORMAT,
    ) -> Path:
        """Persist to a directory (manifest + one shard snapshot).

        The layout is the single-shard case of the sharded layout, so a
        monolithic corpus and a ``ShardedCorpus`` share one on-disk format
        (and one writer, :func:`save_corpus_dir`);
        ``repro.index.sharded.load_corpus`` dispatches on the manifest's
        ``kind``.  ``index_format`` selects the shard snapshot format
        (``"bin"`` by default, ``"json"`` for the version-2 layout).
        """
        return save_corpus_dir(
            path, [(self.index, self.store)], self.stats, kind="monolithic",
            index_format=index_format,
        )

    @classmethod
    def load(
        cls, path: Union[str, Path], ignore_journal: bool = False
    ) -> IndexedCorpus:
        """Load a corpus saved by :meth:`save` (O(read), no re-indexing).

        This reads the *snapshot* only.  If the directory carries an
        unfolded write-ahead journal (``repro.index.journal``), loading
        just the snapshot would silently drop the journaled mutations, so
        this refuses unless ``ignore_journal=True`` (which
        :func:`~repro.index.sharded.load_corpus` passes before replaying
        the journal itself).
        """
        path = Path(path)
        manifest = read_manifest(path)
        if manifest["kind"] != "monolithic":
            raise ValueError(
                f"{path} holds a {manifest['kind']!r} corpus; "
                "use repro.index.sharded.load_corpus"
            )
        if not ignore_journal:
            _refuse_unfolded_journal(path, manifest)
        stats = load_stats(path)
        entry = manifest["shards"][0]
        index, store = _load_shard(
            path / entry["dir"], version=manifest["version"], entry=entry
        )
        return cls(index=index, store=store, stats=stats)


# -- shared persistence helpers (used by ShardedCorpus too) --------------------


def _write_shard_index(
    shard_dir: Path, index: InvertedIndex, index_format: str
) -> Dict[str, Any]:
    """Write one shard's index snapshot; returns extra manifest-entry keys.

    ``"json"`` writes the version-2 ``index.json`` (no extras); ``"bin"``
    writes the version-3 ``index.bin`` and returns its byte length and
    CRC-32, which the manifest records so a lazy load can verify the
    snapshot before materializing it.
    """
    if index_format == "json":
        (shard_dir / SHARD_INDEX_FILE).write_text(
            json.dumps(index.to_dict()), encoding="utf-8"
        )
        return {}
    nbytes, crc = write_index_bin(shard_dir / SHARD_BIN_FILE, index)
    return {"index_bytes": nbytes, "index_crc32": crc}


def _save_shard(
    shard_dir: Path,
    index: InvertedIndex,
    store: TableStore,
    index_format: str = DEFAULT_INDEX_FORMAT,
) -> Dict[str, Any]:
    """Write one shard's index snapshot + table store under ``shard_dir``.

    Returns the extra manifest-entry keys of :func:`_write_shard_index`.
    """
    shard_dir.mkdir(parents=True, exist_ok=True)
    extras = _write_shard_index(shard_dir, index, index_format)
    store.save(shard_dir / SHARD_TABLES_FILE)
    # Row-offset sidecar: lets LazyShard open the table store without
    # parsing (or even reading) tables.jsonl — see store.LazyTableStore.
    write_offsets_sidecar(shard_dir / SHARD_TABLES_FILE)
    return extras


def _load_shard(
    shard_dir: Path,
    version: int = JSON_INDEX_VERSION,
    entry: Optional[Dict[str, Any]] = None,
) -> Tuple[InvertedIndex, TableStore]:
    """Read one shard written by :func:`_save_shard`.

    ``version`` selects the snapshot decoder (2 = ``index.json``,
    3 = ``index.bin``); a version-3 ``entry`` supplies the manifest's
    recorded byte length and CRC-32 for pre-decode verification.  Corrupt
    snapshots (truncated writes, hand edits, flipped bytes) surface as
    ``ValueError`` naming the file — matching ``TableStore.load`` and
    :func:`read_manifest` — so the CLI reports them as errors, not
    tracebacks.
    """
    if version == JSON_INDEX_VERSION:
        index_path = shard_dir / SHARD_INDEX_FILE
        try:
            index = InvertedIndex.from_dict(
                json.loads(index_path.read_text(encoding="utf-8"))
            )
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"{index_path}: corrupt index snapshot: {exc!r}"
            ) from exc
    else:
        index = read_index_bin(
            shard_dir / SHARD_BIN_FILE,
            expected_bytes=None if entry is None else int(entry["index_bytes"]),
            expected_crc32=None if entry is None else int(entry["index_crc32"]),
        )
    store = TableStore.load(shard_dir / SHARD_TABLES_FILE)
    return index, store


def journal_paths(path: Union[str, Path], manifest: Dict[str, Any]) -> List[Path]:
    """Existing, non-empty per-shard journal files of a corpus directory.

    Compaction replaces the whole directory (journals included), so any
    surviving non-empty ``journal.jsonl`` holds mutations not yet folded
    into the shard snapshots.
    """
    path = Path(path)
    out = []
    for entry in manifest["shards"]:
        journal = path / entry["dir"] / JOURNAL_FILE
        if journal.is_file() and journal.stat().st_size > 0:
            out.append(journal)
    return out


def _refuse_unfolded_journal(path: Path, manifest: Dict[str, Any]) -> None:
    """Raise if a snapshot-only loader would drop journaled mutations."""
    pending = journal_paths(path, manifest)
    if pending:
        raise ValueError(
            f"{path} has an unfolded write-ahead journal "
            f"({', '.join(p.parent.name for p in pending)}); load it with "
            "repro.index.load_corpus (which replays the journal) or fold "
            "it first with compact()"
        )


def load_stats(path: Path) -> TermStatistics:
    """Read the shared ``stats.json`` of a persisted corpus directory."""
    stats_path = Path(path) / STATS_FILE
    try:
        return TermStatistics.from_dict(
            json.loads(stats_path.read_text(encoding="utf-8"))
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(
            f"{stats_path}: corrupt term statistics: {exc!r}"
        ) from exc


class _SaveTransaction:
    """The crash-safe directory swap underlying every corpus save.

    Everything (manifest last) goes into a temporary sibling directory
    which :meth:`finish` swaps into place, so an interrupted save never
    destroys an existing corpus at ``path`` and never leaves a
    half-written one behind — at worst the temp/backup sibling remains
    for manual cleanup.  Stale shards from a previous save can't survive
    either, since the directory is replaced wholesale.

    :func:`save_corpus_dir` drives it for in-memory corpora;
    :func:`build_corpus_stream` drives it directly so shard files can be
    written incrementally without ever holding the whole corpus.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.tmp = self.path.parent / f".{self.path.name}.saving"
        self._backup = self.path.parent / f".{self.path.name}.replaced"
        if self._backup.exists():
            if self.path.exists():
                shutil.rmtree(self._backup)
            else:
                # A previous save crashed between the two renames: the
                # backup is the only surviving copy.  Restore it instead of
                # deleting it, so a retried save can never destroy the last
                # good corpus.
                self._backup.rename(self.path)
        if self.tmp.exists():
            shutil.rmtree(self.tmp)
        self.tmp.mkdir()

    def shard_dir(self, shard_num: int) -> Path:
        """Create (if needed) and return the staged ``shard-NNNN`` directory."""
        shard_dir = self.tmp / f"shard-{shard_num:04d}"
        shard_dir.mkdir(exist_ok=True)
        return shard_dir

    def finish(
        self,
        shard_entries: Sequence[Dict[str, Any]],
        stats: TermStatistics,
        kind: str,
        journal_seq: int,
        boosts: Dict[str, float],
        index_format: str,
    ) -> Path:
        """Write stats + manifest into the staging dir and swap it live."""
        (self.tmp / STATS_FILE).write_text(
            json.dumps(stats.to_dict()), encoding="utf-8"
        )
        manifest = {
            "format": INDEX_FORMAT,
            "version": _FORMAT_VERSIONS[index_format],
            "kind": kind,
            "num_shards": len(shard_entries),
            "num_tables": sum(e["num_tables"] for e in shard_entries),
            "journal_seq": journal_seq,
            "boosts": boosts,
            "shards": list(shard_entries),
        }
        (self.tmp / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        if self.path.exists():
            self.path.rename(self._backup)
        self.tmp.rename(self.path)
        if self._backup.exists():
            shutil.rmtree(self._backup)
        return self.path


def _check_index_format(index_format: str) -> None:
    """Reject unknown shard snapshot formats before any bytes are written."""
    if index_format not in _FORMAT_VERSIONS:
        raise ValueError(
            f"unknown index_format {index_format!r}; "
            f"options: {sorted(_FORMAT_VERSIONS)}"
        )


def save_corpus_dir(
    path: Union[str, Path],
    shard_pairs: Sequence[Tuple[InvertedIndex, TableStore]],
    stats: TermStatistics,
    kind: str,
    journal_seq: int = 0,
    index_format: str = DEFAULT_INDEX_FORMAT,
) -> Path:
    """Write the persisted corpus layout — the one writer for both kinds.

    ``shard_pairs`` is a list of ``(InvertedIndex, TableStore)`` tuples, one
    per shard; ``kind`` is ``"monolithic"`` or ``"sharded"``;
    ``journal_seq`` is the highest write-ahead-journal sequence number
    folded into the snapshots being written (0 for a fresh build — see
    ``repro.index.journal``); ``index_format`` selects the shard snapshot
    format and thereby the manifest version (``"bin"`` -> 3, ``"json"`` ->
    2).  The write is crash-safe (see :class:`_SaveTransaction`).
    """
    _check_index_format(index_format)
    txn = _SaveTransaction(path)
    shard_entries = []
    for i, (index, store) in enumerate(shard_pairs):
        shard_dir = txn.shard_dir(i)
        entry: Dict[str, Any] = {
            "dir": shard_dir.name, "num_tables": len(store),
        }
        entry.update(_save_shard(shard_dir, index, store, index_format))
        shard_entries.append(entry)
    return txn.finish(
        shard_entries, stats, kind=kind, journal_seq=journal_seq,
        boosts=dict(shard_pairs[0][0].boosts), index_format=index_format,
    )


#: Manifest keys every loader indexes unconditionally.
_MANIFEST_REQUIRED = (
    "kind", "num_shards", "num_tables", "journal_seq", "boosts", "shards",
)


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a persisted corpus manifest."""
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise ValueError(f"{path} is not a persisted corpus (no {MANIFEST_FILE})")
    try:
        manifest: Dict[str, Any] = json.loads(
            manifest_path.read_text(encoding="utf-8")
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: invalid manifest JSON: {exc}") from exc
    if manifest.get("format") != INDEX_FORMAT:
        raise ValueError(
            f"{manifest_path}: unexpected format {manifest.get('format')!r}"
        )
    if manifest.get("version") not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"{manifest_path}: unsupported version {manifest.get('version')!r} "
            f"(this build reads versions {list(SUPPORTED_VERSIONS)})"
        )
    missing = [k for k in _MANIFEST_REQUIRED if k not in manifest]
    if missing:
        raise ValueError(
            f"{manifest_path}: manifest is missing required keys {missing} "
            "(truncated write or hand edit?)"
        )
    shards = manifest["shards"]
    if not isinstance(shards, list) or not all(
        isinstance(e, dict) and "dir" in e for e in shards
    ):
        raise ValueError(
            f"{manifest_path}: malformed 'shards' list — every entry needs "
            "a 'dir' key"
        )
    if manifest["version"] == INDEX_VERSION and not all(
        isinstance(e.get("index_bytes"), int)
        and isinstance(e.get("index_crc32"), int)
        for e in shards
    ):
        raise ValueError(
            f"{manifest_path}: version-{INDEX_VERSION} shard entries need "
            "integer 'index_bytes' and 'index_crc32' keys"
        )
    return manifest


def analyze_table(table: WebTable) -> Dict[str, List[str]]:
    """Tokenize one table into its three boosted document fields.

    THE analysis path: the monolithic builder, the sharded builder, the
    journal's delta index, and compaction all tokenize through this one
    function, so "a journaled table is analyzed exactly as a rebuilt one"
    is structural rather than a convention four call sites must honor.
    """
    return {
        name: tokenize(table.field_text(name))
        for name in ("header", "context", "content")
    }


def _index_one(
    table: WebTable,
    index: InvertedIndex,
    store: TableStore,
    stats: TermStatistics,
) -> None:
    """Analyze one table into an index + store + shared stats.

    The single analysis path used by BOTH the monolithic and the sharded
    builders — one document with the three boosted fields of Section 2.1,
    document frequencies counting each table once per term across all its
    fields (see :func:`analyze_table`).
    """
    store.add(table)
    fields = analyze_table(table)
    index.add_document(table.table_id, fields)
    stats.add_document([t for toks in fields.values() for t in toks])


def build_corpus_stream(
    tables: Iterable[WebTable],
    save: Union[str, Path],
    num_shards: Optional[int] = None,
    boosts: Optional[Dict[str, float]] = None,
    index_format: str = DEFAULT_INDEX_FORMAT,
) -> Path:
    """Stream ``tables`` straight to a persisted corpus directory.

    The O(shard)-memory build path for corpora too large to hold at once
    (ROADMAP item 2): pass 1 routes each table's JSON row directly to its
    staged shard's ``tables.jsonl`` (nothing retained in memory); pass 2
    loads the staged shards back *one at a time*, indexes each through the
    same :func:`analyze_table` path as the in-memory builders, folds the
    shared statistics, and writes the shard snapshot before moving on —
    peak memory is one shard, not the corpus.  Document frequencies are
    order-independent counts, so the shard-major statistics fold produces
    rankings bit-identical to the in-memory build of the same tables.

    The directory swap is the same crash-safe transaction every save uses
    (:class:`_SaveTransaction`).  Returns the corpus path; open it with
    :func:`~repro.index.sharded.load_corpus`.
    """
    _check_index_format(index_format)
    from .sharded import shard_of

    kind = "monolithic" if num_shards is None else "sharded"
    n = 1 if num_shards is None else num_shards
    if n < 1:
        raise ValueError("num_shards must be >= 1")
    field_boosts = dict(boosts or FIELD_BOOSTS)
    txn = _SaveTransaction(save)

    # Pass 1: spill every table to its shard's tables.jsonl, exactly the
    # bytes TableStore.save would write (one JSON object per line).
    shard_dirs = [txn.shard_dir(i) for i in range(n)]
    handles = [
        (d / SHARD_TABLES_FILE).open("w", encoding="utf-8")
        for d in shard_dirs
    ]
    try:
        for table in tables:
            fh = handles[shard_of(table.table_id, n)]
            fh.write(json.dumps(table.to_dict(), ensure_ascii=False))
            fh.write("\n")
    finally:
        for fh in handles:
            fh.close()

    # Pass 2: index one shard at a time (duplicate ids surface here, from
    # TableStore.load's path:line contract — equal ids hash to equal
    # shards, so no duplicate can hide across two spill files).
    stats = TermStatistics()
    shard_entries: List[Dict[str, Any]] = []
    for shard_dir in shard_dirs:
        store = TableStore.load(shard_dir / SHARD_TABLES_FILE)
        index = InvertedIndex(field_boosts)
        for table in store:
            fields = analyze_table(table)
            index.add_document(table.table_id, fields)
            stats.add_document([t for toks in fields.values() for t in toks])
        entry: Dict[str, Any] = {
            "dir": shard_dir.name, "num_tables": len(store),
        }
        entry.update(_write_shard_index(shard_dir, index, index_format))
        write_offsets_sidecar(shard_dir / SHARD_TABLES_FILE)
        shard_entries.append(entry)
    return txn.finish(
        shard_entries, stats, kind=kind, journal_seq=0,
        boosts=field_boosts, index_format=index_format,
    )


def build_corpus_index(
    tables: Iterable[WebTable],
    boosts: Optional[Dict[str, float]] = None,
    num_shards: Optional[int] = None,
    save: Optional[Union[str, Path]] = None,
    index_format: str = DEFAULT_INDEX_FORMAT,
    stream: bool = False,
) -> "CorpusProtocol":
    """Index ``tables`` into a queryable corpus.

    Each table becomes one document with the three boosted fields of
    Section 2.1; document frequencies for the shared TF-IDF space count each
    table once per term across all its fields.

    ``num_shards=None`` (the default) returns the classic monolithic
    :class:`IndexedCorpus`; an integer returns a
    :class:`~repro.index.sharded.ShardedCorpus` hash-partitioned over that
    many shards (ranking-equivalent — see DESIGN.md).  ``save=``
    additionally persists the built corpus to that directory in
    ``index_format`` (``"bin"`` or ``"json"``).

    ``stream=True`` consumes ``tables`` without ever holding the corpus in
    memory: the build goes through :func:`build_corpus_stream` (which
    requires ``save=``) and the returned corpus is the *persisted* one,
    reopened read-only — version-3 saves open in O(manifest) with lazy
    per-shard materialization.
    """
    if stream:
        if save is None:
            raise ValueError(
                "stream=True writes the corpus incrementally and needs "
                "save= (the streamed corpus lives on disk)"
            )
        from .sharded import load_corpus

        build_corpus_stream(
            tables, save, num_shards=num_shards, boosts=boosts,
            index_format=index_format,
        )
        return load_corpus(save, mutable=False)
    corpus: "CorpusProtocol"
    if num_shards is not None:
        from .sharded import build_sharded_corpus

        corpus = build_sharded_corpus(tables, num_shards, boosts=boosts)
    else:
        index = InvertedIndex(boosts or FIELD_BOOSTS)
        store = TableStore()
        stats = TermStatistics()
        for table in tables:
            _index_one(table, index, store, stats)
        corpus = IndexedCorpus(index=index, store=store, stats=stats)
    if save is not None:
        corpus.save(save, index_format=index_format)  # type: ignore[attr-defined]
    return corpus
