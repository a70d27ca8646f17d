"""``repro.index.sharded`` — hash-partitioned corpus with scatter-gather probes.

The paper's engine fronts a 25M-table crawl; one in-memory
:class:`~repro.index.builder.IndexedCorpus` rebuilt per process start does
not scale to that.  :class:`ShardedCorpus` partitions tables across N
independent ``IndexedCorpus`` shards by a stable hash of the table id and
answers the pipeline's probes by scatter-gather:

- **Disjunctive ranked probe** (:meth:`ShardedCorpus.search`): every shard
  retrieves its local top-``limit`` with the *corpus-global* IDF, then a
  global merge re-sorts by ``(-score, doc_id)`` and truncates.  Because tf,
  field length, and field boost are per-document quantities and the IDF is
  computed from corpus-global document frequencies (each document lives in
  exactly one shard, so global df is the sum of shard dfs), per-document
  scores are bit-identical to the monolithic index — the merge reproduces
  single-index ranking exactly, not approximately.
- **Conjunctive containment probe** (:meth:`docs_containing_all`): each
  shard intersects locally; the union over shards is the global conjunction
  (again because shards partition the documents).

Every probe runs its shards in one serial loop (:meth:`ShardedCorpus._scatter`).
The index probe is a small share of a query — the per-query inference
over the returned tables dominates — and measured thread and process
fan-outs were slower than the loop at every size tried (see DESIGN.md,
"Async execution").

Persistence is a directory (see DESIGN.md): ``manifest.json`` +
``stats.json`` (the shared :class:`~repro.text.tfidf.TermStatistics`) +
one ``shard-NNNN/`` per shard holding an index snapshot (``index.bin`` for
version-3 manifests, ``index.json`` for version 2) and the table store
(``tables.jsonl``).  :func:`load_corpus` opens either a monolithic or a
sharded layout in O(read) — and a version-3 *sharded* layout in
O(manifest): its shards load as mmap-backed
:class:`~repro.index.binfmt.LazyShard` objects whose arrays materialize on
first probe, not at open.
"""

from __future__ import annotations

import heapq
import zlib
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from ..core.features import BoundedCache, STATS_CACHE_SIZE
from ..faults.health import Coverage, HealthPolicy, HealthTracker
from ..faults.injection import POINT_SHARD_SEARCH, trip
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from .binfmt import LazyShard
from .builder import (
    DEFAULT_INDEX_FORMAT,
    INDEX_VERSION,
    IndexedCorpus,
    _index_one,
    _load_shard,
    _refuse_unfolded_journal,
    MANIFEST_FILE,
    load_stats,
    read_manifest,
    save_corpus_dir,
)
from .inverted import FIELD_BOOSTS, InvertedIndex, SearchHit, lucene_idf
from .protocol import ShardProtocol
from .store import TableStore

if TYPE_CHECKING:
    from .protocol import CorpusProtocol

__all__ = [
    "ShardedCorpus",
    "build_sharded_corpus",
    "load_corpus",
    "shard_of",
]

T = TypeVar("T")

#: One unit of scatter work: a shard ordinal and the call to run on it.
ShardCall = Tuple[int, Callable[[ShardProtocol], T]]


def shard_of(table_id: str, num_shards: int) -> int:
    """Stable shard assignment for a table id.

    CRC32 (not Python's salted ``hash``) so the partition is identical
    across processes, platforms, and persisted corpora.
    """
    return zlib.crc32(table_id.encode()) % num_shards


class ShardedCorpus:
    """N :class:`IndexedCorpus` shards behind one ``CorpusProtocol`` front.

    Every shard's ``stats`` attribute is the *shared corpus-global*
    :class:`TermStatistics`, and every probe scores with the corpus-global
    IDF — the invariant that makes rankings shard-invariant::

        from repro.index import build_sharded_corpus, load_corpus

        sharded = build_sharded_corpus(tables, num_shards=4)
        hits = sharded.search(["country", "currency"], limit=20)
        sharded.save("corpus-dir")              # manifest + per-shard files
        reloaded = load_corpus("corpus-dir")    # O(read), journal-aware
    """

    def __init__(
        self,
        shards: Sequence[ShardProtocol],
        stats: TermStatistics,
        validate: bool = True,
        health: Optional[HealthPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a ShardedCorpus needs at least one shard")
        self.shards: List[ShardProtocol] = list(shards)
        # Table access routes by shard_of(), so the shards MUST be the
        # CRC32 partition — arbitrary shard lists (e.g. two independently
        # built corpora glued together) would make get_table/get_many miss
        # silently.  Fail loudly at construction instead.  The trusted
        # paths (build_sharded_corpus, load) pass validate=False: their
        # partition is correct by construction, and the O(num_tables) check
        # would defeat the O(read) load this module exists to provide.
        if validate:
            for si, shard in enumerate(self.shards):
                for table_id in shard.store.ids():
                    expected = shard_of(table_id, len(self.shards))
                    if expected != si:
                        raise ValueError(
                            f"table {table_id!r} is in shard {si} but hashes "
                            f"to shard {expected}; shards must follow "
                            "shard_of() (use build_sharded_corpus to "
                            "partition)"
                        )
        self.stats = stats
        #: The policy this corpus was constructed with (``None`` = strict
        #: all-or-nothing scatter, the pre-failure-domain behaviour) —
        #: kept so compaction can rebuild an equivalent corpus.
        self.health_policy = health
        self._clock = clock
        #: Per-shard failure domains.  ``None`` (the default) keeps the
        #: scatter strict: any shard error raises through and no health
        #: bookkeeping runs.
        self._health: Optional[HealthTracker] = (
            HealthTracker(len(self.shards), health, clock=clock)
            if health is not None else None
        )
        self._num_tables = sum(s.num_tables for s in self.shards)
        self._idf_cache: BoundedCache[str, float] = BoundedCache(
            STATS_CACHE_SIZE
        )

    # -- shape -----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def num_tables(self) -> int:
        """Number of tables across all shards."""
        return self._num_tables

    @property
    def boosts(self) -> Dict[str, float]:
        """Field boosts shared by every shard's index (copy).

        Served from shard 0's cheap metadata surface — reading it never
        materializes a lazy shard.
        """
        return dict(self.shards[0].boosts)

    def shard_sizes(self) -> List[int]:
        """Per-shard table counts (partition balance diagnostics)."""
        return [s.num_tables for s in self.shards]

    # -- the scatter loop ------------------------------------------------------

    def _every_shard(
        self, probe: Callable[[ShardProtocol], T]
    ) -> List[ShardCall[T]]:
        """``probe`` once per shard, in shard order."""
        return [(si, probe) for si in range(self.num_shards)]

    def _scatter(
        self,
        calls: Iterable[ShardCall[T]],
        point: Optional[str] = None,
        heal: bool = True,
    ) -> List[T]:
        """Run each ``(ordinal, call)`` on its shard, serially and in order.

        The one loop every probe goes through.  Without failure domains
        it is strict: any shard error raises through.  With them, a shard
        sitting out a backoff/quarantine window is skipped and a failing
        call is recorded to the tracker and contributes nothing — the
        result list covers the reachable shards only.  A succeeding call
        is recorded too (driving retry → quarantine → reopen), unless
        ``heal=False``: a metadata read such as a df lookup must not heal
        a shard whose probes keep failing.  ``point`` names the fault
        point tripped, keyed by ordinal, before each call.
        """
        tracker = self._health
        out: List[T] = []
        for si, call in calls:
            if tracker is not None and not tracker.available(si):
                continue
            try:
                if point is not None:
                    trip(point, key=str(si))
                result = call(self.shards[si])
            except Exception as exc:
                if tracker is None:
                    raise
                tracker.record_failure(si, exc)
                continue
            if tracker is not None and heal:
                tracker.record_success(si)
            out.append(result)
        return out

    def global_idf(self, term: str) -> float:
        """Lucene-classic IDF from corpus-global document frequencies.

        Same :func:`~repro.index.inverted.lucene_idf` expression as
        :meth:`InvertedIndex.idf`, evaluated over the whole corpus (each
        document lives in exactly one shard, so global df is the sum of
        shard dfs); cached because the posting structure is immutable
        after construction.  See :meth:`_global_idfs` for how failure
        domains narrow it to reachable shards.
        """
        return self._global_idfs([term])[term]

    def _global_idfs(self, terms: Iterable[str]) -> Dict[str, float]:
        """Corpus-global IDF for every term, resolved in one df scatter.

        :meth:`search` resolves its terms here *before* probing any shard,
        so one scatter scores every shard with the same values even if a
        shard fails mid-scatter.

        With failure domains enabled and any shard unhealthy, the df is
        summed over *reachable* shards only — the IDF the partial answer
        is actually scored with — and bypasses the cache, so values
        computed under partial visibility never leak into full-coverage
        probes (or vice versa).
        """
        tracker = self._health
        exact = tracker is None or tracker.all_healthy()
        out: Dict[str, float] = {}
        missing: List[str] = []
        for term in dict.fromkeys(terms):
            cached = self._idf_cache.get(term) if exact else None
            if cached is None:
                missing.append(term)
            else:
                out[term] = cached
        if not missing:
            return out
        counts = self._scatter(
            self._every_shard(
                lambda s: [s.index.document_frequency(t) for t in missing]
            ),
            heal=False,
        )
        exact = exact and len(counts) == self.num_shards
        for j, term in enumerate(missing):
            idf = lucene_idf(self._num_tables, sum(c[j] for c in counts))
            out[term] = idf
            if exact:
                self._idf_cache.put(term, idf)
        return out

    # -- CorpusProtocol --------------------------------------------------------

    def search(
        self,
        terms: Sequence[str],
        limit: int = 100,
        fields: Optional[Iterable[str]] = None,
        with_field_scores: bool = False,
    ) -> List[SearchHit]:
        """Scatter-gather disjunctive retrieval.

        Each shard returns its local top-``limit`` scored with the
        corpus-global IDF, resolved once for the whole scatter
        (:meth:`_global_idfs`); the gather concatenates, selects the global
        top-``limit`` by ``(-score, doc_id)`` with a bounded heap, and
        returns it.  Any document in the global top-``limit`` is
        necessarily in its own shard's top-``limit`` (a shard holds a
        subset of its competitors), so the merge equals the monolithic
        ranking.  ``with_field_scores`` requests the diagnostic per-field
        breakdown on every hit (off on the hot path).

        With failure domains enabled (``health=`` at construction), a
        failing or backing-off shard contributes nothing instead of
        raising — the merge covers the reachable shards and
        :meth:`coverage` quantifies what was missed.  Without them, any
        shard error raises through (the strict pre-failure-domain
        contract).
        """
        if self._num_tables == 0:
            return []
        field_list = list(fields) if fields is not None else None
        idf = self._global_idfs(terms).__getitem__
        results = self._scatter(
            self._every_shard(
                lambda s: s.index.search(
                    terms, limit=limit, fields=field_list, idf=idf,
                    with_field_scores=with_field_scores,
                )
            ),
            POINT_SHARD_SEARCH,
        )
        merged = [hit for hits in results for hit in hits]
        return heapq.nsmallest(
            limit, merged, key=lambda h: (-h.score, h.doc_id)
        )

    def docs_containing_all(
        self, terms: Sequence[str], fields: Iterable[str]
    ) -> Set[str]:
        """Scatter-gather conjunctive containment probe (PMI²'s H and B sets)."""
        field_list = list(fields)
        results = self._scatter(
            self._every_shard(
                lambda s: s.index.docs_containing_all(terms, field_list)
            ),
            POINT_SHARD_SEARCH,
        )
        out: Set[str] = set()
        for docs in results:
            out.update(docs)
        return out

    def get_table(self, table_id: str) -> WebTable:
        """Fetch one table by id — routed straight to its shard."""
        return self.shards[shard_of(table_id, self.num_shards)].store.get(table_id)

    def get_many(self, table_ids: Iterable[str]) -> List[WebTable]:
        """Fetch several tables, preserving input order, skipping unknowns.

        With failure domains enabled, tables on a failing or backing-off
        shard are skipped (recorded to the tracker) rather than raising —
        the same partial-result contract as :meth:`search`.
        """
        tables = self._scatter(
            (shard_of(table_id, self.num_shards), partial(_fetch, table_id))
            for table_id in table_ids
        )
        return [table for table in tables if table is not None]

    def ids(self) -> List[str]:
        """All table ids, shard-major (shard 0's insertion order first)."""
        return [i for shard in self.shards for i in shard.store.ids()]

    def __contains__(self, table_id: str) -> bool:
        return table_id in self.shards[shard_of(table_id, self.num_shards)].store

    def __iter__(self) -> Iterator[str]:
        for shard in self.shards:
            yield from shard.store

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedCorpus({self.num_shards} shards, "
            f"{self.num_tables} tables)"
        )

    # -- failure domains -------------------------------------------------------

    def coverage(self) -> Coverage:
        """How much of the corpus a probe routed right now reaches.

        Without failure domains this is always the full-coverage record.
        With them, reachability reflects the tracker's *current* health
        states — a shard that failed during the probe just described was
        marked unhealthy by that very failure, so reading coverage right
        after a probe describes that probe accurately.
        """
        tracker = self._health
        if tracker is None:
            return Coverage.full(self.num_shards, self._num_tables)
        return tracker.coverage(self.shard_sizes())

    def health_snapshot(self) -> Optional[List[Dict[str, Any]]]:
        """Per-shard health diagnostics (``None`` without failure domains)."""
        tracker = self._health
        return tracker.snapshot() if tracker is not None else None

    # -- persistence -----------------------------------------------------------

    def save(
        self,
        path: Union[str, Path],
        index_format: str = DEFAULT_INDEX_FORMAT,
    ) -> Path:
        """Persist to a directory: manifest + shared stats + per-shard files.

        Same writer as ``IndexedCorpus.save``
        (:func:`~repro.index.builder.save_corpus_dir`), so the two kinds
        cannot drift apart on disk.  The write is crash-safe (temp dir +
        swap), which also means a re-save with a different shard count
        cannot leave stale shard directories behind.  ``index_format``
        selects the shard snapshot format (``"bin"`` by default); saving
        necessarily materializes lazy shards.
        """
        return save_corpus_dir(
            path,
            [(shard.index, shard.store) for shard in self.shards],
            self.stats,
            kind="sharded",
            index_format=index_format,
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        ignore_journal: bool = False,
        health: Optional[HealthPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> ShardedCorpus:
        """Load a corpus saved by :meth:`save` in O(read) — no re-indexing.

        Snapshot only: refuses directories carrying an unfolded
        write-ahead journal unless ``ignore_journal=True`` (see
        :meth:`IndexedCorpus.load`); :func:`load_corpus` is the journal-
        aware entry point.  ``health`` enables per-shard failure domains
        (see :meth:`search`); ``clock`` injects the tracker's clock.
        """
        path = Path(path)
        manifest = read_manifest(path)
        if not ignore_journal:
            _refuse_unfolded_journal(path, manifest)
        stats = load_stats(path)
        shards: List[ShardProtocol] = []
        for entry in manifest["shards"]:
            if manifest["version"] == INDEX_VERSION:
                # Version 3: O(manifest) open — the shard's arrays mmap in
                # on first probe, verified against the manifest's recorded
                # byte length and CRC-32 at that point.
                shards.append(
                    LazyShard(
                        path / entry["dir"], entry, stats, manifest["boosts"]
                    )
                )
            else:
                index, store = _load_shard(
                    path / entry["dir"], version=manifest["version"],
                    entry=entry,
                )
                shards.append(
                    IndexedCorpus(index=index, store=store, stats=stats)
                )
        # validate=False: the persisted partition came from shard_of() at
        # build time; re-hashing every id would make load O(num_tables)
        # (and materialize every lazy shard).
        return cls(
            shards=shards, stats=stats, validate=False, health=health,
            clock=clock,
        )


def _fetch(table_id: str, shard: ShardProtocol) -> Optional[WebTable]:
    """``table_id`` from ``shard``'s store, or ``None`` if it holds none."""
    store = shard.store
    return store.get(table_id) if table_id in store else None


def build_sharded_corpus(
    tables: Iterable[WebTable],
    num_shards: int,
    boosts: Optional[Dict[str, float]] = None,
) -> ShardedCorpus:
    """Hash-partition ``tables`` across ``num_shards`` indexed shards.

    Documents are analyzed exactly as in the monolithic
    :func:`~repro.index.builder.build_corpus_index`, and the shared
    :class:`TermStatistics` folds tables in input order, so the global
    statistics equal the monolithic build's.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    boosts = boosts or FIELD_BOOSTS
    indexes = [InvertedIndex(boosts) for _ in range(num_shards)]
    stores = [TableStore() for _ in range(num_shards)]
    stats = TermStatistics()
    for table in tables:
        si = shard_of(table.table_id, num_shards)
        _index_one(table, indexes[si], stores[si], stats)
    shards = [
        IndexedCorpus(index=index, store=store, stats=stats)
        for index, store in zip(indexes, stores)
    ]
    # validate=False: the loop above IS the shard_of() partition.
    return ShardedCorpus(shards=shards, stats=stats, validate=False)


def _restore_backup_if_orphaned(path: Path) -> None:
    """Recover from a crash between the two renames of a save/compaction.

    :func:`~repro.index.builder.save_corpus_dir` swaps directories as
    ``path -> .path.replaced`` then ``tmp -> path``; a kill between the
    renames leaves the corpus alive only as the backup sibling.  A retried
    *save* already restores it — this makes a plain *load* after the crash
    self-healing too.
    """
    backup = path.parent / f".{path.name}.replaced"
    if backup.is_dir() and not (path / MANIFEST_FILE).is_file():
        if path.exists():
            # A half-written non-corpus dir at `path` would block the
            # rename; save_corpus_dir never leaves one (it writes to the
            # temp sibling), so anything here is foreign — keep it and
            # let read_manifest report the problem.
            return
        backup.rename(path)


def load_corpus(
    path: Union[str, Path],
    mutable: bool = True,
    stats_staleness: int = 0,
    health: Optional[HealthPolicy] = None,
    clock: Optional[Callable[[], float]] = None,
) -> CorpusProtocol:
    """Open a persisted corpus directory, whichever kind it holds.

    The journal-aware entry point, and the one serving processes should
    use::

        from repro.index import load_corpus

        corpus = load_corpus("corpus-dir")       # replays any journal
        corpus.add_tables(new_tables)            # durable live mutation
        corpus.compact()                         # fold into snapshots

    Loads the shard snapshots in O(read), replays any surviving
    write-ahead journal (``repro.index.journal``), and returns a mutable
    :class:`~repro.index.journal.JournaledCorpus` wrapping the snapshot
    backend — an :class:`IndexedCorpus` for ``kind: monolithic`` manifests,
    a :class:`ShardedCorpus` for
    ``kind: sharded``.  A crash that interrupted a previous save or
    compaction between its two directory renames is healed here by
    restoring the backup sibling.

    ``mutable=False`` returns the bare snapshot backend instead (PR 2
    behaviour); it refuses directories with unfolded journal records
    rather than silently dropping them.  ``stats_staleness`` is forwarded
    to the journaled wrapper (0 = rankings always exact).

    ``health`` enables per-shard failure domains on sharded corpora
    (retry/quarantine lifecycle, partial scatter-gather, coverage — see
    :meth:`ShardedCorpus.search`); monolithic corpora have a single
    failure domain and ignore it.  ``clock`` injects the health
    tracker's clock (tests).
    """
    from .journal import JournaledCorpus

    path = Path(path)
    _restore_backup_if_orphaned(path)
    manifest = read_manifest(path)
    if manifest["kind"] == "monolithic":
        base = IndexedCorpus.load(path, ignore_journal=mutable)
    elif manifest["kind"] == "sharded":
        base = ShardedCorpus.load(
            path, ignore_journal=mutable, health=health, clock=clock
        )
    else:
        raise ValueError(f"{path}: unknown corpus kind {manifest['kind']!r}")
    if not mutable:
        return base
    return JournaledCorpus.open(
        path, base, manifest, stats_staleness=stats_staleness
    )
