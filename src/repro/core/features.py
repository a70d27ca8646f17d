"""Feature memoization for the column-mapping hot path.

:class:`~repro.core.model.ColumnFeatures` (SegSim, Cover, PMI² per query
column) depend only on the query's analyzed keywords, the table's content
and the corpus statistics, so :class:`FeatureCache` memoizes them per
``(query, table)`` and :func:`~repro.core.model.build_problem` consults
it.  Within one served query the features of the stage-1 tables are
evaluated once: the probe's confidence pass builds the problem over them
and ``column_map`` extends that same problem with the stage-2 tables
(``build_problem(base=...)``).  The cache serves the paths that have no
such problem to extend — a probe-cache hit, a skipped confidence stage,
a stats object that changed between the two stages — and repeated
assemblies outside the serving pipeline.

**Invalidation** is by regime identity (see DESIGN.md, "Hot-path
engine"): a cache is valid for one ``(stats, reliabilities, pmi_scorer)``
triple, pinned by object identity on first use and auto-cleared whenever a
different triple arrives.  That rule is correct by construction for live
corpora served with the default exact statistics —
:class:`~repro.index.journal.JournaledCorpus` materializes a *new* merged
:class:`~repro.text.tfidf.TermStatistics` object whenever a stats refresh
folds journaled mutations, so the identity flip clears the cache exactly
when features could go stale.  One caveat inherits the journal's own
contract: under ``stats_staleness > 0`` the stats object (and therefore
this cache) may lag mutations by up to that bound — including a
delete-then-re-add of a table id with changed content inside the window —
so callers who mutate a corpus served with a positive bound must clear
the cache on mutation themselves.  The serving facade always does
(``WWTService.clear_caches`` runs on every ``add_tables``/
``delete_tables``), which is why serving is safe at any staleness
setting.

:class:`FeatureCache` also carries the query-independent memos of the
two per-table builders: the edge layer's :class:`EdgeMemo` (column
profiles per table and matched column pairs per table pair, the reusable
part of :func:`~repro.core.edges.build_edges`) and each table's
:class:`~repro.core.segsim.TablePartIndex`, the token sets SegSim and
Cover score every query column against.  Both share the feature cache's
regime pin and generation token, so they are invalidated on exactly the
same events.

:class:`BoundedCache` is the underlying thread-safe LRU; it also backs the
corpus-level PMI² containment-probe caches
(:class:`~repro.core.pmi.PmiScorer`), which this module sizes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Generic, Hashable, Optional, Tuple, TypeVar, cast

from ..query.model import Query
from ..text.tokenize import tokenize

__all__ = [
    "BoundedCache",
    "EDGE_MATCH_CACHE_SIZE",
    "EDGE_PROFILE_CACHE_SIZE",
    "EdgeMemo",
    "FeatureCache",
    "PART_INDEX_CACHE_SIZE",
    "PMI_B_CACHE_SIZE",
    "PMI_H_CACHE_SIZE",
    "STATS_CACHE_SIZE",
    "query_feature_key",
]

#: Default capacity of the corpus-level PMI² ``H(Q_l)`` cache (keyed by
#: query-column text — small key space, hit constantly within a query).
PMI_H_CACHE_SIZE = 1024
#: Default capacity of the corpus-level PMI² ``B(cell)`` cache (keyed by
#: cell text — the large key space that made the per-scorer dicts grow
#: without bound before they were promoted to bounded corpus-level caches).
PMI_B_CACHE_SIZE = 32768
#: Default capacity of the corpus-level IDF / document-frequency caches
#: (:class:`~repro.index.sharded.ShardedCorpus` and the journal's derived
#: ranking state) — keyed by term, so sized like the PMI ``B`` cache.
STATS_CACHE_SIZE = 65536
#: Capacity of the edge memo's column-profile cache (keyed by table id;
#: one entry holds every column profile of one table).
EDGE_PROFILE_CACHE_SIZE = 4096
#: Capacity of the edge memo's matched-pair cache (keyed by table-id pair
#: and candidate column pairs; one entry is a few matched column triples).
EDGE_MATCH_CACHE_SIZE = 32768
#: Capacity of the table part-index cache (keyed by table id; one entry is
#: one table's :class:`~repro.core.segsim.TablePartIndex`).
PART_INDEX_CACHE_SIZE = 4096

_MISS = object()

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedCache(Generic[K, V]):
    """Thread-safe bounded LRU map with hit/miss counters.

    The core-layer twin of the service LRU (``repro.core`` cannot import
    ``repro.service``): capacity 0 disables it, eviction drops the
    least-recently-used entry, and the counters feed cache-hit-rate
    reporting in ``WWTService.stats()`` and ``bench_hotpath``.  Eviction
    only ever costs recomputation — never correctness — so every consumer
    may size it freely.

    Generic in key and value (``BoundedCache[str, float]``): consumers
    declare what they store, so a cache wired to the wrong producer is a
    type error rather than a silent heterogeneous dict.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: K) -> Optional[V]:
        """The cached value for ``key``, or ``None``; a hit refreshes recency."""
        return self.lookup(key)[1]

    def lookup(self, key: K) -> Tuple[bool, Optional[V]]:
        """``(hit, value)`` — distinguishes a stored ``None`` from a miss.

        The service-layer adapter (`repro.service.cache.LRUCache`) is
        built on this form; :meth:`get` is the convenience collapse for
        consumers that never store ``None``.
        """
        with self._lock:
            value = self._data.get(key, cast("V", _MISS))
            if value is _MISS:
                self._misses += 1
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        """Membership probe that counts as neither hit nor miss."""
        with self._lock:
            return key in self._data

    @property
    def hits(self) -> int:
        """Lookups served from the cache since construction."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that missed since construction."""
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Plain-dict counter snapshot for logging and benchmark reports."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._data),
                "capacity": self.capacity,
                "hit_rate": round(self.hit_rate, 4),
            }


def query_feature_key(query: Query) -> str:
    """Canonical query component of a feature-cache key.

    Analyzer-normalized column keywords, so two surface forms that
    tokenize identically (case, punctuation, whitespace) share cache
    entries — the same normalization the service layer uses for its
    result and probe caches.
    """
    return " | ".join(" ".join(tokenize(column)) for column in query.columns)


class FeatureCache:
    """Bounded memo of per-``(query, table)`` column features.

    Stores ``(col_features, relevance)`` — the tuple of
    :class:`~repro.core.model.ColumnFeatures` for every column of one
    table against one query, plus the table-relevance ``R(Q, t)`` derived
    from them — keyed on the normalized query, the table id, and the
    feature-shape flags (``use_segmented``, whether PMI² was evaluated).
    Weights (``w1..w5``, ``we``) are deliberately *not* part of the key:
    they recombine cached features, they never change them (the same
    property ``ColumnMappingProblem.with_params`` exploits).

    One cache is valid for one ``(stats, reliabilities, pmi_scorer)``
    regime; :meth:`pin` enforces that by identity and auto-clears on
    change, so a cache accidentally shared across corpora degrades to a
    correct cold cache instead of serving stale features.

    It also owns the edge layer's memo (see :meth:`edge_memo`) and the
    table part-index memo (see :meth:`part_index`), which are off when
    ``capacity`` is 0 and otherwise sized by
    :data:`EDGE_PROFILE_CACHE_SIZE`, :data:`EDGE_MATCH_CACHE_SIZE` and
    :data:`PART_INDEX_CACHE_SIZE`.

    Thread-safe — ``WWTService.answer_batch`` fans concurrent pipelines
    over one shared instance.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._cache: BoundedCache[Hashable, Any] = BoundedCache(capacity)
        self._profiles: BoundedCache[Hashable, Any] = BoundedCache(
            EDGE_PROFILE_CACHE_SIZE if capacity else 0
        )
        self._matches: BoundedCache[Hashable, Any] = BoundedCache(
            EDGE_MATCH_CACHE_SIZE if capacity else 0
        )
        self._part_indexes: BoundedCache[Hashable, Any] = BoundedCache(
            PART_INDEX_CACHE_SIZE if capacity else 0
        )
        self._regime: Optional[Tuple[Any, Any, Any]] = None
        self._regime_lock = threading.Lock()
        self._generation = 0

    def pin(self, stats: Any, reliabilities: Any, pmi_scorer: Any) -> int:
        """Bind the cache to one feature regime, clearing it on change.

        Identity (``is``) comparison on every element: a live corpus
        materializes a new ``stats`` object whenever mutations change the
        statistics, so a regime flip is exactly a potential feature
        change.

        Returns the current *generation* token.  A writer that computed
        features under this regime passes the token back to :meth:`put`,
        which drops the insert if the regime (or an explicit
        :meth:`clear`) has moved on in the meantime — otherwise a query
        racing a live mutation could park stale-stats features in the
        freshly cleared cache.
        """
        with self._regime_lock:
            regime = self._regime
            if (
                regime is not None
                and regime[0] is stats
                and regime[1] is reliabilities
                and regime[2] is pmi_scorer
            ):
                return self._generation
            if regime is not None:
                self._clear_all()
                self._generation += 1
            self._regime = (stats, reliabilities, pmi_scorer)
            return self._generation

    def _clear_all(self) -> None:
        self._cache.clear()
        self._profiles.clear()
        self._matches.clear()
        self._part_indexes.clear()

    def get(self, key: Hashable, generation: Optional[int] = None) -> Any:
        """The cached ``(col_features, relevance)`` for ``key``, or ``None``.

        ``generation`` (from :meth:`pin`) makes the read refuse entries
        from a *newer* regime: a reader still working under an old pin
        must recompute rather than consume features a concurrent query
        cached after an invalidation — the keys deliberately omit the
        regime, so the token is what keeps one problem's features on one
        stats vintage.  The stale read counts as neither hit nor miss.
        """
        return self._guarded_get(self._cache, key, generation)

    def put(self, key: Hashable, value: Any, generation: Optional[int] = None) -> None:
        """Store one table's features under ``key``.

        ``generation`` (from :meth:`pin`) guards against the
        compute-during-invalidation race: an insert carrying a superseded
        token is silently dropped.
        """
        self._guarded_put(self._cache, key, value, generation)

    def _guarded_get(
        self, cache: BoundedCache[Hashable, Any], key: Hashable,
        generation: Optional[int],
    ) -> Any:
        with self._regime_lock:
            if generation is not None and generation != self._generation:
                return None
            return cache.get(key)

    def _guarded_put(
        self, cache: BoundedCache[Hashable, Any], key: Hashable, value: Any,
        generation: Optional[int],
    ) -> None:
        with self._regime_lock:
            if generation is not None and generation != self._generation:
                return
            cache.put(key, value)

    def edge_memo(self, generation: int) -> Optional[EdgeMemo]:
        """The edge memo as seen under one :meth:`pin` token, or ``None``
        when this cache is disabled (capacity 0)."""
        if not self._matches.capacity:
            return None
        return EdgeMemo(self, generation)

    def part_index(self, table_id: str, generation: int) -> Any:
        """The cached :class:`~repro.core.segsim.TablePartIndex` of one
        table under one :meth:`pin` token, or ``None``."""
        return self._guarded_get(self._part_indexes, table_id, generation)

    def put_part_index(
        self, table_id: str, part_index: Any, generation: int
    ) -> None:
        """Store one table's part index (dropped if ``generation`` is stale)."""
        self._guarded_put(self._part_indexes, table_id, part_index, generation)

    def clear(self) -> None:
        """Drop all entries and retire outstanding :meth:`pin` tokens
        (counters and the pinned regime itself are kept)."""
        with self._regime_lock:
            self._clear_all()
            self._generation += 1

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def capacity(self) -> int:
        """Maximum number of (query, table) entries retained."""
        return self._cache.capacity

    @property
    def hits(self) -> int:
        """Lookups served from the cache since construction."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Lookups that missed since construction."""
        return self._cache.misses

    def stats(self) -> Dict[str, Any]:
        """Plain-dict counter snapshot (see :meth:`BoundedCache.stats`)."""
        return self._cache.stats()

    def part_index_stats(self) -> Dict[str, Any]:
        """Counter snapshot of the part-index memo (see :meth:`stats`)."""
        return self._part_indexes.stats()

    def edge_stats(self) -> Dict[str, Any]:
        """``hits``/``misses``/``size``/``capacity`` of the edge memo, its
        profile and matched-pair caches summed."""
        profiles, matches = self._profiles.stats(), self._matches.stats()
        return {
            name: profiles[name] + matches[name]
            for name in ("hits", "misses", "size", "capacity")
        }


class EdgeMemo:
    """One :func:`~repro.core.edges.build_edges` call's view of the edge memo.

    Query-independent edge work, keyed by table id so it is shared across
    queries: :meth:`profiles` holds every
    :class:`~repro.core.edges.ColumnProfile` of one table, and
    :meth:`matches` the matched ``(col_a, col_b, sim)`` triples of one
    table pair.  Every read and write carries the :meth:`FeatureCache.pin`
    token the view was made with, so a call that outlives an invalidation
    neither reads entries of the next regime nor stores its own stale ones.
    """

    __slots__ = ("_owner", "_generation")

    def __init__(self, owner: FeatureCache, generation: int) -> None:
        self._owner = owner
        self._generation = generation

    def profiles(self, table_id: str) -> Any:
        """The cached column profiles of one table, or ``None``."""
        return self._owner._guarded_get(
            self._owner._profiles, table_id, self._generation
        )

    def put_profiles(self, table_id: str, profiles: Any) -> None:
        """Store one table's column profiles."""
        self._owner._guarded_put(
            self._owner._profiles, table_id, profiles, self._generation
        )

    def matches(self, key: Hashable) -> Any:
        """The cached matched triples of one table pair, or ``None``."""
        return self._owner._guarded_get(
            self._owner._matches, key, self._generation
        )

    def put_matches(self, key: Hashable, matched: Any) -> None:
        """Store one table pair's matched triples."""
        self._owner._guarded_put(
            self._owner._matches, key, matched, self._generation
        )
