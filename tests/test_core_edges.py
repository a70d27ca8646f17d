"""Tests for the cross-table edge structure (Section 3.3)."""

import pickle

import pytest

from repro.core.edges import (
    STOP_VALUE_COLUMNS,
    all_similar_pairs,
    build_edges,
    column_pair_similarity,
    ColumnProfile,
    MappingEdge,
)
from repro.core.features import FeatureCache
from repro.service import EngineConfig, WWTService
from repro.tables.table import WebTable
from repro.text.tfidf import TermStatistics


def countries_table(table_id, names, header="Country"):
    return WebTable.from_rows(
        [[n, str(i)] for i, n in enumerate(names)],
        header=[header, "Value"],
        table_id=table_id,
    )


NAMES = ["France", "Japan", "Brazil", "Canada", "Norway", "Chile", "Kenya", "Spain"]


class TestColumnSimilarity:
    def test_identical_columns_high(self):
        a = countries_table("a", NAMES)
        b = countries_table("b", NAMES)
        pa = ColumnProfile.build(a, 0, None)
        pb = ColumnProfile.build(b, 0, None)
        assert column_pair_similarity(pa, pb) > 0.8

    def test_disjoint_columns_zero(self):
        a = countries_table("a", NAMES[:4])
        b = countries_table("b", ["Alpha", "Beta", "Gamma", "Delta"])
        pa = ColumnProfile.build(a, 0, None)
        pb = ColumnProfile.build(b, 0, None)
        assert column_pair_similarity(pa, pb) < 0.2


class TestBuildEdges:
    def test_overlapping_subject_columns_connected(self):
        a = countries_table("a", NAMES)
        b = countries_table("b", NAMES[2:] + ["Peru", "India"])
        edges = build_edges([a, b])
        pairs = {(e.a, e.b) for e in edges}
        assert ((0, 0), (1, 0)) in pairs

    def test_max_matching_one_neighbor_per_table_pair(self):
        # Table b has two columns similar to a's column 0; only one edge may
        # survive per table pair (max-matching robustness, Section 3.3).
        a = countries_table("a", NAMES)
        b = WebTable.from_rows(
            [[n, n] for n in NAMES],  # duplicate content columns
            header=["Capital", "Largest city"],
            table_id="b",
        )
        edges = build_edges([a, b])
        from_a0 = [e for e in edges if e.a == (0, 0) or e.b == (0, 0)]
        assert len(from_a0) <= 1

    def test_no_intra_table_edges(self):
        t = WebTable.from_rows(
            [[n, n] for n in NAMES], header=["X", "Y"], table_id="t"
        )
        assert build_edges([t]) == []

    def test_nsim_normalization_bounded(self):
        tables = [countries_table(f"t{i}", NAMES) for i in range(5)]
        edges = build_edges(tables)
        sums = {}
        for e in edges:
            sums.setdefault(e.a, 0.0)
            sums.setdefault(e.b, 0.0)
            sums[e.a] += e.nsim_ab
            sums[e.b] += e.nsim_ba
        for total in sums.values():
            assert total <= 1.0 + 1e-9  # sum sim/(lambda + sum sims) < 1

    def test_weak_similarity_dropped(self):
        a = countries_table("a", NAMES)
        b = countries_table("b", ["France"] + [f"x{i}" for i in range(20)])
        edges = build_edges([a, b])
        assert all(e.sim >= 0.1 for e in edges)

    def test_deterministic_order(self):
        tables = [countries_table(f"t{i}", NAMES) for i in range(3)]
        assert build_edges(tables) == build_edges(tables)


class TestAllSimilarPairs:
    def test_includes_unmatched_pairs(self):
        # all_similar_pairs (NbrText's structure) keeps *both* look-alike
        # columns, where build_edges keeps at most one.
        a = countries_table("a", NAMES)
        b = WebTable.from_rows(
            [[n, n] for n in NAMES],
            header=["Capital", "Largest city"],
            table_id="b",
        )
        pairs = all_similar_pairs([a, b])
        touching_a0 = [p for p in pairs if p[0] == (0, 0) or p[1] == (0, 0)]
        assert len(touching_a0) == 2

    def test_sims_above_floor(self):
        tables = [countries_table(f"t{i}", NAMES) for i in range(3)]
        for _a, _b, sim in all_similar_pairs(tables):
            assert sim >= 0.1


def exact(edges):
    """Edges as comparable tuples, floats to the last bit."""
    return [
        (e.a, e.b, e.sim.hex(), e.nsim_ab.hex(), e.nsim_ba.hex())
        for e in edges
    ]


def pinned_memo(cache, stats=None):
    return cache.edge_memo(cache.pin(stats, None, None))


def column_table(table_id, header, columns):
    """A table from per-column value lists (padded with blanks)."""
    rows = max(len(c) for c in columns)
    return WebTable.from_rows(
        [[c[r] if r < len(c) else "" for c in columns] for r in range(rows)],
        header=header,
        table_id=table_id,
    )


def stop_value_tables(fillers):
    """Two tables whose winning column pair shares only a stop value and
    one other value, plus ``fillers`` tables that add the stop value.

    ``a``'s first column matches ``b``'s best, but the pair shares just
    "euro" and "a1", so it is a candidate only while "euro" is not a stop
    value; ``a``'s second column is a weaker match that survives blocking
    either way.
    """
    a = column_table("a", ["Name", "Other"], [
        ["euro", "a1", "c1", "c2"],
        ["b1", "b2", "b3", "x1", "x2", "x3", "x4", "x5"],
    ])
    b = column_table("b", ["Name"], [
        ["euro", "a1", "b1", "b2", "b3", "b4", "b5", "b6"],
    ])
    rest = [
        column_table(f"f{k}", [f"Filler {k}"], [
            ["euro", f"f{k}a", f"f{k}b", f"f{k}c"],
        ])
        for k in range(fillers)
    ]
    return [a, b] + rest


class TestEdgeMemo:
    """The memo must be invisible in the edges, bit for bit."""

    @pytest.fixture(scope="class")
    def query_tables(self, small_env):
        """Candidate tables of a few workload queries, and corpus stats."""
        sets = [
            small_env.candidates[wq.query_id].tables
            for wq in small_env.queries[:4]
        ]
        assert all(sets), "fixture query retrieved no candidates"
        return sets, small_env.synthetic.corpus.stats

    def test_cold_and_warm_memo_match_no_memo(self, query_tables):
        sets, stats = query_tables
        cache = FeatureCache()
        memo = pinned_memo(cache, stats)
        for tables in sets:  # later sets start warm from earlier ones
            want = exact(build_edges(tables, stats))
            assert exact(build_edges(tables, stats, memo=memo)) == want
            assert exact(build_edges(tables, stats, memo=memo)) == want
        stats_after = cache.edge_stats()
        assert stats_after["hits"] > 0 and stats_after["size"] > 0

    def test_reversed_table_order(self, query_tables):
        sets, stats = query_tables
        tables = sets[0]
        memo = pinned_memo(FeatureCache(), stats)
        build_edges(tables, stats, memo=memo)
        backwards = tables[::-1]
        assert exact(build_edges(backwards, stats, memo=memo)) == exact(
            build_edges(backwards, stats)
        )

    def test_stop_value_threshold_changes_the_key(self):
        below = stop_value_tables(STOP_VALUE_COLUMNS - 2)  # "euro" in 60 columns
        above = stop_value_tables(STOP_VALUE_COLUMNS - 1)  # ... and in 61
        want_below, want_above = exact(build_edges(below)), exact(build_edges(above))
        # The threshold really moves the a-b matching ...
        assert [e for e in want_below if e[:2] == ((0, 0), (1, 0))]
        assert [e for e in want_above if e[:2] == ((0, 1), (1, 0))]
        # ... and a memo warmed on either side answers both exactly.
        for first, second in ((below, above), (above, below)):
            memo = pinned_memo(FeatureCache())
            build_edges(first, memo=memo)
            assert exact(build_edges(second, memo=memo)) == exact(
                build_edges(second)
            )

    def test_endpoints_reuse_one_tuple_per_column(self, query_tables):
        sets, stats = query_tables
        edges = build_edges(sets[0], stats)
        by_value = {}
        for e in edges:
            for end in (e.a, e.b):
                assert by_value.setdefault(end, end) is end

    def test_capacity_zero_turns_the_memo_off(self):
        cache = FeatureCache(capacity=0)
        assert cache.edge_memo(cache.pin(None, None, None)) is None

    def test_mapping_edge_is_slotted_and_picklable(self):
        edge = MappingEdge(a=(0, 1), b=(1, 0), sim=0.5, nsim_ab=0.2, nsim_ba=0.3)
        assert not hasattr(edge, "__dict__")
        assert pickle.loads(pickle.dumps(edge)) == edge


class TestEdgeMemoInvalidation:
    def test_stats_regime_flip_clears_the_memo(self, small_env):
        stats = small_env.synthetic.corpus.stats
        tables = small_env.candidates[small_env.queries[0].query_id].tables
        cache = FeatureCache()
        build_edges(tables, stats, memo=pinned_memo(cache, stats))
        assert cache.edge_stats()["size"] > 0
        other = TermStatistics.from_dict(stats.to_dict())
        memo = pinned_memo(cache, other)
        assert cache.edge_stats()["size"] == 0
        assert exact(build_edges(tables, other, memo=memo)) == exact(
            build_edges(tables, other)
        )

    def test_stale_generation_put_is_dropped(self):
        cache = FeatureCache()
        stale = pinned_memo(cache)
        cache.clear()  # a mutation invalidated the memo mid-build
        stale.put_profiles("t", ("stale",))
        stale.put_matches(("t", "u"), ("stale",))
        assert cache.edge_stats()["size"] == 0
        fresh = pinned_memo(cache)
        fresh.put_matches(("t", "u"), ("fresh",))
        assert fresh.matches(("t", "u")) == ("fresh",)
        # A reader still holding the old token never sees newer entries.
        assert stale.matches(("t", "u")) is None

    def test_service_reports_and_clears_the_memo(self, small_env):
        service = WWTService(small_env.synthetic.corpus, EngineConfig())
        for wq in small_env.queries[:3]:
            service.answer_full(wq.query)
        # One query builds edges once; the memo pays off when a query's
        # tables come back (here: the same query, recomputed uncached).
        service.answer_full(small_env.queries[0].query, use_cache=False)
        edge_cache = service.stats().edge_cache
        assert edge_cache.hits > 0 and edge_cache.size > 0
        assert "edge_cache" in service.stats().to_dict()
        service.clear_caches()
        assert service.stats().edge_cache.size == 0

    def test_memo_off_with_feature_cache_off(self, small_env):
        service = WWTService(
            small_env.synthetic.corpus, EngineConfig(feature_cache_size=0)
        )
        service.answer_full(small_env.queries[0].query)
        edge_cache = service.stats().edge_cache
        assert edge_cache.lookups == 0 and edge_cache.capacity == 0
