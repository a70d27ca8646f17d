"""Edge structure: content overlap across table columns (Section 3.3).

The paper's custom edge potential needs three ingredients computed here:

* **raw column similarity** — a weighted sum of content and header
  similarity between two columns of *different* tables;
* **max-matching edges** — per table pair, each column connects to at most
  one column of the other table, chosen by a maximum-weight one-to-one
  matching (robust when a table's own columns resemble each other);
* **normalized similarity** ``nsim(tc, t'c') = sim / (λ + Σ sim)`` with
  λ = 0.3, neighbors below 0.1 raw similarity ignored.

Column-pair candidates are *blocked* on shared normalized cell values, so
building edges over a hundred candidate tables stays fast.  Column
profiles and per-table-pair matchings do not depend on the query, so an
optional :class:`~repro.core.features.EdgeMemo` reuses them across calls.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import sqrt
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..flow.bipartite import BipartiteMatcher, solve_small_assignment
from ..tables.table import WebTable
from ..text.tfidf import TermStatistics
from ..text.tokenize import normalize_cell, tokenize
from .features import EdgeMemo

__all__ = ["SIM_FLOOR", "NSIM_LAMBDA", "ColumnProfile", "MappingEdge", "build_edges"]

#: Neighbors with raw similarity below this are ignored (Section 3.3).
SIM_FLOOR = 0.1
#: Smoothing constant λ in the nsim normalization (Section 3.3).
NSIM_LAMBDA = 0.3
#: Weight of content similarity vs header similarity in the matching.
CONTENT_WEIGHT = 0.8
#: Blocking skips a cell value shared by more columns than this across the
#: call's table set: a stop value (e.g. "euro" everywhere) is too common to
#: block on.
STOP_VALUE_COLUMNS = 60


@dataclass
class ColumnProfile:
    """Precomputed comparison data for one table column.

    Depends only on the column and the corpus statistics, never on the
    column's position in a query's table list, so the edge memo shares one
    profile across queries.
    """

    values: Set[str]
    token_counts: Counter
    token_norm: float
    header_counts: Counter
    header_norm: float

    @classmethod
    def build(
        cls,
        table: WebTable,
        col_idx: int,
        stats: Optional[TermStatistics],
    ) -> ColumnProfile:
        values = {
            normalize_cell(v) for v in table.column_values(col_idx)
        } - {""}
        tokens: Counter = Counter()
        for v in table.column_values(col_idx):
            tokens.update(tokenize(v))
        header: Counter = Counter(table.column_header_tokens(col_idx))

        def weighted(counts: Counter) -> Tuple[Counter, float]:
            weighted_counts = (
                Counter(counts)
                if stats is None
                else Counter(
                    {t: c * stats.idf(t) for t, c in counts.items()}
                )
            )
            norm = sqrt(
                sum(w * w for w in weighted_counts.values())  # reprolint: disable=R003 -- Counter insertion order is the column's token order, fixed by the input table
            )
            return weighted_counts, norm

        token_counts, token_norm = weighted(tokens)
        header_counts, header_norm = weighted(header)
        return cls(
            values=values,
            token_counts=token_counts,
            token_norm=token_norm,
            header_counts=header_counts,
            header_norm=header_norm,
        )


def _cosine(a: Counter, an: float, b: Counter, bn: float) -> float:
    if an <= 0 or bn <= 0:
        return 0.0
    if len(b) < len(a):
        a, an, b, bn = b, bn, a, an
    dot = sum(
        w * b.get(t, 0.0) for t, w in a.items()  # reprolint: disable=R003 -- Counter insertion order is the column's token order, fixed by the input table
    )
    return dot / (an * bn)


def column_pair_similarity(a: ColumnProfile, b: ColumnProfile) -> float:
    """Weighted content + header similarity between two column profiles."""
    if a.values and b.values:
        inter = len(a.values & b.values)
        union = len(a.values | b.values)
        overlap = inter / union if union else 0.0
    else:
        overlap = 0.0
    content = 0.5 * (overlap + _cosine(a.token_counts, a.token_norm,
                                       b.token_counts, b.token_norm))
    header = _cosine(a.header_counts, a.header_norm,
                     b.header_counts, b.header_norm)
    return CONTENT_WEIGHT * content + (1.0 - CONTENT_WEIGHT) * header


Column = Tuple[int, int]  # (table_idx, col_idx)


@dataclass(frozen=True)
class MappingEdge:
    """A max-matching edge between columns of two tables."""

    __slots__ = ("a", "b", "sim", "nsim_ab", "nsim_ba")

    a: Column
    b: Column
    sim: float  # raw similarity
    nsim_ab: float  # normalized from a's perspective
    nsim_ba: float  # normalized from b's perspective

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Frozen and slotted: unpickle through __init__, not setattr.
        return (MappingEdge, (self.a, self.b, self.sim, self.nsim_ab, self.nsim_ba))


def _candidate_pairs(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics],
    memo: Optional[EdgeMemo],
) -> Tuple[List[Tuple[Column, ...]], Dict[Column, ColumnProfile], List[Tuple[Column, Column]]]:
    """Profile every column and block column pairs on shared cell values.

    Returns the per-call ``(table_idx, col_idx)`` key of every column
    (``columns[ti][ci]``; edge endpoints reuse these tuples), the profile
    of every column, and the candidate pairs ``(a, b)`` with ``a < b``:
    columns of different tables sharing >= 2 normalized values, or 1 when
    either column is tiny.
    """
    columns: List[Tuple[Column, ...]] = []
    profiles: Dict[Column, ColumnProfile] = {}
    by_value: Dict[str, List[Column]] = defaultdict(list)
    for ti, table in enumerate(tables):
        table_profiles = (
            memo.profiles(table.table_id) if memo is not None else None
        )
        if table_profiles is None:
            table_profiles = tuple(
                ColumnProfile.build(table, ci, stats)
                for ci in range(table.num_cols)
            )
            if memo is not None:
                memo.put_profiles(table.table_id, table_profiles)
        keys = tuple((ti, ci) for ci in range(len(table_profiles)))
        columns.append(keys)
        for key, profile in zip(keys, table_profiles):
            profiles[key] = profile
            for value in profile.values:
                by_value[value].append(key)

    shared: Dict[Tuple[Column, Column], int] = defaultdict(int)
    for _value, cols in by_value.items():
        if len(cols) > STOP_VALUE_COLUMNS:
            continue  # stop-value (e.g. "euro" everywhere) — too common to block on
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                a, b = cols[i], cols[j]
                if a[0] == b[0]:
                    continue
                key = (a, b) if a < b else (b, a)
                shared[key] += 1

    candidates: List[Tuple[Column, Column]] = []
    for (a, b), cnt in shared.items():
        small = min(len(profiles[a].values), len(profiles[b].values)) < 4
        if cnt >= 2 or (small and cnt >= 1):
            candidates.append((a, b))
    return columns, profiles, candidates


def all_similar_pairs(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    sim_floor: float = SIM_FLOOR,
) -> List[Tuple[Column, Column, float]]:
    """Every cross-table column pair above the similarity floor.

    This is the *unprotected* neighbor structure the NbrText baseline uses
    (Section 5): no max-matching, no normalization, no confidence gating —
    exactly the ad hoc variant the paper shows to be fragile.  Returns
    ``(a, b, sim)`` triples.
    """
    _columns, profiles, candidates = _candidate_pairs(tables, stats, None)
    out: List[Tuple[Column, Column, float]] = []
    for a, b in candidates:
        sim = column_pair_similarity(profiles[a], profiles[b])
        if sim >= sim_floor:
            out.append((a, b, sim))
    out.sort()
    return out


def _match_table_pair(
    pairs: List[Tuple[Column, Column]],
    profiles: Dict[Column, ColumnProfile],
    sim_floor: float,
) -> Tuple[Tuple[int, int, float], ...]:
    """Maximum one-one matching over one table pair's candidate column
    pairs, as ``(col_a, col_b, sim)`` triples in matcher order."""
    cols_a = sorted({a[1] for a, _b in pairs})
    cols_b = sorted({b[1] for _a, b in pairs})
    row_of = {c: i for i, c in enumerate(cols_a)}
    col_of = {c: i for i, c in enumerate(cols_b)}
    weights = [[0.0] * len(cols_b) for _ in cols_a]
    any_similar = False
    for a, b in pairs:
        sim = column_pair_similarity(profiles[a], profiles[b])
        if sim >= sim_floor:
            weights[row_of[a[1]]][col_of[b[1]]] = sim
            any_similar = True
    if not any_similar:
        return ()
    chosen = solve_small_assignment(weights)
    if chosen is None:
        chosen = BipartiteMatcher(
            weights, [1] * len(cols_a), [1] * len(cols_b)
        ).solve().pairs
    return tuple(
        (cols_a[ia], cols_b[ib], weights[ia][ib])
        for ia, ib in chosen
        if weights[ia][ib] >= sim_floor
    )


def build_edges(
    tables: Sequence[WebTable],
    stats: Optional[TermStatistics] = None,
    sim_floor: float = SIM_FLOOR,
    nsim_lambda: float = NSIM_LAMBDA,
    memo: Optional[EdgeMemo] = None,
) -> List[MappingEdge]:
    """Build the cross-table neighbor structure.

    Returns max-matching edges with both directional nsim values filled in.

    ``memo`` (from :meth:`~repro.core.features.FeatureCache.edge_memo`)
    reuses column profiles and per-table-pair matchings computed by
    earlier calls under the same statistics.  The result is bit-identical
    with and without it: a matching is keyed by both table ids in this
    call's order and by the candidate column pairs, which depend on the
    whole table set through the stop-value rule; only the per-pair work is
    looked up, so the visiting order — and with it every float sum below —
    is unchanged.
    """
    columns, profiles, candidates = _candidate_pairs(tables, stats, memo)
    candidate_pairs: Dict[Tuple[int, int], List[Tuple[Column, Column]]] = defaultdict(list)
    for a, b in candidates:
        candidate_pairs[(a[0], b[0])].append((a, b))

    # Per table pair: maximum one-one matching over candidate column pairs.
    matched: List[Tuple[Column, Column, float]] = []
    for (ta, tb), pairs in candidate_pairs.items():
        if memo is None:
            found = _match_table_pair(pairs, profiles, sim_floor)
        else:
            memo_key = (
                tables[ta].table_id,
                tables[tb].table_id,
                sim_floor,
                tuple(sorted((a[1], b[1]) for a, b in pairs)),
            )
            found = memo.matches(memo_key)
            if found is None:
                found = _match_table_pair(pairs, profiles, sim_floor)
                memo.put_matches(memo_key, found)
        for ca, cb, sim in found:
            matched.append((columns[ta][ca], columns[tb][cb], sim))

    # nsim normalization per column over its matched neighbors.
    sim_sums: Dict[Column, float] = defaultdict(float)
    for a, b, sim in matched:
        sim_sums[a] += sim
        sim_sums[b] += sim

    edges = [
        MappingEdge(
            a=a,
            b=b,
            sim=sim,
            nsim_ab=sim / (nsim_lambda + sim_sums[a]),
            nsim_ba=sim / (nsim_lambda + sim_sums[b]),
        )
        for a, b, sim in matched
    ]
    edges.sort(key=lambda e: (e.a, e.b))
    return edges
