"""Seeded column-keyword query population and its ground truth.

The population is every query a user could type from the domain
registry's relation headers: one subject header, optionally followed by
one or two attribute headers of the same domain, over the registry's
non-distractor domains.  It is deduplicated by the service's own cache
key, so every member is one distinct result-cache entry.  A fixed
shuffle ranks it; the rank is the member's Zipf popularity.  Traffic is
drawn from it by :class:`ZipfSampler`, whose order ``--seed`` decides.

Each member carries its ``(domain_key, attr_keys)`` binding, which is
what :func:`repro.corpus.label_table` needs to label a table for it.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import GroundTruth, Query
from repro.corpus import REGISTRY, TableProvenance, label_table
from repro.core.labels import LabelSpace
from repro.evaluation import f1_error, gold_assignment
from repro.service import normalized_query_key
from repro.tables.table import WebTable

__all__ = [
    "PopQuery",
    "ZipfSampler",
    "build_population",
    "check_set",
    "SyntheticProvenance",
    "explain_error",
]

#: Population size: larger than the result cache (256) and probe cache (128).
POPULATION_SIZE = 2000
#: Seed of the popularity ranking (fixed; the traffic seed varies the draws).
POPULATION_SEED = 2012
#: Zipf exponent of query popularity.
ZIPF_S = 1.1
#: Draws per block the seed shuffles (see :class:`ZipfSampler`).
ZIPF_BLOCK = 16
#: Size of the fixed (seed-independent) answer-quality check set.
CHECK_SET_SIZE = 12


@dataclass(frozen=True)
class PopQuery:
    """One population member: query text plus its ground-truth binding."""

    text: str
    #: ``None`` for a query no corpus domain answers (gold: no relevant table).
    domain_key: Optional[str]
    attr_keys: Tuple[str, ...]

    @property
    def query_id(self) -> str:
        """Stable id for ground-truth lookups (the query text)."""
        return self.text

    @property
    def q(self) -> int:
        """Number of query columns."""
        return len(Query.parse(self.text).columns)


def _all_queries() -> List[PopQuery]:
    """Every distinct subject [+ 1-2 attribute] header query, sorted."""
    out: Dict[str, PopQuery] = {}
    for key in sorted(REGISTRY):
        domain = REGISTRY[key]
        if domain.is_distractor:
            continue
        subject, rest = domain.attributes[0], domain.attributes[1:]
        shapes: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = [((), ())]
        for a in rest:
            shapes.extend(((h,), (a.key,)) for h in a.headers)
        for a in rest:
            for b in rest:
                if a.key == b.key:
                    continue
                shapes.extend(
                    ((ha, hb), (a.key, b.key))
                    for ha in a.headers for hb in b.headers
                )
        for sh in subject.headers:
            for headers, attrs in shapes:
                text = " | ".join(h.lower() for h in (sh,) + headers)
                norm = normalized_query_key(Query.parse(text))
                if norm and norm not in out:
                    out[norm] = PopQuery(norm, key, (subject.key,) + attrs)
    return [out[k] for k in sorted(out)]


def build_population() -> List[PopQuery]:
    """The population in Zipf rank order (most popular first).

    The ranking is fixed (:data:`POPULATION_SEED`), so every run measures
    the same popularity law over the same queries; ``--seed`` drives the
    draws from it.
    """
    members = _all_queries()
    random.Random(POPULATION_SEED).shuffle(members)
    return members[:POPULATION_SIZE]


def check_set() -> List[PopQuery]:
    """A fixed, seed-independent sample of the population (for quality)."""
    members = _all_queries()
    step = len(members) // CHECK_SET_SIZE
    return [members[i * step] for i in range(CHECK_SET_SIZE)]


class ZipfSampler:
    """Draws ranks ``0..n-1`` with Zipf(``s``) popularity.

    The ranks come from a fixed low-discrepancy sequence (uniform
    variates ``frac(k * 0.618...)`` through the Zipf CDF), cut into blocks
    of :data:`ZIPF_BLOCK`, and ``seed`` shuffles the order inside each
    block.  Every prefix of the stream then follows the Zipf law closely
    and asks nearly the same queries whatever the seed: a run of a few
    hundred requests measures the system, not the luck of the draw,
    while the seed still decides the order, and so which requests hit
    the caches.
    """

    _STEP = (5 ** 0.5 - 1) / 2

    def __init__(self, n: int, seed: int, s: float = ZIPF_S) -> None:
        self._rng = random.Random(seed)
        self._u = 0.0
        self._block: List[int] = []
        acc = 0.0
        self._cum: List[float] = []
        for rank in range(1, n + 1):
            acc += 1.0 / rank ** s
            self._cum.append(acc)

    def draw(self) -> int:
        """The next rank."""
        if not self._block:
            for _ in range(ZIPF_BLOCK):
                self._u = (self._u + self._STEP) % 1.0
                self._block.append(
                    bisect.bisect_left(self._cum, self._u * self._cum[-1])
                )
            self._rng.shuffle(self._block)
        return self._block.pop()


class SyntheticProvenance:
    """Recovers the generator's provenance of ``iter_synthetic_tables`` tables.

    The domain is the first path segment of a table's URL; each column is
    the first attribute, after the previous column's, whose value set holds
    every cell of the column (the generator keeps attribute order).
    """

    def __init__(self) -> None:
        self._values = {
            key: [
                frozenset(row[c] for row in domain.rows)
                for c in range(len(domain.attributes))
            ]
            for key, domain in REGISTRY.items()
        }

    def of(self, table: WebTable) -> Optional[TableProvenance]:
        """Provenance of one table, or ``None`` if no domain explains it."""
        parts = table.url.split("/")
        domain = REGISTRY.get(parts[3]) if len(parts) > 3 else None
        if domain is None:
            return None
        values = self._values[domain.key]
        attrs: List[str] = []
        start = 0
        for ci in range(table.num_cols):
            cells = set(table.column_values(ci))
            for ai in range(start, len(domain.attributes)):
                if cells <= values[ai]:
                    attrs.append(domain.attributes[ai].key)
                    start = ai + 1
                    break
            else:
                return None
        return TableProvenance(
            table_id=table.table_id,
            domain_key=domain.key,
            column_attrs=tuple(attrs),
            is_distractor=domain.is_distractor,
        )


def explain_error(
    explain: Dict[str, Any],
    pq: PopQuery,
    tables: Sequence[WebTable],
    provenance: Mapping[str, TableProvenance],
) -> float:
    """F1 error (percent) of one answer's mapping, from its explain payload.

    ``tables`` are the answer's candidate tables in probe order
    (``stage1_ids + stage2_ids``); ``provenance`` labels them.  Only the
    query-column labels count, as in :func:`repro.evaluation.f1_error`.
    """
    labels = LabelSpace(pq.q)
    truth = GroundTruth()
    for table in tables:
        prov = provenance.get(table.table_id)
        if prov is not None:
            truth.set_label(
                pq.query_id, table.table_id,
                label_table(prov, pq.domain_key, pq.attr_keys),
            )
    index = {t.table_id: ti for ti, t in enumerate(tables)}
    predicted: Dict[Tuple[int, int], int] = {}
    for rel in explain["relevant_tables"]:
        ti = index[rel["table_id"]]
        for ci, qc in rel["column_mapping"].items():
            predicted[(ti, int(ci))] = labels.from_query_column(int(qc))
    gold = gold_assignment(truth, pq.query_id, tables, labels)
    return f1_error(predicted, gold, labels)
