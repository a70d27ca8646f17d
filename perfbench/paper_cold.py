# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""``paper-cold``: the paper's 59 Table-1 queries, uncached, one caller.

In-process :class:`repro.WWTService` over ``generate_corpus(scale=1.0)``
(the paper-scale corpus, 1,024 tables, its default seed) with the result
and probe caches off.  A run is a series of rounds (at least three,
until ``--seconds`` of queries have run); each generates the corpus,
which is one set-up, builds a fresh service, and runs all 59 queries,
closed loop, in an order drawn from ``--seed``.  Almost all the time
goes to ``repro.core`` and ``repro.flow``.

Checks: every pass's answers equal the first pass's byte for byte, and
every pass's mapping F1 error equals the first pass's exactly.
"""

from __future__ import annotations

import random
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import WORKLOAD, CorpusConfig, EngineConfig, WWTService, generate_corpus
from repro.corpus import SyntheticCorpus
from repro.query.model import WorkloadQuery
from repro.serve import answer_payload
from repro.service import QueryRequest

from .common import (
    E2E_UNITS,
    HostSpeed,
    LAYER_UNITS,
    Outcome,
    clock,
    dumps_payload,
    layer_metrics,
    percentile,
    self_peak_rss_mb,
    spans_path,
)
from .population import PopQuery, explain_error
from .tracer import Tracer, install, summarize

__all__ = ["run"]

#: Result and probe caches off: every query runs the whole pipeline.
CONFIG = EngineConfig(cache_size=0, probe_cache_size=0)
#: Rounds per run, at least; ``setup_s`` is the median of their set-ups.
MIN_ROUNDS = 3
#: Host-speed samples taken right before and right after each set-up.
SETUP_PROBES = 10


class _Pass:
    """One pass over the workload: latencies, answers and mapping errors."""

    def __init__(self) -> None:
        self.latency: Dict[str, float] = {}
        self.payload: Dict[str, str] = {}
        self.error: Dict[str, float] = {}
        #: Latencies at reference host speed (see :class:`HostSpeed`).
        self.scaled: Dict[str, float] = {}
        #: The pass's ``ServiceStats.to_dict()``.
        self.service_stats: Dict[str, object] = {}

    @property
    def wall(self) -> float:
        """Seconds spent answering (the sum of the latencies)."""
        return sum(self.latency.values())


def _setup() -> Tuple[float, SyntheticCorpus]:
    """Generate the corpus and build a service over it; returns the time."""
    start = clock()
    synthetic = generate_corpus(CorpusConfig(scale=1.0))
    WWTService(synthetic.corpus, CONFIG).close()
    return clock() - start, synthetic


def _run_pass(
    synthetic: SyntheticCorpus,
    order: List[WorkloadQuery],
    out: Outcome,
    speed: Optional[HostSpeed] = None,
) -> _Pass:
    """Run every query once on a fresh service, then score the mappings.

    With ``speed``, the host speed is sampled after every query.
    """
    result = _Pass()
    service = WWTService(synthetic.corpus, CONFIG)
    responses = {}
    mark = speed.mark() if speed is not None else 0
    for wq in order:
        out.attempted += 1
        t0 = clock()
        try:
            response = service.answer(QueryRequest(wq.query, explain=True))
        except Exception as exc:  # a failed query is counted, not fatal
            out.failed += 1
            out.notes.append(f"{wq.query_id}: {exc!r}")
            continue
        result.latency[wq.query_id] = clock() - t0
        if response.degraded:
            out.failed += 1
        responses[wq.query_id] = response
        if speed is not None:
            speed.probe()
    factor = speed.scale(mark) if speed is not None else 1.0
    result.scaled = {qid: latency * factor for qid, latency in result.latency.items()}
    for wq in order:
        response = responses.get(wq.query_id)
        if response is None:
            continue
        result.payload[wq.query_id] = dumps_payload(answer_payload(response))
        explain = response.explain
        # get_table, not get_many: scoring must not add index spans.
        tables = [
            synthetic.corpus.get_table(tid)
            for tid in explain["stage1_ids"] + explain["stage2_ids"]
        ]
        binding = PopQuery(str(wq.query), wq.domain_key, wq.attr_keys)
        result.error[wq.query_id] = explain_error(
            explain, binding, tables, synthetic.provenance
        )
    result.service_stats = service.stats().to_dict()
    service.close()
    return result


def _check_same(first: _Pass, other: _Pass, label: str, out: Outcome) -> None:
    out.check(other.payload == first.payload, f"{label}: answers differ from pass 1")
    out.check(other.error == first.error, f"{label}: mapping errors differ from pass 1")


def run(
    seed: int, seconds: float, trace: bool, root: Path, work: Path
) -> Tuple[Outcome, Dict[str, str]]:
    """Run the workload; returns the outcome and the metric catalogue it fills."""
    out = Outcome()
    rng = random.Random(seed)
    queries = list(WORKLOAD)

    def order() -> List[WorkloadQuery]:
        shuffled = list(queries)
        rng.shuffle(shuffled)
        return shuffled

    if trace:
        return _run_traced(order, out, root)

    # Each round sets up a fresh corpus and service, then runs one pass.
    speed = HostSpeed()
    setups: List[float] = []
    passes: List[_Pass] = []
    while len(passes) < MIN_ROUNDS or sum(p.wall for p in passes) < seconds:
        mark = speed.mark()
        speed.probe(SETUP_PROBES)
        took, synthetic = _setup()
        speed.probe(SETUP_PROBES)
        setups.append(took * speed.scale(mark))
        passes.append(_run_pass(synthetic, order(), out, speed))
    out.phase(f"{len(passes)} rounds")
    for i, other in enumerate(passes[1:], start=2):
        _check_same(passes[0], other, f"pass {i}", out)

    # Times at reference host speed; a query's latency is its median pass's.
    per_query = [
        statistics.median(p.scaled[qid] for p in passes if qid in p.scaled)
        for qid in passes[0].scaled
    ]
    raw = [
        statistics.median(p.latency[qid] for p in passes if qid in p.latency)
        for qid in passes[0].latency
    ]
    errors = passes[0].error
    out.metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": percentile(per_query, 50) * 1000.0,
        "query_p90_ms": percentile(per_query, 90) * 1000.0,
        "qps": statistics.median(len(p.scaled) / sum(p.scaled.values()) for p in passes),
        "peak_rss_mb": self_peak_rss_mb(),
        "mapping_error_pct": statistics.mean(errors.values()),
    }
    out.notes.append(
        f"paper-cold: {len(passes)} passes x {len(queries)} queries; percentiles "
        f"over {len(per_query)} per-query medians; result-cache hit share 0.000 "
        f"(cache off); unscaled p50 {percentile(raw, 50) * 1000.0:.1f} ms, "
        f"host-speed factors "
        f"{', '.join(f'{sum(p.scaled.values()) / p.wall:.2f}' for p in passes)}"
    )
    return out, E2E_UNITS


def _run_traced(
    order: Callable[[], List[WorkloadQuery]], out: Outcome, root: Path
) -> Tuple[Outcome, Dict[str, str]]:
    """One untraced pass, then two traced passes over the same order.

    The per-layer figures come from the second traced pass; the first
    proves the call counts repeat exactly.  Tracing overhead is the
    traced pass's time minus the untraced pass's, both at reference host
    speed.
    """
    _took, synthetic = _setup()
    sequence = order()
    speed = HostSpeed()
    plain = _run_pass(synthetic, sequence, out, speed)

    tracer = Tracer()
    install(tracer)
    first = _run_pass(synthetic, sequence, out, speed)
    counts_first = summarize(tracer.spans, tracer.counters())
    tracer.reset()
    traced = _run_pass(synthetic, sequence, out, speed)
    summary = summarize(tracer.spans, tracer.counters())
    tracer.dump(spans_path(root, "paper-cold"))

    _check_same(plain, first, "traced pass 1", out)
    _check_same(plain, traced, "traced pass 2", out)
    for name in sorted(k for k in summary if k.endswith(".calls")):
        out.check(
            summary[name] == counts_first[name],
            f"{name} not exact: {counts_first[name]} then {summary[name]}",
        )
    plain_s, traced_s = sum(plain.scaled.values()), sum(traced.scaled.values())
    overhead = traced_s - plain_s
    out.metrics = layer_metrics(summary, plain.service_stats, {
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / plain_s,
    })
    out.notes.append(
        f"paper-cold traced: build_edges {summary['core.build_edges.share']:.1%} "
        f"of query time, index.search {summary['index.search.share']:.1%}; "
        f"tracing overhead {overhead:.2f} s on a {plain_s:.2f} s pass"
    )
    return out, LAYER_UNITS
