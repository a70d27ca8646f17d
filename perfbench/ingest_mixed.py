# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""``ingest-mixed``: reads and small writes on a persisted, journaled corpus.

A fixed corpus of ``iter_synthetic_tables`` tables is written in four
shards with ``build_corpus_stream`` and opened with ``load_corpus``;
:class:`repro.WWTService` serves it with ``auto_compact_threshold`` set
so that compaction recurs.  One closed-loop caller then mixes reads,
drawn Zipf(1.1) from the query population, with 25-table
``add_tables`` batches: four reads, then one write, repeated.  Every write
clears all three service caches, so ``repro.index`` (probes, journal
appends, compaction) and the uncached pipeline carry this workload.

A run is a series of rounds (at least three, until ``--seconds`` of
operations have run); each builds a fresh corpus, which is one set-up,
and runs the same 80 operations.  A read's latency is its median
round's, at reference host speed (see :class:`~perfbench.common.HostSpeed`).

Checks: every added table id is retrievable after the run, and a
seeded sample of answers is identical before and after a compaction.
Answer quality is the mapping F1 error of the fixed check set, asked
before the first write, against ground truth recovered from the
synthetic tables' own content.
"""

from __future__ import annotations

import random
import shutil
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import EngineConfig, Query, WWTService, load_corpus
from repro.corpus.generator import iter_synthetic_tables
from repro.index import build_corpus_stream
from repro.serve import answer_payload
from repro.service import QueryRequest
from repro.tables.table import WebTable

from .common import (
    E2E_UNITS,
    HostSpeed,
    LAYER_UNITS,
    Outcome,
    clock,
    dir_bytes,
    dumps_payload,
    layer_metrics,
    percentile,
    self_peak_rss_mb,
    spans_path,
)
from .population import PopQuery, SyntheticProvenance, ZipfSampler, build_population, check_set, explain_error
from .tracer import Tracer, install, summarize

__all__ = ["run"]

#: Tables in the persisted corpus (fixed: the seed drives the traffic).
BASE_TABLES = 3000
BASE_SEED = 42
NUM_SHARDS = 4
#: Tables per ``add_tables`` call; every fifth operation is one.
BATCH = 25
WRITE_EVERY = 5
#: Journal depth that triggers compaction: every fourth write.
COMPACT_AT = 4 * BATCH
#: Operations per round: 64 reads (four whole sampler blocks, so every
#: seed reads the same queries) and 16 writes.
ROUND_OPS = 80
#: Rounds per run, at least; each builds its own corpus, and ``setup_s``
#: is the median of their set-ups.
MIN_ROUNDS = 3
#: Host-speed samples taken right before and right after each set-up.
SETUP_PROBES = 10
#: Answers compared across a compaction.
SAMPLE = 4


def _config() -> EngineConfig:
    return EngineConfig(auto_compact_threshold=COMPACT_AT)


class _Ops:
    """Results of one closed-loop operation stream, in operation order."""

    def __init__(self) -> None:
        self.latency: List[float] = []
        #: Latencies at reference host speed (see :class:`HostSpeed`).
        self.scaled: List[float] = []
        self.is_read: List[bool] = []
        self.read_texts: List[str] = []
        self.added: List[str] = []

    def pick(self, values: List[float], reads: bool) -> List[float]:
        """The entries of ``values`` (in operation order) for reads or writes."""
        return [v for v, r in zip(values, self.is_read) if r == reads]

    @property
    def reads(self) -> List[float]:
        return self.pick(self.latency, True)

    @property
    def writes(self) -> List[float]:
        return self.pick(self.latency, False)

    @property
    def wall(self) -> float:
        """Seconds spent in operations (reads and writes)."""
        return sum(self.latency)


def _setup(tables: List[WebTable], path: Path) -> Tuple[Dict[str, float], WWTService]:
    """Build, open and serve one corpus directory; returns timings and service."""
    start = clock()
    build_corpus_stream(tables, path, num_shards=NUM_SHARDS)
    built = clock()
    corpus = load_corpus(path)
    opened = clock()
    service = WWTService(corpus, _config())
    return {
        "setup_s": clock() - start,
        "build_s": built - start,
        "open_ms": (opened - built) * 1000.0,
    }, service


def _batches(seed: int, count: int) -> List[List[WebTable]]:
    """``count`` write batches of new tables, ids unique to this seed."""
    tables = list(iter_synthetic_tables(
        count * BATCH, seed=seed, id_prefix=f"w{seed}-"
    ))
    return [tables[i:i + BATCH] for i in range(0, len(tables), BATCH)]


def _run_ops(
    service: WWTService,
    population: List[PopQuery],
    seed: int,
    batches: List[List[WebTable]],
    out: Outcome,
    count: int,
    speed: Optional[HostSpeed] = None,
) -> _Ops:
    """One caller: four Zipf reads, then one batch write, repeated.

    With ``speed``, the host speed is sampled after every operation.
    """
    ops = _Ops()
    sampler = ZipfSampler(len(population), seed * 1009)
    pending = iter(batches)
    mark = speed.mark() if speed is not None else 0
    for done in range(1, count + 1):
        out.attempted += 1
        batch = next(pending, None) if done % WRITE_EVERY == 0 else None
        if batch is not None:
            t0 = clock()
            service.add_tables(batch)
            ops.latency.append(clock() - t0)
            ops.added.extend(t.table_id for t in batch)
        else:
            text = population[sampler.draw()].text
            request = QueryRequest(Query.parse(text))
            t0 = clock()
            response = service.answer(request)
            ops.latency.append(clock() - t0)
            ops.read_texts.append(text)
            if response.degraded:
                out.failed += 1
        ops.is_read.append(batch is None)
        if speed is not None:
            speed.probe()
    factor = speed.scale(mark) if speed is not None else 1.0
    ops.scaled = [v * factor for v in ops.latency]
    return ops


def _quality(service: WWTService) -> float:
    """Mean mapping F1 error of the fixed check set on the served corpus."""
    provenance = SyntheticProvenance()
    errors = []
    for pq in check_set():
        response = service.answer(QueryRequest(Query.parse(pq.text), explain=True))
        explain = response.explain
        ids = explain["stage1_ids"] + explain["stage2_ids"]
        tables = [service.corpus.get_table(tid) for tid in ids]
        labels = {t.table_id: p for t in tables if (p := provenance.of(t)) is not None}
        errors.append(explain_error(explain, pq, tables, labels))
    service.clear_caches()
    return statistics.mean(errors)


def _check_after(service: WWTService, ops: _Ops, extra: List[WebTable],
                 seed: int, out: Outcome) -> None:
    """Added ids are retrievable; answers survive a compaction unchanged."""
    corpus = service.corpus
    # No auto-compaction on this service, so the write leaves a journal
    # for the explicit compaction below to fold.
    uncached = WWTService(corpus, EngineConfig(cache_size=0, probe_cache_size=0))
    uncached.add_tables(extra)
    added = ops.added + [t.table_id for t in extra]
    missing = [tid for tid in added if tid not in corpus]
    out.check(not missing, f"{len(missing)} added tables not retrievable")
    out.check(len(corpus.get_many(added)) == len(added), "get_many lost added tables")

    texts = sorted(set(ops.read_texts))
    sample = random.Random(seed).sample(texts, min(SAMPLE, len(texts)))

    def answers() -> Dict[str, str]:
        return {
            text: dumps_payload(answer_payload(uncached.answer(Query.parse(text))))
            for text in sample
        }

    before = answers()
    folded = service.compact()
    out.check(folded > 0 and corpus.journal_depth == 0, "compaction folded nothing")
    out.check(answers() == before, "answers changed across compaction")


def run(
    seed: int, seconds: float, trace: bool, root: Path, work: Path
) -> Tuple[Outcome, Dict[str, str]]:
    """Run the workload; returns the outcome and the metric catalogue it fills."""
    out = Outcome()
    population = build_population()
    tables = list(iter_synthetic_tables(BASE_TABLES, seed=BASE_SEED))
    if trace:
        return _run_traced(population, seed, tables, out, root, work)

    batches = _batches(seed, ROUND_OPS // WRITE_EVERY + 1)
    speed = HostSpeed()
    rounds: List[_Ops] = []
    setups: List[float] = []
    service = None
    mapping_error = 0.0
    while len(rounds) < MIN_ROUNDS or sum(r.wall for r in rounds) < seconds:
        if service is not None:
            service.corpus.close()
            shutil.rmtree(work / f"corpus{len(rounds) - 1}")
        mark = speed.mark()
        speed.probe(SETUP_PROBES)
        timings, service = _setup(tables, work / f"corpus{len(rounds)}")
        speed.probe(SETUP_PROBES)
        setups.append(timings["setup_s"] * speed.scale(mark))
        if not rounds:
            mapping_error = _quality(service)
        rounds.append(_run_ops(service, population, seed, batches[:-1], out,
                               ROUND_OPS, speed))
    out.phase(f"{len(rounds)} rounds")
    _check_after(service, rounds[-1], batches[-1], seed, out)
    out.phase("checks")
    peak_rss = self_peak_rss_mb()
    service.corpus.close()

    # Every round runs the same operations on a fresh corpus.  Times at
    # reference host speed; an operation's latency is its median round's.
    def per_op(values: List[List[float]]) -> List[float]:
        return [statistics.median(column) for column in zip(*values)]

    reads = per_op([r.pick(r.scaled, True) for r in rounds])
    writes = per_op([r.pick(r.scaled, False) for r in rounds])
    raw = per_op([r.reads for r in rounds])
    out.metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": percentile(reads, 50) * 1000.0,
        "query_p90_ms": percentile(reads, 90) * 1000.0,
        "qps": statistics.median(
            len(r.reads) / sum(r.scaled) for r in rounds
        ),
        "peak_rss_mb": peak_rss,
        "mapping_error_pct": mapping_error,
    }
    stats = service.stats().to_dict()
    out.notes.append(
        f"ingest-mixed: {len(rounds)} rounds of {len(reads)} reads and "
        f"{len(writes)} writes; last round's result-cache hit share "
        f"{stats['result_cache']['hit_rate']:.3f}; write p50 "
        f"{percentile(writes, 50) * 1000.0:.1f} ms; unscaled read p50 "
        f"{percentile(raw, 50) * 1000.0:.1f} ms, host-speed factors "
        f"{', '.join(f'{sum(r.scaled) / r.wall:.2f}' for r in rounds)}"
    )
    return out, E2E_UNITS


def _run_traced(
    population: List[PopQuery], seed: int, tables: List[WebTable],
    out: Outcome, root: Path, work: Path,
) -> Tuple[Outcome, Dict[str, str]]:
    """The same fixed operation stream on two copies of one fresh corpus:
    first untraced, then traced.

    Write latency, disk and cache figures come from the untraced copy;
    span figures from the traced one.  Tracing overhead is the traced
    stream's wall time minus the untraced one's.
    """
    first, second = work / "corpus0", work / "corpus1"
    timings, service = _setup(tables, first)
    bytes_per_table = dir_bytes(first) / BASE_TABLES
    service.corpus.close()
    shutil.copytree(first, second)

    batches = _batches(seed, ROUND_OPS // WRITE_EVERY)
    plain_service = WWTService(load_corpus(first), _config())
    speed = HostSpeed()
    plain = _run_ops(plain_service, population, seed, batches, out, ROUND_OPS, speed)
    plain_stats = plain_service.stats().to_dict()
    plain_service.corpus.close()

    tracer = Tracer()
    install(tracer)
    traced_service = WWTService(load_corpus(second), _config())
    traced = _run_ops(traced_service, population, seed, batches, out, ROUND_OPS, speed)
    summary = summarize(tracer.spans, tracer.counters())
    tracer.dump(spans_path(root, "ingest-mixed"))
    traced_service.corpus.close()

    out.check(plain.added == traced.added, "traced stream wrote other tables")
    plain_s, traced_s = sum(plain.scaled), sum(traced.scaled)
    overhead = traced_s - plain_s
    out.metrics = layer_metrics(summary, plain_stats, {
        "index.open_ms": timings["open_ms"],
        "index.build_s": timings["build_s"],
        "index.bytes_per_table": bytes_per_table,
        "write_p50_ms": percentile(plain.writes, 50) * 1000.0 if plain.writes else 0.0,
        "write_p90_ms": percentile(plain.writes, 90) * 1000.0 if plain.writes else 0.0,
        "disk_mb": dir_bytes(first) / 2**20,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / plain_s,
    })
    out.notes.append(
        f"ingest-mixed traced: {len(plain.reads)} reads, {len(plain.writes)} "
        f"writes per phase; tracing overhead {overhead:.2f} s on {plain_s:.2f} s"
    )
    return out, LAYER_UNITS
