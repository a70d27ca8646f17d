# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""Shared pieces of the benchmark: metric catalogue, statistics, outcome.

Every workload returns an :class:`Outcome`; ``run.py`` prints its
metrics as the final JSON line.  The metric catalogue here is the one
``BENCHMARK.json`` declares, so a workload that forgets a metric fails
the run instead of silently printing fewer.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "E2E_UNITS",
    "HostSpeed",
    "LAYER_UNITS",
    "STAGES",
    "Outcome",
    "clock",
    "dir_bytes",
    "dumps_payload",
    "hit_ratio",
    "layer_metrics",
    "percentile",
    "self_peak_rss_mb",
    "pid_peak_rss_mb",
    "spans_path",
    "work_dir",
]

clock = time.perf_counter

#: End-to-end metrics (printed with ``--trace 0``), name -> unit.
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "qps": "1/s",
    "peak_rss_mb": "MB",
    "mapping_error_pct": "%",
}

#: The nine plan stages of ``repro.exec.query``, in execution order.
STAGES = (
    "parse", "probe.index1", "probe.read1", "probe.confidence",
    "probe.index2", "probe.read2", "column_map", "consolidate", "rank",
)

#: Per-layer metrics (printed with ``--trace 1``), name -> unit.
LAYER_UNITS: Dict[str, str] = {
    "core.build_edges.calls": "count",
    "core.build_edges.ms": "ms",
    "core.build_edges.share": "ratio",
    "core.column_profile.calls": "count",
    "core.column_profile.ms": "ms",
    "core.node_features.ms": "ms",
    "core.edges.pair_repeat_ratio": "ratio",
    "flow.bipartite.solve.calls": "count",
    "flow.bipartite.solve.ms": "ms",
    "flow.bipartite.small_unit_share": "ratio",
    "inference.max_marginals.calls": "count",
    "inference.max_marginals.ms": "ms",
    "inference.solve.ms": "ms",
    "consolidate.ms": "ms",
    **{f"exec.stage.{name}.p50_ms": "ms" for name in STAGES},
    "index.search.calls": "count",
    "index.search.p50_ms": "ms",
    "index.search.share": "ratio",
    "index.get_many.calls": "count",
    "index.get_many.p50_ms": "ms",
    "index.add_tables.p50_ms": "ms",
    "index.compact.ms": "ms",
    "index.open_ms": "ms",
    "index.build_s": "s",
    "index.bytes_per_table": "B",
    "service.result_cache.hit_ratio": "ratio",
    "service.probe_cache.hit_ratio": "ratio",
    "service.feature_cache.hit_ratio": "ratio",
    "serve.queue_wait_p50_ms": "ms",
    "serve.handle_p50_ms": "ms",
    "serve.overhead_p50_ms": "ms",
    "pipeline.candidates_per_query": "count",
    "pipeline.second_stage_share": "ratio",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "disk_mb": "MB",
    "trace.requests": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


#: Seconds :func:`_probe_kernel` takes on the reference host (2 vCPUs,
#: Python 3.11) in its fast state; the unit every reported time is scaled to.
PROBE_REF_S = 0.0008


def _probe_kernel() -> int:
    """Fixed pure-Python work (dict updates) whose time tracks host speed."""
    counts: Dict[int, int] = {}
    for i in range(8000):
        key = i % 61
        counts[key] = counts.get(key, 0) + i
    return len(counts)


class HostSpeed:
    """The host's CPU speed, sampled by timing a fixed kernel.

    The reference host's vCPUs each switch between speeds about 1.5x
    apart, for minutes at a time, independently of each other and of the
    program.  Every workload therefore samples the speed next to what it
    times, on the same vCPU, and reports times scaled to the speed
    :data:`PROBE_REF_S` was taken at: ``scaled = raw * factor``.  A
    slower program still reads slower; a slower host does not.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self, times: int = 1) -> None:
        """Time the kernel ``times`` times on the current vCPU."""
        for _ in range(times):
            start = clock()
            _probe_kernel()
            self.samples.append(clock() - start)

    def probe_each_cpu(self, times: int = 1) -> None:
        """Time the kernel on every vCPU this process may use, in turn."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                self.probe(times)
        finally:
            os.sched_setaffinity(0, allowed)

    def mark(self) -> int:
        """Position to pass to :meth:`scale` as ``since``."""
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """Factor from times measured since ``since`` to reference speed."""
        return PROBE_REF_S / statistics.median(self.samples[since:])



def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def hit_ratio(cache: Dict[str, Any]) -> float:
    """Hit share of one ``CacheStats.to_dict()`` (0 when never consulted)."""
    looked = cache["hits"] + cache["misses"]
    return cache["hits"] / looked if looked else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def spans_path(root: Path, workload: str) -> Path:
    """Where a traced run writes its spans (the latest run per workload)."""
    path = root / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path / f"spans-{workload}.json"


def work_dir(root: Path, workload: str) -> Path:
    """A fresh scratch directory for one run, inside the checkout."""
    path = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Outcome:
    """What one workload run did, found and measured."""

    attempted: int = 0
    failed: int = 0
    #: Failed correctness checks, one line each.
    check_failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed above the result (sample counts,
    #: cache hit shares), never parsed.
    notes: List[str] = field(default_factory=list)
    #: Wall time of each named phase of the run, in order.
    phases: List[str] = field(default_factory=list)
    _mark: float = field(default_factory=clock)

    def phase(self, name: str) -> None:
        """Close the current phase under ``name`` (for the notes only)."""
        now = clock()
        self.phases.append(f"{name} {now - self._mark:.1f}s")
        self._mark = now

    def check(self, ok: bool, what: str) -> None:
        """Record one correctness check; a failure counts as a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failures.append(what)

    def result(self, units: Dict[str, str]) -> Dict[str, Any]:
        """The final JSON object; every catalogued metric must be present."""
        missing = sorted(set(units) - set(self.metrics))
        extra = sorted(set(self.metrics) - set(units))
        if missing or extra:
            raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
        return {
            "correct": not self.check_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def layer_metrics(
    summary: Optional[Dict[str, float]],
    service: Optional[Dict[str, Any]],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Assemble the per-layer metric set.

    ``summary`` is :func:`tracer.summarize` output, ``service`` a
    ``ServiceStats.to_dict()`` (in-process or from ``/stats``), and
    ``extra`` the workload's own figures.  A layer the workload never
    exercises reads 0.
    """
    out = {name: 0.0 for name in LAYER_UNITS}
    if summary:
        out.update({k: v for k, v in summary.items() if k in out})
    if service:
        for cache in ("result_cache", "probe_cache", "feature_cache"):
            out[f"service.{cache}.hit_ratio"] = hit_ratio(service[cache])
        for name in STAGES:
            stage = service["stages"].get(name)
            if stage is not None:
                out[f"exec.stage.{name}.p50_ms"] = stage["p50"] * 1000.0
    out.update(extra)
    return out


def dumps_payload(payload: Any) -> str:
    """Canonical JSON bytes of an answer payload, for identity checks."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
