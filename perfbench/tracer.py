# reprolint: disable-file=R001 -- span recorder: timestamps every wrapped call with the real monotonic clock by design; spans are measurements, not ranked answers
"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each traced function *at the binding its caller uses* — for example
``repro.core.model.build_edges``, the name ``build_problem`` looks up at
call time — with a wrapper that records a span: name, start, end, the
span that was open on the same thread when it started (its parent), and
a request id shared by every span under one ``WWTService`` call.  The
served corpus is wrapped per instance, at construction of the service
that serves it.

Spans stay in memory until :meth:`Tracer.dump`; :func:`summarize` turns
them into per-layer counts, inclusive and self times, and the few
ratios the layers' work explains (pair reuse, small matchings).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = ["Tracer", "install", "summarize", "load_dump"]

#: One recorded span: (id, parent id or 0, request id, name, start s, end s).
Span = Tuple[int, int, int, str, float, float]

class Tracer:
    """In-memory span recorder shared by every wrapper one :func:`install` adds."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: get_many span id -> number of tables returned.
        self.fetched: Dict[int, int] = {}
        #: Matched table-id pairs seen so far, and visits that repeated one.
        self._pairs_seen: Set[Tuple[str, str]] = set()
        self.pair_visits = 0
        self.pair_repeats = 0
        #: Bipartite problems solved, and those unit-capacity and at most 3x3.
        self.solves = 0
        self.small_unit_solves = 0
        self._wrapped_corpora: Set[int] = set()

    def reset(self) -> None:
        """Forget every span and counter (wrappers stay installed)."""
        with self._lock:
            self.spans.clear()
            self.fetched.clear()
            self._pairs_seen.clear()
            self.pair_visits = self.pair_repeats = 0
            self.solves = self.small_unit_solves = 0

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[int, tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``after(span_id, args, result)`` runs outside the timed interval.
        """
        stack_of = self._stack
        spans = self.spans
        ids = self._ids
        requests = self._requests
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = 0, next(requests)
            sid = next(ids)
            stack.append((sid, request))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, request, name, start, end))
            if after is not None:
                after(sid, args, result)
            return result

        return traced

    # -- counters recorded where the work happens -------------------------

    def _after_get_many(self, sid: int, args: tuple, result: Any) -> None:
        with self._lock:
            self.fetched[sid] = len(result)

    def _after_edges(self, sid: int, args: tuple, result: Any) -> None:
        tables = args[0]
        pairs = {
            (tables[e.a[0]].table_id, tables[e.b[0]].table_id) for e in result
        }
        with self._lock:
            for pair in sorted(pairs):
                self.pair_visits += 1
                if pair in self._pairs_seen:
                    self.pair_repeats += 1
                else:
                    self._pairs_seen.add(pair)

    def _after_solve(self, sid: int, args: tuple, result: Any) -> None:
        matcher = args[0]
        small = (
            len(matcher.left_caps) <= 3
            and len(matcher.right_caps) <= 3
            and all(c == 1 for c in matcher.left_caps)
            and all(c == 1 for c in matcher.right_caps)
        )
        with self._lock:
            self.solves += 1
            self.small_unit_solves += int(small)

    def wrap_corpus(self, corpus: Any) -> None:
        """Wrap one corpus instance's probe and mutation methods (once)."""
        with self._lock:
            if id(corpus) in self._wrapped_corpora:
                return
            self._wrapped_corpora.add(id(corpus))
        corpus.search = self.wrap(corpus.search, "index.search")
        corpus.get_many = self.wrap(
            corpus.get_many, "index.get_many", self._after_get_many
        )
        if hasattr(corpus, "add_tables"):
            corpus.add_tables = self.wrap(corpus.add_tables, "index.add_tables")
            corpus.compact = self.wrap(corpus.compact, "index.compact")

    # -- output -----------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """The non-span counters, JSON-ready."""
        return {
            "fetched": {str(k): v for k, v in self.fetched.items()},
            "pair_visits": self.pair_visits,
            "pair_repeats": self.pair_repeats,
            "solves": self.solves,
            "small_unit_solves": self.small_unit_solves,
        }

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON (once, at the end of a run)."""
        path.write_text(json.dumps({
            "fields": ["id", "parent", "request", "name", "start", "end"],
            "spans": self.spans,
            "counters": self.counters(),
        }))


def _wrap_attr(tracer: Tracer, owner: Any, attr: str, name: str,
               after: Optional[Callable[[int, tuple, Any], None]] = None) -> None:
    """Replace ``owner.attr`` by its traced twin, keeping classmethods bound."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, after)))
    else:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after))


def install(tracer: Tracer) -> None:
    """Trace every layer boundary the benchmark reports on, process-wide.

    Call before any service is built.  The traced bindings are the names
    each caller resolves at call time, so wrapping them here intercepts
    every call made through the public pipeline.
    """
    import repro.core.edges as edges
    import repro.core.model as model
    import repro.exec.query as exec_query
    import repro.flow.bipartite as bipartite
    import repro.pipeline.probe as probe
    from repro import REGISTRY, WWTService

    _wrap_attr(tracer, WWTService, "answer", "service.answer")
    _wrap_attr(tracer, WWTService, "add_tables", "service.add_tables")
    _wrap_attr(tracer, WWTService, "compact", "service.compact")
    _wrap_attr(tracer, probe, "build_problem", "core.build_problem")
    _wrap_attr(tracer, exec_query, "build_problem", "core.build_problem")
    _wrap_attr(tracer, model, "build_edges", "core.build_edges",
               tracer._after_edges)
    _wrap_attr(tracer, edges.ColumnProfile, "build", "core.column_profile")
    _wrap_attr(tracer, bipartite.BipartiteMatcher, "solve",
               "flow.bipartite.solve", tracer._after_solve)
    _wrap_attr(tracer, probe, "all_max_marginals", "inference.max_marginals")
    _wrap_attr(tracer, exec_query, "consolidate", "consolidate")

    # The service resolves its column-mapping algorithm through the
    # registry object; the function it gets back is what column_map calls.
    get_algorithm = REGISTRY.get_algorithm

    def traced_get_algorithm(name: str) -> Callable[..., Any]:
        return tracer.wrap(get_algorithm(name), "inference.solve")

    REGISTRY.get_algorithm = traced_get_algorithm

    init = WWTService.__init__

    @functools.wraps(init)
    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        tracer.wrap_corpus(self.corpus)

    WWTService.__init__ = traced_init


def load_dump(path: Path) -> Tuple[List[Span], Dict[str, Any]]:
    """Read back what :meth:`Tracer.dump` wrote."""
    data = json.loads(path.read_text())
    spans = [tuple(s) for s in data["spans"]]
    return spans, data["counters"]


def _self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children of one span run on the parent's thread, one after another,
    so their intervals do not overlap and their durations add up.
    """
    child_time: Dict[int, float] = {}
    for _sid, parent, _req, _name, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _parent, _req, _name, start, end in spans
    }


def summarize(spans: List[Span], counters: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures over one traced phase.

    Times are in milliseconds per ``service.answer`` request (all
    requests, cache hits included); ``share`` is the fraction of summed
    ``service.answer`` time.  Counts are totals over the phase.
    """
    self_time = _self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def total(name: str) -> float:
        return sum(s[5] - s[4] for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(self_time[s[0]] for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def p50_ms(name: str) -> float:
        durations = [s[5] - s[4] for s in by_name.get(name, ())]
        return statistics.median(durations) * 1000.0 if durations else 0.0

    requests = calls("service.answer")
    per_req = 1000.0 / requests if requests else 0.0
    answer_s = total("service.answer")

    # get_many calls per request, in order: read1, then read2 (probe.read2
    # always runs, so a computed query makes exactly two).
    fetched = counters.get("fetched", {})
    reads: Dict[int, List[int]] = {}
    for sid, _parent, req, _name, _start, _end in sorted(
        by_name.get("index.get_many", ()), key=lambda s: s[4]
    ):
        reads.setdefault(req, []).append(fetched.get(str(sid), 0))
    probed = [r for r in reads.values() if len(r) >= 2]
    visits = counters.get("pair_visits", 0)
    solves = counters.get("solves", 0)

    return {
        "core.build_edges.calls": calls("core.build_edges"),
        "core.build_edges.ms": total("core.build_edges") * per_req,
        "core.build_edges.share": (
            total("core.build_edges") / answer_s if answer_s else 0.0
        ),
        "core.column_profile.calls": calls("core.column_profile"),
        "core.column_profile.ms": total("core.column_profile") * per_req,
        "core.node_features.ms": self_total("core.build_problem") * per_req,
        "core.edges.pair_repeat_ratio": (
            counters.get("pair_repeats", 0) / visits if visits else 0.0
        ),
        "flow.bipartite.solve.calls": calls("flow.bipartite.solve"),
        "flow.bipartite.solve.ms": total("flow.bipartite.solve") * per_req,
        "flow.bipartite.small_unit_share": (
            counters.get("small_unit_solves", 0) / solves if solves else 0.0
        ),
        "inference.max_marginals.calls": calls("inference.max_marginals"),
        "inference.max_marginals.ms": (
            total("inference.max_marginals") * per_req
        ),
        "inference.solve.ms": total("inference.solve") * per_req,
        "consolidate.ms": total("consolidate") * per_req,
        "index.search.calls": calls("index.search"),
        "index.search.p50_ms": p50_ms("index.search"),
        "index.search.share": (
            total("index.search") / answer_s if answer_s else 0.0
        ),
        "index.get_many.calls": calls("index.get_many"),
        "index.get_many.p50_ms": p50_ms("index.get_many"),
        "index.add_tables.p50_ms": p50_ms("index.add_tables"),
        "index.compact.ms": (
            total("index.compact") * 1000.0 / calls("index.compact")
            if calls("index.compact") else 0.0
        ),
        "pipeline.candidates_per_query": (
            statistics.mean(sum(r) for r in probed) if probed else 0.0
        ),
        "pipeline.second_stage_share": (
            sum(1 for r in probed if r[1] > 0) / len(probed) if probed else 0.0
        ),
        "trace.requests": requests,
        "trace.spans": len(spans),
    }
