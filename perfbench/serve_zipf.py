# reprolint: disable-file=R001 -- load harness: measures real wall-clock latency over real sockets by design; results are reports, not ranked answers
"""``serve-zipf``: Zipf-popular queries over real sockets to ``repro serve``.

``python -m repro serve --scale 1.0 --port 0`` runs as a subprocess at
its default settings (4 workers, result cache 256, probe cache 128).
Two closed-loop clients, each on its own keep-alive connection, take
their next query from one shared stream drawn Zipf(1.1) from the ~2,000-query population (see
:mod:`perfbench.population`), which is larger than either cache.  The
32 most popular queries are sent once before timing, so the hot head is
cached as it would be on a long-running server.  ``repro.serve`` and
the service caches do most of the work here: the median request is a
cache hit and the tail is a full compute.

Checks: every reply is a 200 and not degraded; a seeded sample of the
streamed answers, and the fixed quality check set requested with
``explain``, are byte-identical to ``answer_payload`` of an in-process
``WWTService`` over the same corpus.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import CorpusConfig, WWTService, generate_corpus
from repro.serve import ServeClient, answer_payload, parse_query_payload

from .common import (
    E2E_UNITS,
    HostSpeed,
    LAYER_UNITS,
    Outcome,
    clock,
    dumps_payload,
    layer_metrics,
    percentile,
    pid_peak_rss_mb,
    spans_path,
)
from .population import PopQuery, ZipfSampler, build_population, check_set, explain_error
from .tracer import load_dump, summarize

__all__ = ["run"]

#: The server command line after ``python -m repro``: defaults throughout.
SERVE_ARGS = ["serve", "--scale", "1.0", "--port", "0"]
#: Concurrent closed-loop clients (= vCPUs of the reference host).
CLIENTS = 2
#: Most popular queries sent once, untimed, before measuring.
WARM = 32
#: Server starts per run; ``setup_s`` is their median.
SETUPS = 3
#: Host-speed samples per vCPU taken right before and after each start.
SETUP_PROBES = 5
#: Seconds between host-speed samples during the measured window.
PROBE_INTERVAL_S = 0.25
#: Streamed answers re-checked in-process.
SAMPLE = 6
#: Requests per client in each phase of a traced run (shared stream).
TRACE_REQUESTS = 100
#: Seconds to wait for a server banner or exit.
START_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 20.0


class Server:
    """One ``repro serve`` subprocess, started and stopped by the benchmark."""

    def __init__(self, root: Path, work: Path, launcher: Optional[Path] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        if launcher is None:
            argv = [sys.executable, "-m", "repro"] + SERVE_ARGS
        else:
            argv = [sys.executable, str(root / "perfbench" / "launch_serve.py"),
                    str(launcher)] + SERVE_ARGS
        self._stderr_path = work / f"server-{clock():.6f}.stderr"
        self._stderr = self._stderr_path.open("w")
        start = clock()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            self.host, self.port = self._read_banner()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - start

    def _read_banner(self) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            deadline = clock() + START_TIMEOUT_S
            while clock() < deadline:
                if not sel.select(timeout=deadline - clock()):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on http://"):
                    host, port = line.strip()[len("serving on http://"):].rsplit(":", 1)
                    return host, int(port)
        self._stderr.flush()
        tail = self._stderr_path.read_text()[-2000:]
        raise RuntimeError(f"server did not start: {tail}")

    def stop(self) -> None:
        """SIGINT (drain and exit), then wait; kill if it will not exit."""
        for send in (lambda: self.proc.send_signal(signal.SIGINT), self.proc.kill):
            if self.proc.poll() is not None:
                break
            send()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                continue
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


@dataclass
class _Reply:
    latency: float
    ok: bool
    cache_hit: bool
    text: str
    answer: Optional[Dict[str, Any]] = None


@dataclass
class _Load:
    """Replies of one load phase, plus its wall time."""

    replies: List[_Reply] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall: float = 0.0

    @property
    def ok_latencies(self) -> List[float]:
        return [r.latency for r in self.replies if r.ok]


def _send(client: ServeClient, payload: Dict[str, Any]) -> Tuple[Optional[Dict[str, Any]], str]:
    """One request; returns ``(body, "")`` on a healthy 200, else ``(None, why)``."""
    try:
        status, _headers, body = client.query(payload)
    except (OSError, http.client.HTTPException) as exc:
        return None, f"{payload['query']}: {exc!r}"
    if status != 200:
        return None, f"{payload['query']}: HTTP {status}"
    if body["serving"]["degraded"]:
        return None, f"{payload['query']}: degraded"
    return body, ""


def _load(
    server: Server,
    streams: List[Callable[[], Optional[str]]],
    keep_answers: bool = False,
) -> _Load:
    """Closed loop: one thread and connection per stream until it returns None."""
    load = _Load()
    lock = threading.Lock()

    def client_loop(next_text: Callable[[], Optional[str]]) -> None:
        with ServeClient(server.host, server.port, timeout_s=60.0) as client:
            while True:
                text = next_text()
                if text is None:
                    return
                t0 = clock()
                body, why = _send(client, {"query": text})
                reply = _Reply(clock() - t0, body is not None,
                               bool(body and body["serving"]["cache_hit"]), text,
                               body["answer"] if body and keep_answers else None)
                with lock:
                    load.replies.append(reply)
                    if why:
                        load.errors.append(why)

    threads = [threading.Thread(target=client_loop, args=(s,)) for s in streams]
    start = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170.0)
        if t.is_alive():
            raise RuntimeError("a client thread did not finish")
    load.wall = clock() - start
    return load


def _list_stream(texts: List[str]) -> Callable[[], Optional[str]]:
    items = iter(texts)
    return lambda: next(items, None)


def _warm(server: Server, population: List[PopQuery]) -> _Load:
    """Send the ``WARM`` most popular queries once, split across the clients."""
    return _load(server, [
        _list_stream([p.text for p in population[i:WARM:CLIENTS]])
        for i in range(CLIENTS)
    ])


def _zipf_stream(
    population: List[PopQuery], seed: int, until: Optional[float], count: Optional[int]
) -> Callable[[], Optional[str]]:
    """One seeded Zipf stream that every client draws its next query from,
    ending at a deadline or after ``count`` queries."""
    sampler = ZipfSampler(len(population), seed)
    lock = threading.Lock()
    sent = [0]

    def next_text() -> Optional[str]:
        with lock:
            if until is not None and clock() >= until:
                return None
            if count is not None and sent[0] >= count:
                return None
            sent[0] += 1
            return population[sampler.draw()].text

    return next_text


class _SpeedSampler:
    """Samples host speed on every vCPU from a background thread.

    The server runs in its own process, on whichever vCPU the kernel
    gives it, so the window's speed is sampled on all of them: one kernel
    run per vCPU every :data:`PROBE_INTERVAL_S`.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.mark = speed.mark()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.speed.probe_each_cpu()

    def stop(self) -> float:
        """Stop sampling; returns the window's host-speed factor."""
        self._stop.set()
        self._thread.join(timeout=10.0)
        return self.speed.scale(self.mark)


class _Reference:
    """An in-process ``WWTService`` over the corpus the server generates."""

    def __init__(self) -> None:
        self.synthetic = generate_corpus(CorpusConfig(scale=1.0))
        self.service = WWTService(self.synthetic.corpus)

    def payload(self, wire: Dict[str, Any]) -> str:
        """Canonical answer payload for one wire request body."""
        request = parse_query_payload(json.dumps(wire).encode("utf-8"))
        return dumps_payload(answer_payload(self.service.answer(request)))

    def mapping_error(self, explain: Dict[str, Any], pq: PopQuery) -> float:
        """F1 error of a served explain payload against ground truth."""
        corpus = self.synthetic.corpus
        tables = [corpus.get_table(tid)
                  for tid in explain["stage1_ids"] + explain["stage2_ids"]]
        return explain_error(explain, pq, tables, self.synthetic.provenance)

    def close(self) -> None:
        self.service.close()


def _tally(out: Outcome, load: _Load) -> None:
    out.attempted += len(load.replies)
    out.failed += sum(1 for r in load.replies if not r.ok)
    out.notes.extend(load.errors[:5])


def run(
    seed: int, seconds: float, trace: bool, root: Path, work: Path
) -> Tuple[Outcome, Dict[str, str]]:
    """Run the workload; returns the outcome and the metric catalogue it fills."""
    out = Outcome()
    population = build_population()
    if trace:
        return _run_traced(population, seed, out, root, work)

    speed = HostSpeed()
    setups: List[float] = []
    server = None
    try:
        for i in range(SETUPS):
            mark = speed.mark()
            speed.probe_each_cpu(SETUP_PROBES)
            server = Server(root, work)
            speed.probe_each_cpu(SETUP_PROBES)
            setups.append(server.setup_s * speed.scale(mark))
            if i < SETUPS - 1:
                server.stop()
        out.phase("setup")
        # While the server warms up on its own core, build the in-process
        # reference over the same corpus and answer the check set with it.
        warm: List[_Load] = []
        warmer = threading.Thread(target=lambda: warm.append(_warm(server, population)))
        warmer.start()
        reference = _Reference()
        expected = {pq.text: reference.payload({"query": pq.text, "explain": True})
                    for pq in check_set()}
        warmer.join(timeout=170.0)
        if not warm:
            raise RuntimeError("warm-up did not finish")
        _tally(out, warm[0])
        out.phase("warm")
        stream = _zipf_stream(population, seed, clock() + seconds, None)
        sampler = _SpeedSampler(speed)
        try:
            load = _load(server, [stream] * CLIENTS, keep_answers=True)
        finally:
            scale = sampler.stop()
        _tally(out, load)
        out.phase("measure")
        with ServeClient(server.host, server.port) as client:
            checks = [(pq, *_send(client, {"query": pq.text, "explain": True}))
                      for pq in check_set()]
        peak_rss = pid_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    out.phase("served checks")

    served: Dict[str, Dict[str, Any]] = {}
    for reply in load.replies:
        if reply.ok and reply.text not in served:
            served[reply.text] = reply.answer  # type: ignore[assignment]
    sample = random.Random(seed).sample(sorted(served), min(SAMPLE, len(served)))
    for text in sample:
        out.check(dumps_payload(served[text]) == reference.payload({"query": text}),
                  f"served answer differs from in-process: {text}")
    errors = []
    for pq, body, why in checks:
        out.check(body is not None, f"check query failed: {why}")
        if body is None:
            continue
        out.check(dumps_payload(body["answer"]) == expected[pq.text],
                  f"served explain answer differs from in-process: {pq.text}")
        errors.append(reference.mapping_error(body["answer"]["explain"], pq))
    reference.close()
    out.phase("in-process checks")

    # Times at reference host speed (see HostSpeed).
    latencies = load.ok_latencies
    hits = sum(1 for r in load.replies if r.cache_hit)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": percentile(latencies, 50) * 1000.0 * scale,
        "query_p90_ms": percentile(latencies, 90) * 1000.0 * scale,
        "qps": len(latencies) / (load.wall * scale),
        "peak_rss_mb": peak_rss,
        "mapping_error_pct": statistics.mean(errors) if errors else 0.0,
    }
    out.notes.append(
        f"serve-zipf: {len(load.replies)} requests from {CLIENTS} clients in "
        f"{load.wall:.1f} s; result-cache hit share {hits / max(1, len(load.replies)):.3f}; "
        f"{len(sample)} streamed + {len(checks)} explain answers checked in-process; "
        f"unscaled p50 {percentile(latencies, 50) * 1000.0:.1f} ms, "
        f"host-speed factor {scale:.2f}"
    )
    return out, E2E_UNITS


def _run_traced(
    population: List[PopQuery], seed: int, out: Outcome, root: Path, work: Path
) -> Tuple[Outcome, Dict[str, str]]:
    """The same warm-up and fixed-count stream against an untraced server,
    then against a server started through the tracing launcher.

    Serving-layer, cache and stage figures come from the untraced
    server's ``/stats``; span figures from the traced one.  Tracing
    overhead is the traced stream's wall time minus the untraced one's,
    both at reference host speed.
    """
    phases = []
    speed = HostSpeed()
    spans_file = spans_path(root, "serve-zipf")
    spans_file.unlink(missing_ok=True)
    for launcher in (None, spans_file):
        server = Server(root, work, launcher)
        try:
            _tally(out, _warm(server, population))
            stream = _zipf_stream(population, seed, None, CLIENTS * TRACE_REQUESTS)
            sampler = _SpeedSampler(speed)
            try:
                load = _load(server, [stream] * CLIENTS)
            finally:
                load_scale = sampler.stop()
            load.wall *= load_scale
            _tally(out, load)
            with ServeClient(server.host, server.port) as client:
                _status, _headers, stats = client.stats()
        finally:
            server.stop()
        phases.append((load, stats))
    (plain, plain_stats), (traced, _traced_stats) = phases
    spans, counters = load_dump(spans_file)
    summary = summarize(spans, counters)

    client_p50 = percentile(plain.ok_latencies, 50) * 1000.0
    handle_p50 = plain_stats["server"]["handle"]["p50"] * 1000.0
    overhead = traced.wall - plain.wall
    out.metrics = layer_metrics(summary, plain_stats["service"], {
        "serve.queue_wait_p50_ms": plain_stats["server"]["queue_wait"]["p50"] * 1000.0,
        "serve.handle_p50_ms": handle_p50,
        "serve.overhead_p50_ms": client_p50 - handle_p50,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / plain.wall,
    })
    hits = sum(1 for r in plain.replies if r.cache_hit)
    out.notes.append(
        f"serve-zipf traced: {len(plain.replies)} requests per phase; "
        f"result-cache hit share {hits / max(1, len(plain.replies)):.3f}; "
        f"tracing overhead {overhead:.2f} s on a {plain.wall:.2f} s stream"
    )
    return out, LAYER_UNITS
