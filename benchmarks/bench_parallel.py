# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock serve/cold-open latency by design; results are reports, not ranked answers
"""Serve-mode and lazy-store benchmark: thread vs async serving, lazy opens.

Measures two surfaces and what each one promises:

- **serve modes**: ``execution_mode="thread"`` vs ``"async"`` under
  closed-loop load on one shared corpus.  Runs alternate
  thread, async, async, thread (``--repeats`` such blocks) so neither
  mode always runs on a warmer process; the median qps of each mode is
  reported.  Every run also answers the workload sequentially, and the
  answer payloads must be byte-identical across all runs (diffs fatal
  under ``--strict``).
- **lazy store**: cold time-to-first-table of an eager
  ``TableStore.load`` (parses every row) vs ``LazyTableStore.open``
  (offset sidecar + one row parse) at 10^5 tables.

Emits machine-readable ``BENCH_parallel.json``; CI runs
``--smoke --strict`` and uploads the artifact.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --scale 1.0 --concurrency 2 --repeats 2 \
        --out results/BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.corpus.generator import CorpusConfig, generate_corpus  # noqa: E402
from repro.index.store import (  # noqa: E402
    LazyTableStore,
    TableStore,
    write_offsets_sidecar,
)
from repro.query.workload import WORKLOAD  # noqa: E402
from repro.serve import ReproServer, ServeClient, ServeConfig  # noqa: E402
from repro.service import WWTService  # noqa: E402
from repro.tables.table import WebTable  # noqa: E402

#: One block of serve runs; the reversed half cancels order effects.
SERVE_ORDER = ("thread", "async", "async", "thread")


def run_closed_loop(server, queries, concurrency, requests_per_client):
    """Closed-loop load against a live server; returns (qps, errors)."""
    results = []
    lock = threading.Lock()

    def client_loop(worker_id):
        rows = []
        with ServeClient(
            server.host, server.port, timeout_s=60.0,
            client_id=f"load-{worker_id}",
        ) as client:
            for i in range(requests_per_client):
                query = queries[(worker_id + i) % len(queries)]
                try:
                    status, _, _ = client.query(
                        {"query": str(query), "use_cache": False}
                    )
                except OSError:
                    status = -1
                rows.append(status)
        with lock:
            results.extend(rows)

    threads = [
        threading.Thread(target=client_loop, args=(worker_id,))
        for worker_id in range(concurrency)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - t0
    answered = sum(1 for s in results if s == 200)
    errors = sum(1 for s in results if s != 200)
    return {
        "requests": len(results),
        "answered_2xx": answered,
        "errors": errors,
        "elapsed_s": round(elapsed_s, 3),
        "qps": round(answered / elapsed_s, 2) if elapsed_s else None,
    }


def serve_once(corpus, mode, queries, concurrency, requests_per_client):
    """One server run: sequential answer payloads, then closed-loop qps."""
    service = WWTService(corpus)
    config = ServeConfig(
        port=0, workers=4, queue_depth=64, execution_mode=mode
    )
    with ReproServer(service, config) as server:
        answers = []
        with ServeClient(server.host, server.port) as client:
            for query in queries:
                status, _, body = client.query(
                    {"query": str(query), "use_cache": False}
                )
                answers.append(
                    json.dumps(body["answer"], sort_keys=True)
                    if status == 200 else f"status={status}"
                )
        row = run_closed_loop(
            server, queries, concurrency, requests_per_client
        )
    return answers, row


def bench_serve_modes(corpus, queries, concurrency, requests_per_client,
                      blocks):
    """thread vs async serving: median throughput + answer byte-identity."""
    runs = {"thread": [], "async": []}
    reference = None
    diffs = 0
    for mode in SERVE_ORDER * blocks:
        answers, row = serve_once(
            corpus, mode, queries, concurrency, requests_per_client
        )
        if reference is None:
            reference = answers
        diffs += sum(1 for a, b in zip(reference, answers) if a != b)
        runs[mode].append(row)
        print(f"  {mode:>6}: {row['qps']:>7.1f} qps "
              f"({row['answered_2xx']}/{row['requests']} answered, "
              f"{row['errors']} errors)", flush=True)
    medians = {
        mode: statistics.median(row["qps"] or 0.0 for row in rows)
        for mode, rows in runs.items()
    }
    for mode, qps in medians.items():
        print(f"  {mode:>6} median: {qps:.1f} qps over "
              f"{len(runs[mode])} runs", flush=True)
    return {
        "order": list(SERVE_ORDER * blocks),
        "thread": {
            "median_qps": round(medians["thread"], 2),
            "runs": runs["thread"],
        },
        "async": {
            "median_qps": round(medians["async"], 2),
            "runs": runs["async"],
        },
        "async_vs_thread_qps": (
            round(medians["async"] / medians["thread"], 3)
            if medians["thread"] else None
        ),
        "answer_diffs": diffs,
        "errors": {
            mode: sum(row["errors"] for row in rows)
            for mode, rows in runs.items()
        },
    }


def bench_lazy_cold(num_tables, repeats):
    """Cold time-to-first-table: eager full parse vs lazy offset open."""
    with tempfile.TemporaryDirectory(prefix="bench-lazy-") as tmp:
        path = Path(tmp) / "tables.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for i in range(num_tables):
                table = WebTable.from_rows(
                    [[f"value {i}", str(i), f"note {i % 97}"]],
                    header=["name", "rank", "note"],
                    table_id=f"t{i}",
                )
                fh.write(json.dumps(table.to_dict(), ensure_ascii=False))
                fh.write("\n")
        write_offsets_sidecar(path)
        ids = [f"t{i}" for i in range(num_tables)]
        first = ids[num_tables // 2]

        eager_ms, lazy_ms = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            store = TableStore.load(path)
            store.get(first)
            eager_ms.append((time.perf_counter() - t0) * 1000.0)

            t0 = time.perf_counter()
            lazy = LazyTableStore.open(path, ids)
            lazy.get(first)
            lazy_ms.append((time.perf_counter() - t0) * 1000.0)
            lazy.close()

    row = {
        "num_tables": num_tables,
        "eager_first_probe_ms": round(min(eager_ms), 3),
        "lazy_first_probe_ms": round(min(lazy_ms), 3),
        "speedup": round(min(eager_ms) / min(lazy_ms), 2),
    }
    print(f"  {num_tables} tables: eager {row['eager_first_probe_ms']:.1f}ms"
          f" vs lazy {row['lazy_first_probe_ms']:.2f}ms "
          f"({row['speedup']}x)", flush=True)
    return row


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale (default 0.3)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--queries", type=int, default=None,
                        help="workload queries (default: all 59)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of repeats for the lazy open, and "
                             "thread/async/async/thread blocks for the "
                             "serve sweep (default 3)")
    parser.add_argument("--lazy-tables", type=int, default=None,
                        help="table count for the lazy-open comparison "
                             "(default 100000)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="closed-loop clients for the serve sweep "
                             "(default 4)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per closed-loop client (default 6)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI; fills any unset "
                             "option with scale 0.05, 8 queries, "
                             "2 repeats, 2000 lazy tables")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on any thread-vs-async answer "
                             "diff or serve error (throughput is "
                             "recorded, never gated)")
    parser.add_argument("--out", metavar="PATH",
                        default=str(REPO_ROOT / "results"
                                    / "BENCH_parallel.json"))
    args = parser.parse_args(argv)

    # --smoke only fills options the user left unset.
    smoke_defaults = (0.05, 8, 2, 2000, 2, 3)
    full_defaults = (0.3, len(WORKLOAD), 3, 100_000, 4, 6)
    for name, value in zip(
        ("scale", "queries", "repeats", "lazy_tables", "concurrency",
         "requests"),
        smoke_defaults if args.smoke else full_defaults,
    ):
        if getattr(args, name) is None:
            setattr(args, name, value)

    queries = [wq.query for wq in WORKLOAD[: args.queries]]
    t0 = time.perf_counter()
    corpus = generate_corpus(
        CorpusConfig(seed=args.seed, scale=args.scale)
    ).corpus
    print(f"serve-mode benchmark: scale={args.scale} "
          f"({corpus.num_tables} tables, "
          f"{time.perf_counter() - t0:.1f}s to build), "
          f"{len(queries)} queries, cpu_count={os.cpu_count()}",
          flush=True)

    print("serve modes (closed-loop, caches off):", flush=True)
    serve = bench_serve_modes(
        corpus, queries, args.concurrency, args.requests, args.repeats
    )
    print(f"  answer identity: {serve['answer_diffs']} diffs over "
          f"{len(queries)} queries x {len(serve['order'])} runs",
          flush=True)

    print("lazy table store (cold time-to-first-table):", flush=True)
    lazy = bench_lazy_cold(args.lazy_tables, max(2, args.repeats))

    failures = []
    if serve["answer_diffs"]:
        failures.append(
            f"{serve['answer_diffs']} thread-vs-async answer diffs"
        )
    for mode, errors in serve["errors"].items():
        if errors:
            failures.append(f"{errors} serve errors in {mode} mode")

    report = {
        "benchmark": "parallel",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "seed": args.seed,
            "scale": args.scale,
            "num_queries": len(queries),
            "repeats": args.repeats,
            "lazy_tables": args.lazy_tables,
            "concurrency": args.concurrency,
            "requests_per_client": args.requests,
            "smoke": args.smoke,
        },
        "serve_modes": serve,
        "lazy_store": lazy,
        "failures": failures,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"WARNING: {failure}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
