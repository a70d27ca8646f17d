# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""Shard-count scaling sweep for the ``repro.index.sharded`` subsystem.

Builds one synthetic corpus, then for each shard count measures:

- **build**: partition + index + global-stats time,
- **save / load**: persistence round-trip (load is the O(read) path a
  production process start pays instead of O(re-index)),
- **search p50/p95**: the raw scatter-gather disjunctive probe,
- **probe p50/p95**: the full ``two_stage_probe`` (retrieval + confidence
  + stage 2) — the latency the serving layer actually sees,

and emits a machine-readable ``BENCH_shard_scaling.json`` so every PR
records a perf datapoint (CI runs ``--smoke`` and uploads the artifact).

``--tables N`` switches the corpus source from the HTML extraction
pipeline to :func:`~repro.corpus.generator.iter_synthetic_tables` and
adds a **format sweep** per shard count: the corpus is streamed to disk
(``build_corpus_stream``, O(shard) memory), persisted in both the v2
JSON and v3 binary layouts, and the sweep records save/load wall-clock
for each, the v3 lazy-open + first-probe cost, and — the correctness
gate — whether the 59-query workload ranks **bit-identically** across
the two formats.  This is the 10^5-table datapoint ROADMAP item 2 asks
for; the v3 ``load_ratio_json_over_bin`` is the headline win.

Run standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        --scale 1.0 --shards 1 2 4 8 --out results/BENCH_shard_scaling.json
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        --tables 100000 --shards 1 4 16
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.corpus.generator import (  # noqa: E402
    CorpusConfig,
    generate_corpus,
    iter_synthetic_tables,
)
from repro.index import (  # noqa: E402
    build_corpus_index,
    build_corpus_stream,
    load_corpus,
)
from repro.pipeline.probe import ProbeConfig, two_stage_probe  # noqa: E402
from repro.query.workload import WORKLOAD  # noqa: E402


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def build_one(tables, num_shards):
    """Build, persist, and reload one shard count.

    Returns ``(loaded_corpus, partial_metrics_row)``.
    """
    t0 = time.perf_counter()
    corpus = build_corpus_index(tables, num_shards=num_shards)
    build_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="bench_shards_") as tmp:
        path = Path(tmp) / f"corpus-{num_shards}"
        t0 = time.perf_counter()
        corpus.save(path)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = load_corpus(path)
        load_s = time.perf_counter() - t0
        size_bytes = sum(
            f.stat().st_size for f in path.rglob("*") if f.is_file()
        )

    return loaded, {
        "num_shards": num_shards,
        "build_s": round(build_s, 4),
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "size_kib": round(size_bytes / 1024.0, 1),
    }


def build_format_pair(args, num_shards, workdir, rank_queries):
    """Stream one corpus to disk and compare the v2/v3 persistence paths.

    Builds once (streamed, v3), then re-persists the loaded corpus as v2
    JSON so both formats hold the *same* index, and measures each side's
    save/load/first-probe wall-clock plus the 59-query ranking identity.
    Returns ``(v3_loaded_corpus, metrics_row)``.
    """
    bin_dir = workdir / f"bin-{num_shards}"
    json_dir = workdir / f"json-{num_shards}"

    t0 = time.perf_counter()
    build_corpus_stream(
        iter_synthetic_tables(args.tables, seed=args.seed),
        bin_dir, num_shards=num_shards, index_format="bin",
    )
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    corpus_bin = load_corpus(bin_dir, mutable=False)
    load_bin_s = time.perf_counter() - t0
    first_tokens = rank_queries[0].all_tokens()
    t0 = time.perf_counter()
    corpus_bin.search(first_tokens, limit=60)
    first_probe_bin_ms = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    corpus_bin.save(json_dir, index_format="json")
    save_json_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    corpus_json = load_corpus(json_dir, mutable=False)
    load_json_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    corpus_json.search(first_tokens, limit=60)
    first_probe_json_ms = (time.perf_counter() - t0) * 1000.0

    rankings_match = True
    for query in rank_queries:
        tokens = query.all_tokens()
        got_bin = [
            (h.doc_id, h.score) for h in corpus_bin.search(tokens, limit=60)
        ]
        got_json = [
            (h.doc_id, h.score) for h in corpus_json.search(tokens, limit=60)
        ]
        if got_bin != got_json:
            rankings_match = False
            print(f"  RANKING MISMATCH shards={num_shards} "
                  f"query={query.keywords}", file=sys.stderr)

    def dir_kib(path):
        total = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        return round(total / 1024.0, 1)

    return corpus_bin, {
        "num_shards": num_shards,
        "build_s": round(build_s, 4),
        "save_json_s": round(save_json_s, 4),
        "load_bin_s": round(load_bin_s, 6),
        "load_json_s": round(load_json_s, 4),
        "load_ratio_json_over_bin": round(
            load_json_s / max(load_bin_s, 1e-9), 1
        ),
        "first_probe_bin_ms": round(first_probe_bin_ms, 3),
        "first_probe_json_ms": round(first_probe_json_ms, 3),
        "size_bin_kib": dir_kib(bin_dir),
        "size_json_kib": dir_kib(json_dir),
        "rankings_match_json": rankings_match,
    }


def probe_all(corpora, queries, reps):
    """Measure probe latency for every corpus, interleaved.

    Each (rep, query) visits all shard counts back-to-back, so transient
    machine load lands on every backend equally instead of skewing the one
    sweep point that happened to run during it.  Per-query aggregation is
    the minimum across reps — probes here are ~ms-scale, where scheduler
    jitter would otherwise dominate the shard-count comparison — followed
    by percentiles across queries.
    """
    search_by = {k: [[] for _ in queries] for k in corpora}
    probe_by = {k: [[] for _ in queries] for k in corpora}
    config = ProbeConfig(seed=0)
    for _ in range(reps):
        for qi, query in enumerate(queries):
            tokens = query.all_tokens()
            for k, loaded in corpora.items():
                t0 = time.perf_counter()
                loaded.search(tokens, limit=60)
                search_by[k][qi].append((time.perf_counter() - t0) * 1000.0)
                t0 = time.perf_counter()
                two_stage_probe(query, loaded, config)
                probe_by[k][qi].append((time.perf_counter() - t0) * 1000.0)

    out = {}
    for k in corpora:
        search_ms = [min(samples) for samples in search_by[k]]
        probe_ms = [min(samples) for samples in probe_by[k]]
        out[k] = {
            "search_p50_ms": round(percentile(search_ms, 0.50), 4),
            "search_p95_ms": round(percentile(search_ms, 0.95), 4),
            "search_mean_ms": round(statistics.mean(search_ms), 4),
            "probe_p50_ms": round(percentile(probe_ms, 0.50), 4),
            "probe_p95_ms": round(percentile(probe_ms, 0.95), 4),
            "probe_mean_ms": round(statistics.mean(probe_ms), 4),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale factor (default 1.0)")
    parser.add_argument("--tables", type=int, default=None,
                        help="use iter_synthetic_tables at this table count "
                             "(streamed v3 build) and add the v2-vs-v3 "
                             "format sweep; overrides --scale")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, nargs="+", default=None,
                        help="shard counts to sweep (default: 1 2 4 8)")
    parser.add_argument("--queries", type=int, default=None,
                        help="workload queries to probe (default: all 59)")
    parser.add_argument("--reps", type=int, default=None,
                        help="probe repetitions per query (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep for CI; fills any unset "
                             "option with scale 0.15, shards 1 2 4, "
                             "16 queries, 5 reps")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when multi-shard probe p50 "
                             "exceeds 1.2x single-shard (off by default: "
                             "wall-clock ratios are jittery on shared CI "
                             "runners, so the ratio is recorded, not gated)")
    parser.add_argument("--out", metavar="PATH",
                        default=str(REPO_ROOT / "results"
                                    / "BENCH_shard_scaling.json"))
    args = parser.parse_args(argv)

    # --smoke only fills options the user left unset.  The --tables mode
    # caps latency-probe queries at 12 by default (two_stage_probe at 10^5
    # tables is seconds-scale); the ranking-identity check always runs the
    # full workload regardless.
    smoke_defaults = (0.15, [1, 2, 4], 16, 5)
    full_defaults = (1.0, [1, 2, 4, 8], None, 3)
    tables_defaults = (None, [1, 4, 16], 12, 2)
    if args.tables is not None:
        defaults = tables_defaults
    elif args.smoke:
        defaults = smoke_defaults
    else:
        defaults = full_defaults
    for name, value in zip(("scale", "shards", "queries", "reps"), defaults):
        if getattr(args, name) is None:
            setattr(args, name, value)

    queries = [wq.query for wq in WORKLOAD[: args.queries]]
    corpora, results = {}, []
    if args.tables is not None:
        rank_queries = [wq.query for wq in WORKLOAD]
        print(f"format sweep: {args.tables} synthetic tables "
              f"(seed={args.seed}), shards {args.shards}; ranking identity "
              f"over {len(rank_queries)} queries", flush=True)
        with tempfile.TemporaryDirectory(prefix="bench_binfmt_") as tmp:
            for k in args.shards:
                corpora[k], row = build_format_pair(
                    args, k, Path(tmp), rank_queries
                )
                results.append(row)
                print(f"  shards={k}: build {row['build_s']:.1f}s "
                      f"save-json {row['save_json_s']:.1f}s "
                      f"load bin {row['load_bin_s'] * 1000:.1f}ms "
                      f"vs json {row['load_json_s']:.1f}s "
                      f"({row['load_ratio_json_over_bin']:.0f}x) "
                      f"first probe {row['first_probe_bin_ms']:.0f}ms "
                      f"match={row['rankings_match_json']}", flush=True)
            latencies = probe_all(corpora, queries, args.reps)
        if not all(r["rankings_match_json"] for r in results):
            print("ERROR: v3 rankings diverge from v2", file=sys.stderr)
            return 1
    else:
        print(f"generating corpus (scale={args.scale}, seed={args.seed})...",
              flush=True)
        t0 = time.perf_counter()
        synthetic = generate_corpus(
            CorpusConfig(seed=args.seed, scale=args.scale)
        )
        tables = list(synthetic.corpus.store)
        generate_s = time.perf_counter() - t0
        print(f"  {len(tables)} tables in {generate_s:.1f}s; "
              f"probing {len(queries)} queries x {args.reps} reps",
              flush=True)
        for k in args.shards:
            corpora[k], row = build_one(tables, k)
            results.append(row)
        latencies = probe_all(corpora, queries, args.reps)
    for row in results:
        row.update(latencies[row["num_shards"]])
        if args.tables is None:
            print(f"  shards={row['num_shards']}: "
                  f"build {row['build_s']:.2f}s "
                  f"load {row['load_s']:.2f}s "
                  f"search p50 {row['search_p50_ms']:.2f}ms "
                  f"probe p50 {row['probe_p50_ms']:.1f}ms "
                  f"p95 {row['probe_p95_ms']:.1f}ms", flush=True)

    # Baseline is the 1-shard row when swept, else the smallest shard count
    # — named explicitly in the output so the ratio is never mislabeled.
    baseline = min(results, key=lambda r: r["num_shards"])
    for row in results:
        row["probe_p50_vs_baseline"] = round(
            row["probe_p50_ms"] / max(baseline["probe_p50_ms"], 1e-9), 3
        )

    report = {
        "benchmark": "shard_scaling",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": {
            "scale": args.scale,
            "seed": args.seed,
            "num_tables": (
                args.tables if args.tables is not None else len(tables)
            ),
            "corpus_source": (
                "iter_synthetic_tables" if args.tables is not None
                else "generate_corpus"
            ),
            "index_format": (
                "bin-vs-json" if args.tables is not None else "bin"
            ),
            "num_queries": len(queries),
            "reps": args.reps,
            "smoke": args.smoke,
            "baseline_num_shards": baseline["num_shards"],
        },
        "results": results,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"wrote {out}")

    worst = max(r["probe_p50_vs_baseline"] for r in results)
    label = f"{baseline['num_shards']}-shard baseline"
    print(f"worst probe p50 vs {label}: {worst:.2f}x")
    if worst > 1.2:
        print(f"WARNING: probe latency exceeds 1.2x the {label}",
              file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
