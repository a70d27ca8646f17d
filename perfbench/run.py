"""The benchmark's one command.

::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Runs one workload (``paper-cold``, ``serve-zipf`` or ``ingest-mixed``)
from the root of a source checkout, checks its answers, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics with no
tracing installed; ``--trace 1`` runs the workload's fixed traced phase
and reports the per-layer metrics.  The exit status is 0 only when every
correctness check passed.  Workloads, metrics and the layer-to-metric
map are documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Workload name -> module under ``perfbench``.
WORKLOADS = {
    "paper-cold": "paper_cold",
    "serve-zipf": "serve_zipf",
    "ingest-mixed": "ingest_mixed",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # A process started in the background inherits SIGINT ignored, and so
    # would the servers it starts, which drain and exit on SIGINT.  A
    # handled signal is reset to its default in a started program.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    common = importlib.import_module("perfbench.common")
    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    work = common.work_dir(ROOT, args.workload)
    try:
        outcome, units = workload.run(
            args.seed, args.seconds, bool(args.trace), ROOT, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = outcome.result(units)
    notes = list(outcome.notes)
    if outcome.phases:
        notes.append(f"phases: {', '.join(outcome.phases)}")
    for line in notes + [f"check failed: {c}" for c in outcome.check_failures]:
        print(f"# {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
