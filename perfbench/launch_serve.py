"""Run ``repro serve`` with the benchmark's outside-in tracer installed.

::

    python3 perfbench/launch_serve.py SPANS_JSON serve --scale 1.0 --port 0

Installs :func:`perfbench.tracer.install` in this process, then hands
the remaining arguments to the ``repro`` command line exactly as
``python -m repro`` would.  When the server exits (SIGINT drains it),
the recorded spans are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spans_out = Path(sys.argv[1])
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.tracer import Tracer, install
    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
