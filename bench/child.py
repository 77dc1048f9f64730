"""Run one evsteer CLI command in this fresh process and report what it cost.

    python3 bench/child.py RESULT.json [--spans SPANS.jsonl] -- <evsteer argv>

Imports happen before the clock starts, so `wall_s` is the time spent in
`evsteer.cli.main(argv)` alone. With `--spans`, the tracer is installed just
before `main` and removed after it; the span list is written to SPANS.jsonl
and its summary goes into RESULT.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1:]
    result_path = own[0]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    from evsteer import cli

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(command)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {"exit": code, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.write(spans_path)
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
