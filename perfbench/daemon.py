"""Launch ``repro serve`` as the serve-mix daemon process.

    PYTHONPATH=src python3 -u perfbench/daemon.py --result OUT.json \
        [--spans SPANS.json] -- serve --port 0 --cache DIR --workers 2

Runs exactly what ``python -m repro serve ...`` runs. With ``--spans``
it first installs the benchmark's span wrappers, so the traced run sees
the daemon's layers; without it nothing is wrapped. When the daemon has
drained and stopped (SIGTERM), it writes its exit code and peak
resident memory to ``--result``, and the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from spans import SpanRecorder


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:split])

    from repro.cli import main as repro_main

    recorder = None
    if args.spans:
        recorder = SpanRecorder(f"serve-mix-{os.getpid()}")
        recorder.install()
    code = repro_main(argv[split + 1:])
    if recorder is not None:
        recorder.uninstall()
        recorder.dump(args.spans)
    with open(args.result, "w") as handle:
        json.dump({
            "exit": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
