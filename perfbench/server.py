"""Server process for ``remote_mixed``: ``ltdb serve`` plus a side door.

    python3 perfbench/server.py --trace 0|1 --ready FILE --dumps DIR -- SERVE-ARGS

Runs the program's own ``serve`` subcommand (``repro.cli.serve_main``)
with ``SERVE-ARGS``.  Once the socket is bound it writes the port to
``--ready``.  On SIGUSR1 it writes ``DIR/dump-<n>.json``: the span
totals recorded since the previous dump (``--trace 1`` installs the
same wrappers as the benchmark process), the summed disk-model
counters of its engines, and its own peak RSS; then it starts a fresh
span window.  SIGTERM stops it cleanly; the benchmark SIGKILLs it to
test recovery.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--dumps", required=True)
    args = parser.parse_args(argv[:split])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.common import model_stats, self_peak_rss_mb
    from perfbench.trace import Recorder, install
    from repro.cli import serve_main

    recorder = None
    if args.trace:
        recorder = Recorder()
        install(recorder)
    served = {}
    numbers = itertools.count()

    def on_ready(server) -> None:
        served["server"] = server
        _write_atomic(args.ready, str(server.address[1]))

    def dump(_signum, _frame) -> None:
        server = served.get("server")
        engines = getattr(getattr(server, "db", None), "engines", [])
        payload = {
            "spans": recorder.snapshot() if recorder is not None else None,
            "disk": model_stats(engine.disk for engine in engines),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        if recorder is not None:
            recorder.reset()
        _write_atomic(os.path.join(args.dumps, f"dump-{next(numbers)}.json"),
                      json.dumps(payload))

    stop = threading.Event()
    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    return serve_main(argv[split + 1:], stop_event=stop, on_ready=on_ready)


if __name__ == "__main__":
    sys.exit(main())
