"""``repro serve run`` under the span recorder (the traced ``serve`` mode).

Usage::

    python3 perfbench/traced_server.py TRACE.jsonl serve run [ARGS...]

Wraps the decision engine, the telemetry hooks and the server session
(see ``layers.install_service``), runs the ordinary CLI entry point
with the remaining arguments, and when the server stops writes the spans
to ``TRACE.jsonl`` and the per-layer totals to ``TRACE.jsonl.summary.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from tracer import Recorder  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    rec = Recorder()
    layers.install_service(rec)
    try:
        code = cli.main(argv)
    finally:
        rec.uninstall()
    rec.write(trace_file)
    summary = {
        "self_s": rec.self_times(),
        "observe_calls": rec.calls("service.state.observe"),
        "observe_s": rec.inclusive("service.state.observe"),
        "spans": len(rec.spans),
    }
    with open(trace_file + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
