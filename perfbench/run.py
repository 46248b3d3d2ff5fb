"""End-to-end and per-layer benchmark of the ``repro`` reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 0 --seconds 55 --trace 0

Workloads: ``study`` (the paper's figures 5-8 and table 2, then local
search from IAR and from base level) and ``serve`` (a multi-tenant
decision stream against ``repro serve run``).  With
``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer ones
from a separate traced pass.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A run
whose outputs fail a check prints ``"correct": false`` with no metrics
and exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import common

WORKLOADS = ("study", "serve")


class Tally:
    """Operations attempted and failed, kept by the workload as it goes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(common.ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            f"perfbench: no program source at {src}/repro; run from the "
            f"root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    # Library defaults are part of what is measured: no engine override
    # leaks in from the environment (the study selects its engine).
    os.environ.pop("REPRO_ENGINE", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )

    # A terminated run still stops the servers it started: SystemExit
    # unwinds through the code that owns them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import importlib

    module = importlib.import_module(args.workload)
    tally = Tally()
    try:
        metrics = module.run(args.seed, args.seconds, bool(args.trace), tally)
    except common.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": {},
        }))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
