"""Regenerate ``perfbench/digests.json``: the pinned outputs of the
default seed, computed on the reference engine, never on the engine
under test.

    python3 perfbench/make_digests.py

Run it only when a change is meant to alter the program's outputs, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
import search  # noqa: E402
import serve  # noqa: E402
import study  # noqa: E402


def main() -> int:
    from repro.core.engine import set_default_engine

    set_default_engine("reference")
    seed = common.DEFAULT_SEED
    suite, projected = study.setup(seed)
    rows, _, failed = study.study(suite)
    if failed:
        raise SystemExit("reference study failed")
    search_rows, _ = search.search(projected)
    log = b"".join(serve.reference_log(serve.make_events(seed)))
    digests = {
        "seed": seed,
        "study": {"rows_sha256": common.sha256(common.canonical(study.stripped(rows)))},
        "search": {
            "rows_sha256": common.sha256(
                common.canonical(search.digest_rows(search_rows))),
            "final_makespans": [row[4] for row in search_rows],
        },
        "serve": {"log_sha256": common.sha256(log), "decisions": log.count(b"\n")},
    }
    with open(common.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
