"""Record the golden digests and work counters the benchmark checks.

Usage, from the repository root::

    python3 replaybench/record.py

For every workload and each seed in ``RECORDED_SEEDS`` this replays
once untraced and once under the span ledger, requires the two to
agree, and stores the ``RunResult`` digest, the ``float.hex``
response-time digest and every deterministic counter in
``golden.json``.  It rewrites the whole file.  Re-record only for a change
that is meant to alter simulation results, and say so in its
description: a benchmark run compares every replay against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads

#: Seeds with a record; README.md names the same range.
RECORDED_SEEDS = range(32)


def record(workload: workloads.Workload, seed: int, scratch: str) -> dict:
    replayer = run.Replayer(workload, seed, scratch)
    try:
        untraced = replayer.replay("cold")
        traced = replayer.replay("traced")
    finally:
        replayer.close()
    failures = run.check_replays(workload, [untraced, traced], None)
    if failures:
        raise RuntimeError(f"{workload.name} seed {seed}: {failures}")
    return {
        "result_sha256": traced["digest"],
        "response_times_sha256": traced["response_digest"],
        "counters": traced["counters"],
    }


def main() -> int:
    golden: dict = {"format": 1, "workloads": {}}
    scratch = tempfile.mkdtemp(prefix=".replaybench-", dir=run.ROOT)
    try:
        for name in sorted(workloads.WORKLOADS):
            entries = golden["workloads"][name] = {}
            for seed in RECORDED_SEEDS:
                entries[str(seed)] = record(workloads.WORKLOADS[name], seed, scratch)
                print(f"{name} seed {seed}: {entries[str(seed)]['result_sha256'][:16]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    os.environ["REPRO_TRACE_CACHE"] = "off"
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
