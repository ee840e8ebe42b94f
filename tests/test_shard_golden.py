"""Golden oracle for sharded execution: bit-identical cluster results.

``tests/data/shard_golden.json`` pins, for N in {2, 4} shards ×
{clean, faults, faults plus a shard crash} × 5 schedulers, three SHA-256
digests of one small 4-node sharded run:

* ``response_times`` — the merged per-query response times as
  ``float.hex``, so even sign-of-zero differences (invisible to ``==``)
  show;
* ``result`` — :func:`~repro.fuzz.oracles.normalize_result` as canonical
  JSON (the ``crash_effective`` lifecycle flag dropped, injector
  counters zero-filled);
* ``shard_stats`` — the control plane's accounting (conservation
  counters, lease epochs, operators, per-shard event indices, message
  and retry counts) as canonical JSON.

The fault mix fires transient disk errors, permanent losses, a node
crash with replica failover and, in the ``shard_crash`` cells, a shard
crash-stop with lease failover.  A refactor of the shard coordinator,
the control plane or the engine beneath them must reproduce the file
byte for byte.  Re-record it only for a change that is meant to alter
sharded results::

    PYTHONPATH=src python -m tests.test_shard_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.cluster import run_cluster
from repro.config import FaultConfig, ShardConfig
from repro.fuzz.oracles import normalize_result
from repro.workload.generator import WorkloadParams, generate_trace
from tests.test_shard import SPEC, engine

GOLDEN_PATH = Path(__file__).parent / "data" / "shard_golden.json"

N_NODES = 4
SHARD_COUNTS = (2, 4)
SCHEDULERS = ("noshare", "liferaft1", "liferaft2", "jaws1", "jaws2")
MIXES = ("clean", "faults", "shard_crash")

FAULTS = FaultConfig(
    seed=11,
    transient_fault_rate=0.05,
    permanent_loss_rate=0.002,
    node_crashes=((1, 30.0, 60.0),),
    replication=2,
)


@functools.lru_cache(maxsize=1)
def _trace():
    return generate_trace(SPEC, WorkloadParams(n_jobs=20, span=150.0, seed=1))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def run_cell(n_shards: int, mix: str, name: str) -> dict[str, str]:
    crashes = ((1, 40.0),) if mix == "shard_crash" else ()
    out = run_cluster(
        _trace(),
        name,
        N_NODES,
        shards=ShardConfig(n_shards=n_shards, crashes=crashes),
        engine=engine(faults=FAULTS) if mix != "clean" else engine(),
    )
    response_hex = ",".join(float(t).hex() for t in out.result.response_times)
    return {
        "response_times": _digest(response_hex),
        "result": _digest(
            json.dumps(normalize_result(out.result), sort_keys=True, default=repr)
        ),
        "shard_stats": _digest(json.dumps(out.shard_stats, sort_keys=True, default=repr)),
    }


def _cells() -> list[tuple[int, str, str]]:
    return [(n, mix, name) for n in SHARD_COUNTS for mix in MIXES for name in SCHEDULERS]


def render_golden() -> str:
    cells = {f"n{n}/{mix}/{name}": run_cell(n, mix, name) for n, mix, name in _cells()}
    return json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n_shards, mix, name", _cells())
def test_matrix_cell_matches_golden(n_shards, mix, name):
    golden = json.loads(GOLDEN_PATH.read_text())["cells"][f"n{n_shards}/{mix}/{name}"]
    assert run_cell(n_shards, mix, name) == golden


def test_golden_file_reproduced_byte_for_byte():
    assert render_golden() == GOLDEN_PATH.read_text()


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render_golden())
    print(f"wrote {GOLDEN_PATH}")
