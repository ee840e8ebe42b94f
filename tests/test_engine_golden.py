"""Golden oracle for the simulation engine: bit-identical decisions.

``tests/data/engine_golden.json`` pins, for 5 schedulers × {clean,
faults}, three SHA-256 digests of one small sanitizer-armed run:

* ``decisions`` — every non-empty scheduling decision in order, one
  ``idx|now.hex|atom:count,...`` line each (node index, decision clock
  as ``float.hex``, drained atom ids with their sub-query counts).
  Empty decisions carry no work; their count is an artifact of the
  idle-loop shape, so they are not hashed.
* ``response_times`` — the per-query response times as ``float.hex``,
  so even sign-of-zero differences (invisible to ``==``) show.
* ``result`` — :func:`~repro.fuzz.oracles.normalize_result` as
  canonical JSON (the ``crash_effective`` lifecycle flag dropped,
  injector counters zero-filled).

A refactor of the engine, the schedulers, the executor or the storage
layer must reproduce the file byte for byte.  Re-record it only for a
change that is meant to alter simulation results::

    PYTHONPATH=src python -m tests.test_engine_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, Optional

import pytest

from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.core.base import Batch
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.fuzz.oracles import normalize_result
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
SCHEDULERS = ("noshare", "liferaft1", "liferaft2", "jaws1", "jaws2")
MIXES = ("clean", "faults")


def engine_config(faulted: bool) -> EngineConfig:
    """Sanitizer armed: the digests must hold with invariant checks on.

    The fault mix has transient errors, permanent losses (which cancel
    queries) and slow reads.
    """
    faults = (
        FaultConfig(
            seed=3,
            transient_fault_rate=0.05,
            permanent_loss_rate=0.002,
            slow_read_rate=0.1,
            slow_read_factor=4.0,
        )
        if faulted
        else FaultConfig()
    )
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        sanitize=True,
        faults=faults,
    )


@functools.lru_cache(maxsize=1)
def _trace():
    return generate_trace(SPEC, WorkloadParams(n_jobs=15, span=120.0, seed=11))


def hash_decisions(sim: Simulator) -> "hashlib._Hash":
    """Wrap every node scheduler's ``next_batch`` to hash the decision
    sequence; returns the live digest object."""
    digest = hashlib.sha256()
    for idx, node in enumerate(sim.nodes):
        scheduler = node.scheduler
        inner = scheduler.next_batch

        def wrapper(
            now: float,
            _inner: Callable[[float], Optional[Batch]] = inner,
            _idx: int = idx,
        ) -> Optional[Batch]:
            batch = _inner(now)
            if batch is not None and batch.n_atoms != 0:
                atoms = ",".join(f"{a}:{len(subs)}" for a, subs in batch.atoms)
                digest.update(f"{_idx}|{now.hex()}|{atoms}\n".encode())
            return batch

        setattr(scheduler, "next_batch", wrapper)
    return digest


@functools.lru_cache(maxsize=None)
def run_cell(mix: str, name: str) -> dict[str, str]:
    trace = _trace()
    config = engine_config(mix == "faults")
    sim = Simulator(trace, [make_scheduler(name, trace, config)], config)
    decisions = hash_decisions(sim)
    result = sim.run()
    response_hex = ",".join(float(t).hex() for t in result.response_times)
    canonical = json.dumps(normalize_result(result), sort_keys=True, default=repr)
    return {
        "decisions": decisions.hexdigest(),
        "response_times": hashlib.sha256(response_hex.encode()).hexdigest(),
        "result": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def render_golden() -> str:
    cells = {f"{mix}/{name}": run_cell(mix, name) for mix in MIXES for name in SCHEDULERS}
    return json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", SCHEDULERS)
@pytest.mark.parametrize("mix", MIXES)
def test_matrix_cell_matches_golden(mix, name):
    golden = json.loads(GOLDEN_PATH.read_text())["cells"][f"{mix}/{name}"]
    assert run_cell(mix, name) == golden


def test_golden_file_reproduced_byte_for_byte():
    assert render_golden() == GOLDEN_PATH.read_text()


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render_golden())
    print(f"wrote {GOLDEN_PATH}")
