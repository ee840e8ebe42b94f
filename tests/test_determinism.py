"""Determinism regression suite (DESIGN.md §7).

Same trace + same seeds ⇒ bit-identical :class:`RunResult`,
field-for-field, with faults off and on — and independent of
``PYTHONHASHSEED`` (checked in fresh subprocesses), since string
hashing is the one stdlib source of per-process iteration-order
variation the engine could accidentally depend on.  No field is
excluded: a run reads no wall clock, so the whole result is a pure
function of its inputs.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.engine.runner import SCHEDULER_NAMES, run_trace
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def small_trace(seed=0, n_jobs=15):
    return generate_trace(SPEC, WorkloadParams(n_jobs=n_jobs, span=120.0, seed=seed))


def engine(**kwargs):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        **kwargs,
    )


def result_fields(result):
    """``field name -> comparable value`` with the
    ``faults["crash_effective"]`` lifecycle flag stripped (a resumed run
    records that its crash fired; the uninterrupted same-seed run never
    armed one — metadata about the run's lifecycle, not simulation
    output)."""
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = (value.shape, str(value.dtype), value.tobytes())
        elif f.name == "faults":
            out[f.name] = {k: v for k, v in value.items() if k != "crash_effective"}
        else:
            out[f.name] = repr(value)
    return out


def assert_identical(a, b):
    fa, fb = result_fields(a), result_fields(b)
    for name in fa:
        assert fa[name] == fb[name], f"RunResult.{name} differs between same-seed runs"


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_same_seed_runs_identical(name):
    trace = small_trace()
    assert_identical(
        run_trace(trace, name, engine()),
        run_trace(trace, name, engine()),
    )


@pytest.mark.parametrize("name", ["noshare", "liferaft2", "jaws2"])
def test_same_seed_runs_identical_with_faults(name):
    faults = FaultConfig(
        seed=11,
        transient_fault_rate=0.05,
        permanent_loss_rate=0.01,
        slow_read_rate=0.05,
    )
    trace = small_trace()
    assert_identical(
        run_trace(trace, name, engine(faults=faults)),
        run_trace(trace, name, engine(faults=faults)),
    )


def test_trace_generation_deterministic():
    a, b = small_trace(seed=3), small_trace(seed=3)
    assert len(a.jobs) == len(b.jobs)
    for ja, jb in zip(a.jobs, b.jobs):
        assert ja.submit_time == jb.submit_time
        assert [q.query_id for q in ja.queries] == [q.query_id for q in jb.queries]
        for qa, qb in zip(ja.queries, jb.queries):
            assert np.array_equal(qa.positions, qb.positions)


# ---------------------------------------------------------------------------
# PYTHONHASHSEED independence (fresh interpreters)
# ---------------------------------------------------------------------------
_DIGEST_SCRIPT = textwrap.dedent(
    """
    import dataclasses, hashlib, sys
    import numpy as np
    from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
    from repro.engine.runner import run_trace
    from repro.grid.dataset import DatasetSpec
    from repro.workload.generator import WorkloadParams, generate_trace

    spec = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
    trace = generate_trace(spec, WorkloadParams(n_jobs=12, span=90.0, seed=2))
    eng = EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        run_length=10,
        faults=FaultConfig(seed=4, transient_fault_rate=0.03),
    )
    result = run_trace(trace, "jaws2", eng)
    h = hashlib.sha256()
    for f in sorted(dataclasses.fields(result), key=lambda f: f.name):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            h.update(f.name.encode())
            h.update(value.tobytes())
        else:
            h.update((f.name + repr(value)).encode())
    sys.stdout.write(h.hexdigest())
    """
)


def _run_digest(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src_dir + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_results_independent_of_hash_seed():
    digests = {seed: _run_digest(seed) for seed in ("0", "1", "12345")}
    assert len(set(digests.values())) == 1, (
        "RunResult digest varies with PYTHONHASHSEED: " + repr(digests)
    )
