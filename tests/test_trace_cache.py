"""Content-addressed trace cache (``repro.workload.cache``).

A cache hit must be bit-identical to regeneration (queries, times,
positions — and therefore downstream :class:`RunResult`s), corruption
must degrade to regeneration, and the ``REPRO_TRACE_CACHE`` environment
variable must control location and disablement.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine.runner import run_trace
from repro.grid.dataset import DatasetSpec
from repro.workload import cache as cache_module
from repro.workload.cache import (
    cached_generate_trace,
    trace_cache_dir,
    trace_cache_key,
)
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)
PARAMS = WorkloadParams(n_jobs=8, span=60.0, seed=5)


def assert_traces_identical(a, b):
    """Structural bit-identity (floats compared by repr, arrays by bytes)."""
    assert a.spec == b.spec
    assert len(a.jobs) == len(b.jobs)
    for ja, jb in zip(a.jobs, b.jobs):
        assert ja.job_id == jb.job_id
        assert ja.kind == jb.kind
        assert ja.user_id == jb.user_id
        assert repr(ja.submit_time) == repr(jb.submit_time)
        assert repr(ja.think_time) == repr(jb.think_time)
        assert ja.client_class == jb.client_class
        assert len(ja.queries) == len(jb.queries)
        for qa, qb in zip(ja.queries, jb.queries):
            assert (qa.query_id, qa.job_id, qa.seq, qa.user_id, qa.op) == (
                qb.query_id,
                qb.job_id,
                qb.seq,
                qb.user_id,
                qb.op,
            )
            assert qa.timestep == qb.timestep
            assert qa.positions.dtype == qb.positions.dtype
            assert qa.positions.tobytes() == qb.positions.tobytes()


def cache_files(directory):
    return sorted(p for p in directory.glob("trace-v*.npz"))


# ---------------------------------------------------------------------------
# Hit path: bit-identity with regeneration
# ---------------------------------------------------------------------------
def test_miss_then_hit_is_bit_identical(tmp_path, monkeypatch):
    first = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert len(cache_files(tmp_path)) == 1

    # Any regeneration on the second call would be a bug: detonate it.
    def bomb(*args, **kwargs):
        raise AssertionError("cache miss on what must be a hit")

    monkeypatch.setattr(cache_module, "generate_trace", bomb)
    second = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert_traces_identical(first, second)
    assert_traces_identical(first, generate_trace(SPEC, PARAMS))


def test_cached_trace_produces_identical_run(tmp_path):
    cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)  # warm
    hit = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    fresh = generate_trace(SPEC, PARAMS)
    assert run_trace(hit, "jaws2").to_dict() == run_trace(fresh, "jaws2").to_dict()


def test_speedup_applied_on_both_paths(tmp_path):
    miss = cached_generate_trace(SPEC, PARAMS, speedup=4.0, cache_dir=tmp_path)
    hit = cached_generate_trace(SPEC, PARAMS, speedup=4.0, cache_dir=tmp_path)
    assert_traces_identical(miss, hit)
    assert_traces_identical(miss, generate_trace(SPEC, PARAMS).rescale(4.0))


# ---------------------------------------------------------------------------
# Key sensitivity
# ---------------------------------------------------------------------------
def test_key_depends_on_all_inputs():
    base = trace_cache_key(SPEC, PARAMS, 1.0)
    assert trace_cache_key(SPEC, PARAMS, 1.0) == base  # stable
    assert trace_cache_key(SPEC, dataclasses.replace(PARAMS, seed=6), 1.0) != base
    assert trace_cache_key(SPEC, dataclasses.replace(PARAMS, n_jobs=9), 1.0) != base
    assert trace_cache_key(SPEC, PARAMS, 2.0) != base
    other_spec = DatasetSpec.small(n_timesteps=7, atoms_per_axis=4)
    assert trace_cache_key(other_spec, PARAMS, 1.0) != base


def test_distinct_inputs_get_distinct_files(tmp_path):
    cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    cached_generate_trace(
        SPEC, dataclasses.replace(PARAMS, seed=6), cache_dir=tmp_path
    )
    cached_generate_trace(SPEC, PARAMS, speedup=2.0, cache_dir=tmp_path)
    assert len(cache_files(tmp_path)) == 3


# ---------------------------------------------------------------------------
# Corruption and mismatch safety
# ---------------------------------------------------------------------------
def test_corrupt_entry_regenerates_and_heals(tmp_path):
    cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    (path,) = cache_files(tmp_path)
    path.write_bytes(b"not an npz archive at all")
    recovered = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert_traces_identical(recovered, generate_trace(SPEC, PARAMS))
    # The corrupt file was replaced by a fresh, loadable entry.
    (healed,) = cache_files(tmp_path)
    assert healed == path
    assert cache_module.Trace.load(healed).n_queries == recovered.n_queries


def test_truncated_entry_regenerates(tmp_path):
    cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    (path,) = cache_files(tmp_path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    recovered = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert_traces_identical(recovered, generate_trace(SPEC, PARAMS))


def test_spec_mismatch_regenerates(tmp_path):
    """A stale file under the right name (hash collision, copied cache)
    is detected by the embedded spec and regenerated past."""
    other_spec = DatasetSpec.small(n_timesteps=7, atoms_per_axis=4)
    decoy = generate_trace(other_spec, PARAMS)
    key = trace_cache_key(SPEC, PARAMS, 1.0)
    target = tmp_path / f"trace-v{cache_module._FORMAT_VERSION}-{key}.npz"
    decoy.save(target)
    got = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert got.spec == SPEC
    assert_traces_identical(got, generate_trace(SPEC, PARAMS))


def test_unwritable_cache_degrades_to_regeneration(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the cache dir should be")
    with pytest.warns(RuntimeWarning, match="continuing without caching"):
        trace = cached_generate_trace(SPEC, PARAMS, cache_dir=blocker / "traces")
    assert_traces_identical(trace, generate_trace(SPEC, PARAMS))


def test_replace_failure_warns_and_cleans_up(tmp_path, monkeypatch):
    """A failing os.replace (read-only dir discovered at publish time)
    degrades to uncached generation with a warning — and leaves neither
    the temp file nor a stale entry behind to poison later lookups."""
    real_replace = cache_module.os.replace

    def broken_replace(src, dst):
        raise OSError(30, "Read-only file system", str(dst))

    monkeypatch.setattr(cache_module.os, "replace", broken_replace)
    with pytest.warns(RuntimeWarning, match="continuing without caching"):
        trace = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert_traces_identical(trace, generate_trace(SPEC, PARAMS))
    assert not list(tmp_path.glob(".tmp-*"))
    assert not cache_files(tmp_path)

    # The cache stays usable once the filesystem recovers.
    monkeypatch.setattr(cache_module.os, "replace", real_replace)
    healed = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert_traces_identical(healed, trace)
    assert len(cache_files(tmp_path)) == 1


def test_replace_failure_unlinks_stale_entry(tmp_path, monkeypatch):
    """When a stale unreadable entry occupies the target name AND the
    atomic publish fails, the defensive unlink removes the stale file so
    later lookups regenerate instead of re-reading garbage."""
    key = trace_cache_key(SPEC, PARAMS, 1.0)
    target = tmp_path / f"trace-v{cache_module._FORMAT_VERSION}-{key}.npz"
    target.write_bytes(b"garbage that Trace.load rejects")

    def broken_replace(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr(cache_module.os, "replace", broken_replace)
    with pytest.warns(RuntimeWarning, match="continuing without caching"):
        trace = cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert_traces_identical(trace, generate_trace(SPEC, PARAMS))
    assert not target.exists()
    assert not list(tmp_path.glob(".tmp-*"))


# ---------------------------------------------------------------------------
# Environment control
# ---------------------------------------------------------------------------
def test_env_unset_uses_default_dir(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert trace_cache_dir() is not None
    assert trace_cache_dir().parts[-2:] == (".repro_cache", "traces")


@pytest.mark.parametrize("value", ["off", "OFF", "0", "none", " disabled "])
def test_env_disables_cache(monkeypatch, value):
    monkeypatch.setenv("REPRO_TRACE_CACHE", value)
    assert trace_cache_dir() is None


def test_env_overrides_location(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "elsewhere"))
    assert trace_cache_dir() == tmp_path / "elsewhere"
    cached_generate_trace(SPEC, PARAMS)
    assert len(cache_files(tmp_path / "elsewhere")) == 1


def test_disabled_cache_writes_nothing(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.chdir(tmp_path)
    trace = cached_generate_trace(SPEC, PARAMS)
    assert_traces_identical(trace, generate_trace(SPEC, PARAMS))
    assert not list(tmp_path.rglob("*.npz"))


def test_no_temp_files_left_behind(tmp_path):
    cached_generate_trace(SPEC, PARAMS, cache_dir=tmp_path)
    assert not list(tmp_path.glob(".tmp-*"))
