"""Crash-consistent checkpointing and deterministic recovery (DESIGN.md §8).

The contract under test: for any coordinator-crash point, crashing and
resuming via ``Simulator.restore`` yields a :class:`RunResult`
bit-identical to the uninterrupted same-seed run — and recovery REFUSES
(:class:`RecoveryError`) whenever a snapshot or WAL cannot be trusted
(version mismatch, corruption, truncation, replay divergence).

The broad randomized sweep lives in ``tests/test_recovery_soak.py``
(slow-marked, run by the CI chaos-soak job); this file covers the
mechanism and every refusal path.
"""

import dataclasses
import json
import struct

import pytest

from repro.cluster.cluster import run_cluster
from repro.config import CheckpointConfig, FaultConfig
from repro.engine.runner import make_scheduler
from repro.engine.simulator import Simulator
from repro.errors import CoordinatorCrash, RecoveryError, SimulationError
from repro.recovery.codec import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    decode_snapshot,
    encode_snapshot,
)
from repro.recovery.wal import WalRecord, format_record, read_wal

from tests.test_determinism import assert_identical, engine, small_trace

FAULTS = FaultConfig(
    seed=11,
    transient_fault_rate=0.05,
    permanent_loss_rate=0.01,
    slow_read_rate=0.05,
)


def build_sim(trace, name, *, checkpoint=None, crash_at=None, sanitize=True):
    faults = dataclasses.replace(FAULTS, coordinator_crash_at=crash_at)
    cfg = engine(
        faults=faults,
        checkpoint=checkpoint or CheckpointConfig(),
        sanitize=sanitize,
    )
    return Simulator(trace, [make_scheduler(name, trace, cfg)], cfg)


def crash_and_leave_artifacts(tmp_path, trace, name, crash_at, every_events=20):
    """Run to the injected crash; returns the checkpoint directory."""
    ckpt_dir = tmp_path / f"ckpt-{name}-{crash_at}"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=every_events)
    sim = build_sim(trace, name, checkpoint=checkpoint, crash_at=crash_at)
    with pytest.raises(CoordinatorCrash):
        sim.run()
    return ckpt_dir


# ---------------------------------------------------------------------------
# Crash + restore = bit-identical
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("crash_at", [1, 5, 37, 120])
def test_crash_restore_bit_identical(tmp_path, crash_at):
    trace = small_trace()
    baseline = build_sim(trace, "jaws2").run()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at)
    resumed = Simulator.restore(ckpt_dir).run()
    assert_identical(baseline, resumed)


@pytest.mark.parametrize("name", ["noshare", "liferaft1", "liferaft2"])
def test_crash_restore_other_schedulers(tmp_path, name):
    trace = small_trace()
    baseline = build_sim(trace, name).run()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, name, crash_at=60)
    assert_identical(baseline, Simulator.restore(ckpt_dir).run())


def test_crash_restore_cluster(tmp_path):
    trace = small_trace()
    faults = dataclasses.replace(FAULTS, replication=2)
    baseline = run_cluster(trace, "jaws2", 2, engine=engine(faults=faults)).result

    ckpt_dir = tmp_path / "cluster-ckpt"
    crashing = dataclasses.replace(faults, coordinator_crash_at=80)
    cfg = engine(
        faults=crashing,
        checkpoint=CheckpointConfig(directory=str(ckpt_dir), every_events=25),
        sanitize=True,
    )
    with pytest.raises(CoordinatorCrash):
        run_cluster(trace, "jaws2", 2, engine=cfg)
    resumed = Simulator.restore(ckpt_dir)
    assert len(resumed.nodes) == 2
    assert_identical(baseline, resumed.run())


def test_crash_window_draws_deterministic_point():
    trace = small_trace()
    faults = dataclasses.replace(FAULTS, coordinator_crash_window=(10, 200))
    cfg = engine(faults=faults)
    sims = [Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg) for _ in range(2)]
    assert sims[0].injector.crash_at == sims[1].injector.crash_at
    assert 10 <= sims[0].injector.crash_at < 200


def test_crash_window_past_trace_end_is_clamped_and_fires(tmp_path):
    """A window drawn entirely past the trace's last event used to
    schedule a crash that never fired (silently testing nothing).  The
    injector now clamps window draws to the guaranteed event floor, so
    the crash always lands inside the live range — and the run is still
    resumable to a bit-identical result."""
    trace = small_trace()
    baseline = build_sim(trace, "jaws2").run()

    faults = dataclasses.replace(FAULTS, coordinator_crash_window=(100_000, 200_000))
    ckpt_dir = tmp_path / "ckpt-window"
    cfg = engine(
        faults=faults,
        checkpoint=CheckpointConfig(directory=str(ckpt_dir), every_events=10),
        sanitize=True,
    )
    sim = Simulator(trace, [make_scheduler("jaws2", trace, cfg)], cfg)
    guaranteed = len(trace.jobs) + 2 * len(faults.node_crashes)
    assert 1 <= sim.injector.crash_at < guaranteed
    with pytest.raises(CoordinatorCrash):
        sim.run()
    resumed = Simulator.restore(ckpt_dir).run()
    assert_identical(baseline, resumed)
    # The resumed result reports that its lifecycle really crashed.
    assert resumed.faults["crash_effective"] is True


def test_explicit_crash_at_is_not_clamped():
    """Only window draws are clamped; an explicit index is honored
    verbatim (callers probing past-the-end behavior on purpose)."""
    trace = small_trace()
    sim = build_sim(trace, "jaws2", crash_at=100_000)
    assert sim.injector.crash_at == 100_000
    result = sim.run()  # never reaches event 100000 -> completes
    assert result.faults["crash_effective"] is False


def test_crash_effective_reported_on_completed_armed_run():
    """crash_effective distinguishes 'armed and fired' from 'armed but
    the run ended first' — and is excluded from bit-identity."""
    trace = small_trace()
    armed = build_sim(trace, "jaws2", crash_at=100_000).run()
    unarmed = build_sim(trace, "jaws2").run()
    assert armed.faults["crash_effective"] is False
    assert unarmed.faults["crash_effective"] is False
    assert_identical(armed, unarmed)


def test_restore_disarms_crash_and_keeps_wal_appendable(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=40)
    sim = Simulator.restore(ckpt_dir)
    assert sim.injector.crash_at is None  # no immediate re-crash
    first = sim.run()
    # The run continued past the crash point and kept checkpointing:
    # restoring AGAIN from the same directory still works and replays
    # to the same final result.
    again = Simulator.restore(ckpt_dir).run()
    assert_identical(first, again)


# ---------------------------------------------------------------------------
# Snapshot policy
# ---------------------------------------------------------------------------
def test_every_seconds_policy_produces_snapshots(tmp_path):
    trace = small_trace()
    ckpt_dir = tmp_path / "by-time"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_seconds=20.0, keep=100)
    build_sim(trace, "jaws2", checkpoint=checkpoint).run()
    snapshots = sorted(ckpt_dir.glob("snapshot-*.ckpt"))
    assert len(snapshots) > 1  # genesis + at least one timed snapshot


def test_retention_prunes_old_generations(tmp_path):
    trace = small_trace()
    ckpt_dir = tmp_path / "retention"
    checkpoint = CheckpointConfig(directory=str(ckpt_dir), every_events=10, keep=2)
    build_sim(trace, "jaws2", checkpoint=checkpoint).run()
    snapshots = sorted(ckpt_dir.glob("snapshot-*.ckpt"))
    wals = sorted(ckpt_dir.glob("wal-*.log"))
    assert len(snapshots) == 2
    # Every surviving snapshot keeps its WAL segment, and vice versa.
    assert [p.stem.rpartition("-")[2] for p in snapshots] == [
        p.stem.rpartition("-")[2] for p in wals
    ]


def test_checkpoint_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere")  # directory without a policy
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere", every_events=0)
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere", every_seconds=0.0)
    with pytest.raises(ValueError):
        CheckpointConfig(directory="somewhere", every_events=5, keep=0)
    assert not CheckpointConfig().enabled
    assert CheckpointConfig(directory="d", every_events=5).enabled


# ---------------------------------------------------------------------------
# Refusal paths
# ---------------------------------------------------------------------------
def test_restore_empty_directory_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no snapshots"):
        Simulator.restore(tmp_path)


def test_version_mismatch_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=30)
    latest = sorted(ckpt_dir.glob("snapshot-*.ckpt"))[-1]
    blob = bytearray(latest.read_bytes())
    # Overwrite the u32 format version right after the magic.
    struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), SNAPSHOT_FORMAT_VERSION + 1)
    latest.write_bytes(bytes(blob))
    with pytest.raises(RecoveryError, match="version mismatch"):
        Simulator.restore(ckpt_dir)


def test_codec_rejects_bad_magic_truncation_and_crc():
    blob = encode_snapshot({"event_index": 0}, {"event_index": 0})
    with pytest.raises(RecoveryError, match="not a JAWS snapshot"):
        decode_snapshot(b"NOTAJAWS" + blob[8:])
    with pytest.raises(RecoveryError, match="truncated"):
        decode_snapshot(blob[:-5])
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(RecoveryError, match="CRC mismatch"):
        decode_snapshot(bytes(corrupt))
    meta, state = decode_snapshot(blob)
    assert meta == {"event_index": 0} and state == {"event_index": 0}


def test_truncated_wal_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=35)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    text = wal.read_text()
    assert text.endswith("\n")
    wal.write_text(text[:-3])  # tear the final record
    with pytest.raises(RecoveryError, match="torn"):
        Simulator.restore(ckpt_dir)


def test_corrupt_wal_crc_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=35)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    lines = wal.read_text().splitlines(keepends=True)
    assert lines
    lines[-1] = lines[-1].replace('"k":', '"K":', 1)  # body no longer matches CRC
    wal.write_text("".join(lines))
    with pytest.raises(RecoveryError, match="corrupt WAL"):
        Simulator.restore(ckpt_dir)


def test_wal_index_gap_raises(tmp_path):
    trace = small_trace()
    # Crash mid-segment (not on a snapshot boundary) so the latest WAL
    # holds several records.
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=38, every_events=5)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    lines = wal.read_text().splitlines(keepends=True)
    assert len(lines) >= 2
    del lines[0]
    wal.write_text("".join(lines))
    with pytest.raises(RecoveryError, match="expected event index"):
        Simulator.restore(ckpt_dir)


def test_missing_wal_segment_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=35)
    for wal in ckpt_dir.glob("wal-*.log"):
        wal.unlink()
    with pytest.raises(RecoveryError, match="missing"):
        Simulator.restore(ckpt_dir)


def test_replay_divergence_raises(tmp_path):
    trace = small_trace()
    ckpt_dir = crash_and_leave_artifacts(tmp_path, trace, "jaws2", crash_at=38, every_events=5)
    wal = sorted(ckpt_dir.glob("wal-*.log"))[-1]
    lines = wal.read_text().splitlines()
    assert lines
    # Forge the last record's fingerprint WITH a valid CRC: the file
    # parses cleanly, but the deterministic re-run cannot match it.
    body, _, _ = lines[-1].rpartition("\t")
    fields = json.loads(body)
    fields["f"] = "0" * 16
    forged = format_record(
        WalRecord(
            index=fields["i"], time_hex=fields["t"], kind=fields["k"], fingerprint=fields["f"]
        )
    )
    assert forged.rpartition("\t")[0] == json.dumps(fields, sort_keys=True)
    wal.write_text("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else "") + forged)
    sim = Simulator.restore(ckpt_dir)  # artifacts are well-formed
    with pytest.raises(RecoveryError, match="diverged"):
        sim.run()


def test_read_wal_missing_file(tmp_path):
    with pytest.raises(RecoveryError, match="missing"):
        read_wal(tmp_path / "wal-000000000.log", 0)


# ---------------------------------------------------------------------------
# Diagnostics satellite: event index + RNG digest on engine errors
# ---------------------------------------------------------------------------
def test_coordinator_crash_carries_diagnostics():
    trace = small_trace()
    sim = build_sim(trace, "jaws2", crash_at=37)
    with pytest.raises(CoordinatorCrash) as info:
        sim.run()
    err = info.value
    assert isinstance(err, SimulationError)
    assert err.event_index == 37
    assert isinstance(err.rng_digest, str) and len(err.rng_digest) == 16
    int(err.rng_digest, 16)  # hex digest
    assert f"event={err.event_index}" in str(err)
    assert f"rng={err.rng_digest}" in str(err)


# ---------------------------------------------------------------------------
# CLI: repro run --checkpoint-dir/--crash-at-event + repro resume
# ---------------------------------------------------------------------------
class TestCliRecovery:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "t.npz"
        assert main(
            ["trace", "generate", "--out", str(path), "--jobs", "12", "--span", "60",
             "--seed", "3"]
        ) == 0
        return path

    def test_run_crash_then_resume(self, trace_file, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "cli-ckpt"
        rc = main(
            ["run", "--trace", str(trace_file), "--scheduler", "jaws2",
             "--disk-fault-rate", "0.05", "--checkpoint-dir", str(ckpt),
             "--checkpoint-every-events", "25", "--crash-at-event", "60"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "coordinator crashed" in captured.err
        assert "repro resume" in captured.err
        assert sorted(ckpt.glob("snapshot-*.ckpt"))

        assert main(["resume", "--dir", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "resuming from event" in out
        assert "throughput_qps" in out
        assert "availability" in out  # degraded-mode block prints

    def test_resume_without_snapshots_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["resume", "--dir", str(tmp_path / "nothing")]) == 2
        assert "recovery failed" in capsys.readouterr().err

    def test_crash_without_checkpoint_dir_hints(self, trace_file, capsys):
        from repro.cli import main

        rc = main(
            ["run", "--trace", str(trace_file), "--scheduler", "noshare",
             "--crash-at-event", "10"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "cannot be recovered" in captured.err


def test_rng_digest_tracks_stream_position():
    trace = small_trace()
    sim = build_sim(trace, "jaws2")
    before = sim.injector.rng_digest()
    sim.run()
    assert sim.injector.rng_digest() != before
    # Two identical runs end at the same stream position.
    other = build_sim(trace, "jaws2")
    other.run()
    assert other.injector.rng_digest() == sim.injector.rng_digest()
