"""Tests for sharded multi-coordinator execution (repro.shard).

The matrix the ISSUE demands: shard counts {1, 2, 4} x faults on/off x
crash/failover mid-run x resume-from-cluster-checkpoint, with the N=1
degenerate case byte-identical to the single-coordinator cluster
engine and every sharded run audited by the cross-shard conservation
identities (no sub-query lost or double-executed across epoch
changes).
"""

import dataclasses
import struct

import pytest

from repro.cluster.cluster import run_cluster
from repro.cluster.partition import MortonRangePartitioner
from repro.config import (
    CacheConfig,
    CheckpointConfig,
    CostModel,
    EngineConfig,
    FaultConfig,
    OverloadConfig,
    ShardConfig,
)
from repro.errors import (
    ConfigurationError,
    CoordinatorCrash,
    PartitionError,
    ShardProtocolError,
)
from repro.fuzz.oracles import check_conservation, results_equivalent
from repro.grid.dataset import DatasetSpec
from repro.engine.runner import SCHEDULER_NAMES, make_scheduler
from repro.parallel.pool import RunSpec
from repro.recovery.codec import SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC, decode_snapshot
from repro.shard import (
    OwnershipTable,
    ShardMessage,
    ShardSimulator,
    ShardTopology,
    latest_manifest,
    resume_cluster,
    shard_fault_seed,
)
from repro.workload.cache import trace_cache_key
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def engine(**overrides):
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5),
        cache=CacheConfig(capacity_atoms=32),
        **overrides,
    )


def small_trace(seed=0):
    return generate_trace(SPEC, WorkloadParams(n_jobs=20, span=150.0, seed=seed))


def assert_conserved(stats):
    c = stats["conservation"]
    assert c["created"] == c["applied"] + c["residual_cancelled"]
    assert c["executed"] == (
        c["applied"] + c["exec_dropped"] + c["late_done_dropped"]
    )


# ---------------------------------------------------------------------------
# Topology and ownership
# ---------------------------------------------------------------------------
class TestTopology:
    def test_blocks_cover_all_nodes_disjointly(self):
        topo = ShardTopology(n_nodes=8, n_shards=3)
        blocks = [set(topo.nodes_of_shard(d)) for d in range(3)]
        assert set().union(*blocks) == set(range(8))
        assert sum(len(b) for b in blocks) == 8

    def test_shard_of_node_inverts_blocks(self):
        topo = ShardTopology(n_nodes=7, n_shards=3)
        for d in range(3):
            for node in topo.nodes_of_shard(d):
                assert topo.shard_of_node(node) == d

    def test_validation(self):
        with pytest.raises(PartitionError):
            ShardTopology(n_nodes=2, n_shards=4)
        with pytest.raises(PartitionError):
            ShardTopology(n_nodes=4, n_shards=0)

    def test_digest_tracks_shape(self):
        a = ShardTopology(n_nodes=8, n_shards=2)
        assert a.digest() == ShardTopology(n_nodes=8, n_shards=2).digest()
        assert a.digest() != ShardTopology(n_nodes=8, n_shards=4).digest()
        assert a.digest() != ShardTopology(n_nodes=6, n_shards=2).digest()

    def test_ownership_transfer_bumps_epoch(self):
        table = OwnershipTable.identity(3)
        assert table.operator == [0, 1, 2] and table.epoch == [0, 0, 0]
        assert table.transfer(1, 2) == 1
        assert table.operator[1] == 2
        assert table.epoch[1] == 1
        assert sorted(table.domains_of(2)) == [1, 2]

    def test_message_rejects_unknown_kind(self):
        with pytest.raises(ShardProtocolError):
            ShardMessage(
                kind="gossip",
                src_domain=0,
                dst_domain=1,
                src_epoch=0,
                dst_epoch=0,
                send_time=0.0,
                deliver_time=0.01,
                seq=0,
            )

    def test_shard_fault_seed_is_stable_and_distinct(self):
        assert shard_fault_seed(7, 0) == shard_fault_seed(7, 0)
        assert shard_fault_seed(7, 0) != shard_fault_seed(7, 1)
        assert shard_fault_seed(7, 0) != shard_fault_seed(8, 0)


# ---------------------------------------------------------------------------
# Bit-identity matrix
# ---------------------------------------------------------------------------
class TestShardRuns:
    def test_single_shard_matches_cluster_engine(self):
        trace = small_trace(seed=1)
        for name in SCHEDULER_NAMES:
            sharded = run_cluster(
                trace, name, 4, shards=ShardConfig(n_shards=1), engine=engine()
            )
            cluster = run_cluster(trace, name, 4, engine=engine())
            assert results_equivalent(cluster.result, sharded.result) is None, name
            assert sharded.shard_stats == cluster.shard_stats
            assert sharded.shard_stats["n_shards"] == 1

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_all_queries_complete(self, n_shards):
        trace = small_trace(seed=1)
        out = run_cluster(
            trace, "jaws2", 4, shards=ShardConfig(n_shards=n_shards), engine=engine()
        )
        assert out.result.n_queries == trace.n_queries
        assert out.shard_stats["n_shards"] == n_shards
        assert len(out.node_atoms_executed) == 4
        assert sum(out.node_atoms_executed) == out.result.exec["atoms_executed"]
        assert out.load_imbalance >= 1.0
        assert_conserved(out.shard_stats)
        assert out.shard_stats["shard_crashes"] == 0
        assert out.shard_stats["stale_retries"] == 0

    def test_same_seed_bit_identical(self):
        trace = small_trace(seed=2)
        runs = [
            run_cluster(
                trace, "jaws2", 4, shards=ShardConfig(n_shards=2), engine=engine()
            )
            for _ in range(2)
        ]
        assert results_equivalent(runs[0].result, runs[1].result) is None
        assert runs[0].shard_stats == runs[1].shard_stats

    def test_parallel_windows_match_serial(self):
        trace = small_trace(seed=3)
        shards = ShardConfig(n_shards=2)
        serial = run_cluster(trace, "jaws2", 4, shards=shards, engine=engine())
        pooled = run_cluster(
            trace, "jaws2", 4, shards=shards, engine=engine(), jobs=2
        )
        assert results_equivalent(serial.result, pooled.result) is None
        assert serial.shard_stats == pooled.shard_stats


# ---------------------------------------------------------------------------
# Crash, failover, fault interplay
# ---------------------------------------------------------------------------
class TestFailover:
    def test_explicit_crash_fails_over_and_conserves(self):
        trace = small_trace(seed=1)
        out = run_cluster(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2, crashes=((1, 40.0),)),
            engine=engine(),
        )
        assert out.result.n_queries == trace.n_queries
        stats = out.shard_stats
        assert stats["shard_crashes"] == 1
        assert stats["epoch_bumps"] >= 1
        # The dead shard's domain moved to a survivor at a bumped epoch.
        assert stats["operators"][1] != 1
        assert stats["lease_epochs"][1] >= 1
        assert_conserved(stats)

    def test_failover_is_deterministic(self):
        trace = small_trace(seed=4)
        shards = ShardConfig(n_shards=4, crashes=((3, 30.0), (2, 60.0)))
        a = run_cluster(trace, "jaws2", 4, shards=shards, engine=engine())
        b = run_cluster(trace, "jaws2", 4, shards=shards, engine=engine())
        assert results_equivalent(a.result, b.result) is None
        assert a.shard_stats == b.shard_stats
        assert a.shard_stats["shard_crashes"] == 2

    def test_seeded_window_crashes(self):
        trace = small_trace(seed=5)
        shards = ShardConfig(
            n_shards=4, crash_window=(20.0, 60.0), n_window_crashes=2, seed=7
        )
        out = run_cluster(trace, "jaws2", 4, shards=shards, engine=engine())
        assert out.result.n_queries == trace.n_queries
        assert out.shard_stats["shard_crashes"] == 2
        assert_conserved(out.shard_stats)

    def test_node_crash_and_transients_under_sharding(self):
        trace = small_trace(seed=1)
        faults = FaultConfig(
            seed=11,
            transient_fault_rate=0.05,
            node_crashes=((1, 30.0, 60.0),),
            replication=2,
        )
        shards = ShardConfig(n_shards=2, crashes=((1, 50.0),))
        a = run_cluster(
            trace, "jaws2", 4, shards=shards, engine=engine(faults=faults)
        )
        b = run_cluster(
            trace, "jaws2", 4, shards=shards, engine=engine(faults=faults)
        )
        assert a.result.n_queries == trace.n_queries
        assert a.result.faults["node_downs"] >= 1
        assert_conserved(a.shard_stats)
        assert results_equivalent(a.result, b.result) is None

    def test_node_crash_reroutes_foreign_work_in_flight(self):
        # Node 1 (shard 0) crashes while its batch holds sub-queries of
        # queries homed on shard 1; they must go home as "fail" and be
        # re-routed, not vanish and livelock the cluster.
        trace = small_trace(seed=0)
        faults = FaultConfig(seed=0, node_crashes=((1, 35.0, 60.0),), replication=2)
        out = run_cluster(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2),
            engine=engine(faults=faults),
        )
        assert out.result.n_queries == trace.n_queries
        assert out.result.faults["node_downs"] == 1
        assert_conserved(out.shard_stats)

    def test_permanent_loss_conserves_residual(self):
        trace = small_trace(seed=6)
        faults = FaultConfig(seed=3, permanent_loss_rate=0.01)
        out = run_cluster(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2),
            engine=engine(faults=faults),
        )
        assert out.result.cancelled_queries > 0
        assert check_conservation(trace, out.result) is None
        assert_conserved(out.shard_stats)


# ---------------------------------------------------------------------------
# Cluster-consistent recovery
# ---------------------------------------------------------------------------
class TestRecovery:
    def _shards(self, tmp_path, **overrides):
        return ShardConfig(
            n_shards=2,
            checkpoint_dir=str(tmp_path),
            barrier_every_events=500,
            **overrides,
        )

    def test_resume_is_bit_identical(self, tmp_path):
        trace = small_trace(seed=1)
        # LifeRaft's tie-set cache must survive the barrier snapshots.
        for name in ("jaws2", "liferaft1", "liferaft2"):
            ckpt = tmp_path / name
            reference = run_cluster(
                trace, name, 4, shards=ShardConfig(n_shards=2), engine=engine()
            )
            with pytest.raises(CoordinatorCrash):
                run_cluster(
                    trace,
                    name,
                    4,
                    shards=self._shards(ckpt, halt_after_barrier=2),
                    engine=engine(),
                )
            assert latest_manifest(ckpt) is not None
            resumed = resume_cluster(ckpt).run()
            assert results_equivalent(reference.result, resumed.result) is None, name
            assert_conserved(resumed.shard_stats)

    def test_resume_after_failover(self, tmp_path):
        trace = small_trace(seed=2)
        crashes = ((1, 30.0),)
        reference = run_cluster(
            trace,
            "jaws2",
            4,
            shards=ShardConfig(n_shards=2, crashes=crashes),
            engine=engine(),
        )
        with pytest.raises(CoordinatorCrash):
            run_cluster(
                trace,
                "jaws2",
                4,
                shards=self._shards(tmp_path, crashes=crashes, halt_after_barrier=3),
                engine=engine(),
            )
        control = resume_cluster(tmp_path)
        # The recovery point must carry the post-failover ownership.
        assert 1 in control.dead
        resumed = control.run()
        assert results_equivalent(reference.result, resumed.result) is None
        assert resumed.shard_stats["shard_crashes"] == 1

    def test_resume_without_manifest_raises(self, tmp_path):
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            resume_cluster(tmp_path)


# ---------------------------------------------------------------------------
# One domain: a Simulator that runs a block of the cluster's nodes
# ---------------------------------------------------------------------------
def build_domain(shard_id, node_crashes=()):
    trace = small_trace(seed=1)
    topology = ShardTopology(n_nodes=4, n_shards=2)
    partitioner = MortonRangePartitioner(trace.spec, 4)
    config = engine(faults=FaultConfig(node_crashes=node_crashes))
    return ShardSimulator(
        trace,
        [make_scheduler("jaws2", trace, config) for _ in topology.nodes_of_shard(shard_id)],
        config,
        topology,
        shard_id,
        node_of=partitioner.node_of,
        replicas_of=partitioner.replicas_of,
        full_node_crashes=node_crashes,
        message_delay=0.01,
    )


def halt_at_first_barrier(directory):
    with pytest.raises(CoordinatorCrash):
        run_cluster(
            small_trace(seed=1),
            "jaws2",
            4,
            shards=ShardConfig(
                n_shards=2,
                checkpoint_dir=str(directory),
                barrier_every_events=500,
                halt_after_barrier=1,
            ),
            engine=engine(),
        )


class TestDomain:
    def test_runs_only_its_block(self):
        domain = build_domain(1)
        assert [node.idx for node in domain.owned_nodes] == [2, 3]
        assert domain.nodes[0] is None and domain.nodes[1] is None
        diagnostics = domain._diagnostics()
        assert diagnostics["busy_flags"] == [False, False]
        assert len(diagnostics["queue_depths"]) == 2

    def test_crash_outside_its_block_rejected(self):
        assert build_domain(0, node_crashes=((1, 10.0, 20.0),))
        with pytest.raises(ValueError, match="names node 3"):
            build_domain(0, node_crashes=((3, 10.0, 20.0),))

    def test_barrier_snapshots_name_the_domain_scheduler(self, tmp_path):
        halt_at_first_barrier(tmp_path)
        for d in range(2):
            newest = sorted((tmp_path / f"shard-{d}").glob("snapshot-*.ckpt"))[-1]
            meta, _state = decode_snapshot(newest.read_bytes())
            assert meta["scheduler"] == "JAWS_2", d

    def test_older_barrier_format_refused_typed(self, tmp_path):
        from repro.errors import RecoveryError

        halt_at_first_barrier(tmp_path)
        manifest = latest_manifest(tmp_path)
        blob = bytearray(manifest.read_bytes())
        struct.pack_into(">I", blob, len(SNAPSHOT_MAGIC), SNAPSHOT_FORMAT_VERSION - 1)
        manifest.write_bytes(bytes(blob))
        with pytest.raises(RecoveryError, match="version mismatch"):
            resume_cluster(tmp_path)


# ---------------------------------------------------------------------------
# Configuration guardrails
# ---------------------------------------------------------------------------
class TestConfigErrors:
    def test_rejects_overload_when_sharded(self):
        with pytest.raises(ConfigurationError):
            run_cluster(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(overload=OverloadConfig(enabled=True)),
            )

    def test_rejects_sanitizer_when_sharded(self):
        with pytest.raises(ConfigurationError):
            run_cluster(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(sanitize=True),
            )

    def test_rejects_engine_checkpoint_when_sharded(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_cluster(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=2),
                engine=engine(
                    checkpoint=CheckpointConfig(
                        directory=str(tmp_path), every_events=100
                    )
                ),
            )

    def test_rejects_halt_without_sharding(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(n_shards=1, crashes=((0, 10.0),))
        with pytest.raises(ConfigurationError):
            run_cluster(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(n_shards=1, halt_after_barrier=1),
                engine=engine(),
            )

    def test_rejects_barriers_without_sharding(self, tmp_path):
        with pytest.raises(ConfigurationError, match="belong to the sharded"):
            run_cluster(
                small_trace(),
                "jaws2",
                4,
                shards=ShardConfig(
                    n_shards=1, checkpoint_dir=str(tmp_path), barrier_every_events=100
                ),
                engine=engine(),
            )

    def test_crash_schedule_needs_a_survivor(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(n_shards=2, crashes=((0, 10.0), (1, 20.0)))


# ---------------------------------------------------------------------------
# Spec digests and cache keys
# ---------------------------------------------------------------------------
class TestDigests:
    def test_runspec_digest_tracks_topology(self):
        trace = small_trace(seed=1)
        base = RunSpec(trace=trace, scheduler="jaws2")
        clustered = dataclasses.replace(base, n_nodes=4)
        sharded = dataclasses.replace(base, n_nodes=4, shards=ShardConfig(n_shards=2))
        digests = {base.digest(), clustered.digest(), sharded.digest()}
        assert len(digests) == 3

    def test_trace_cache_key_tracks_topology(self):
        params = WorkloadParams(n_jobs=20, span=150.0, seed=0)
        plain = trace_cache_key(SPEC, params, 1.0)
        assert trace_cache_key(SPEC, params, 1.0) == plain
        topo = ShardTopology(n_nodes=4, n_shards=2).digest()
        assert trace_cache_key(SPEC, params, 1.0, topology=topo) != plain
