"""Tests for the multi-node cluster substrate."""

import pytest

from repro.cluster.cluster import run_cluster
from repro.cluster.partition import MortonRangePartitioner
from repro.config import CacheConfig, CostModel, EngineConfig, FaultConfig
from repro.grid.dataset import DatasetSpec
from repro.workload.generator import WorkloadParams, generate_trace

SPEC = DatasetSpec.small(n_timesteps=6, atoms_per_axis=4)


def engine():
    return EngineConfig(
        cost=CostModel(t_b=0.02, t_m=1e-5), cache=CacheConfig(capacity_atoms=32)
    )


def small_trace(seed=0):
    return generate_trace(SPEC, WorkloadParams(n_jobs=20, span=150.0, seed=seed))


class TestPartitioner:
    def test_covers_all_atoms_disjointly(self):
        part = MortonRangePartitioner(SPEC, 4)
        owned = [set(part.atoms_of_node(n)) for n in range(4)]
        union = set().union(*owned)
        assert union == set(range(SPEC.atoms_per_timestep))
        assert sum(len(o) for o in owned) == SPEC.atoms_per_timestep

    def test_node_of_matches_ranges(self):
        part = MortonRangePartitioner(SPEC, 3)
        for node in range(3):
            for morton in part.atoms_of_node(node):
                for ts in range(SPEC.n_timesteps):
                    atom_id = SPEC.atom_id(ts, morton)
                    assert part.node_of(atom_id) == node

    def test_contiguous_ranges(self):
        part = MortonRangePartitioner(SPEC, 4)
        for node in range(4):
            r = part.atoms_of_node(node)
            assert list(r) == list(range(r.start, r.stop))

    def test_validation(self):
        with pytest.raises(ValueError):
            MortonRangePartitioner(SPEC, 0)
        with pytest.raises(ValueError):
            MortonRangePartitioner(SPEC, SPEC.atoms_per_timestep + 1)


class TestClusterRuns:
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_all_queries_complete(self, n_nodes):
        trace = small_trace(seed=1)
        out = run_cluster(trace, "jaws2", n_nodes, engine=engine())
        assert out.result.n_queries == trace.n_queries
        assert out.result.forced_releases == 0

    def test_single_node_matches_run_trace(self):
        from repro.engine.runner import SCHEDULER_NAMES, run_trace

        trace = small_trace(seed=2)
        faulty = engine().with_(faults=FaultConfig(seed=3, transient_fault_rate=0.05))
        for tag, eng in (("clean", engine()), ("faults", faulty)):
            for name in SCHEDULER_NAMES:
                single = run_trace(trace, name, eng)
                cluster = run_cluster(trace, name, 1, engine=eng)
                assert cluster.result.to_dict() == single.to_dict(), (tag, name)

    def test_more_nodes_not_slower(self):
        """With parallel executors, makespan should not grow (the trace
        is serial-server-bound at one node)."""
        trace = small_trace(seed=3).rescale(8.0)
        eng = engine()
        one = run_cluster(trace, "liferaft2", 1, engine=eng)
        four = run_cluster(trace, "liferaft2", 4, engine=eng)
        assert four.result.makespan <= one.result.makespan * 1.1

    def test_load_diagnostics(self):
        out = run_cluster(small_trace(seed=4), "jaws2", 4, engine=engine())
        assert len(out.node_atoms_executed) == 4
        assert sum(out.node_atoms_executed) == out.result.exec["atoms_executed"]
        assert out.load_imbalance >= 1.0


class TestMultiNodeGating:
    def test_single_node_query_does_not_stall_remote_gating(self):
        """A gated ordered job whose query routes entirely to one node
        must not leave the other nodes' gating groups waiting forever
        (arrivals are broadcast to every node)."""
        import numpy as np

        from repro.workload.job import Job, JobKind
        from repro.workload.query import Query
        from repro.workload.trace import Trace

        spec = SPEC

        def pos(ax):
            # All positions inside atom column ax (keeps the query on
            # one node under a 2-node Morton-range partition).
            return np.full((6, 3), 64.0 * ax + 20.0)

        def job(jid, user, axes):
            queries = [
                Query(jid * 10 + i, jid, i, user, "velocity", i, pos(ax))
                for i, ax in enumerate(axes)
            ]
            return Job(jid, JobKind.ORDERED, user, 0.0, 0.5, queries)

        # Two identical 2-query jobs -> gating aligns them; the first
        # query lives on the low-Morton node, the second on the high one.
        trace = Trace(spec, [job(0, 0, [0, 3]), job(1, 1, [0, 3])])
        out = run_cluster(trace, "jaws2", 2, engine=engine())
        assert out.result.n_queries == 4
        assert out.result.forced_releases == 0
