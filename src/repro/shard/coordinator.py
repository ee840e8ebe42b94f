"""One coordinator shard: the two-level JAWS loop over a node block.

A :class:`ShardSimulator` is a :class:`~repro.engine.simulator.Simulator`
that runs only the contiguous block of nodes the
:class:`~repro.shard.topology.ShardTopology` assigns it: ``nodes`` is
still indexed by global node id, but peer shards' slots are ``None``
and the engine walks ``owned_nodes``.  The base constructor, event
loop and result fold run unchanged; everything the base engine does
locally — batching, caching, fault retries, gating — runs on the
block, and every interaction that crosses a block boundary becomes a
typed :class:`~repro.shard.messages.ShardMessage` in the outbox, which
the control plane moves between shards on the virtual-time bus.

The *home-shard protocol*: a job's home shard (``job_id % n_shards``)
owns its whole lifecycle — JOB_SUBMIT, query arrivals, the
outstanding sub-query count, deadlines, ordered-job progression, and
completion/cancellation broadcasts.  Remote shards execute the
sub-queries routed to their nodes and report back (``done``/``fail``).
Conservation is enforced, not assumed: the home shard counts every
sub-query it creates, applies each completion at most once (an
over-delivery raises :class:`~repro.errors.ShardProtocolError`), and
attributes every non-applied execution to an explicit drop counter —
the cross-shard conservation oracle in :mod:`repro.fuzz` checks the
created = applied + cancelled-residual identity over these counters.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import EngineConfig
from repro.core.base import Batch, Scheduler
from repro.engine.events import Event, EventKind
from repro.engine.simulator import Simulator
from repro.errors import ShardProtocolError
from repro.shard.messages import ShardMessage
from repro.shard.topology import ShardTopology
from repro.workload.job import Job
from repro.workload.query import Query, SubQuery
from repro.workload.trace import Trace

__all__ = ["ShardSimulator"]


class ShardSimulator(Simulator):
    """The engine for one shard *domain*.

    Built by the base constructor through its hooks: only home jobs are
    seeded (:meth:`_seed_jobs`), only the shard's block of nodes is
    built (:meth:`_node_slots` leaves peer slots ``None``), and deferral
    waits on recoveries anywhere in the cluster
    (:meth:`_recovery_schedule`).  The per-domain engine config has
    already been narrowed by :meth:`~repro.shard.control.ClusterControlPlane.build` (local
    node crashes only, no coordinator crash, no overload/sanitizer —
    cluster-level invariants are checked by the control plane and the
    conservation counters instead).  The methods below override exactly
    the points where work crosses a shard boundary and call the base
    for everything else.
    """

    def __init__(
        self,
        trace: Trace,
        schedulers: Sequence[Scheduler],
        config: EngineConfig,
        topology: ShardTopology,
        shard_id: int,
        node_of: Callable[[int], int],
        replicas_of: Callable[[int], Sequence[int]],
        full_node_crashes: Tuple[Tuple[int, float, float], ...],
        message_delay: float,
    ) -> None:
        # Shard fields first: the base constructor's hooks read them.
        self.shard_id = shard_id
        self._topology = topology
        self._full_node_crashes = tuple(
            (int(n), float(d), float(u)) for n, d, u in full_node_crashes
        )
        self._message_delay = float(message_delay)
        self._lease_epoch = 0
        self._msg_seq = 0
        self._outbox: List[ShardMessage] = []
        self._window_log: List[Tuple[int, Event]] = []
        # query_id -> home domain, for every live foreign query heard of.
        self._foreign: Dict[int, int] = {}
        # (node, atom) loss facts learned from peer shards' fail reports.
        self._remote_lost: Set[Tuple[int, int]] = set()
        # Cross-shard conservation counters (home-side unless noted).
        self._sq_created = 0
        self._sq_applied = 0
        self._sq_residual_cancelled = 0
        self._sq_executed = 0  # executor-side: successful executions here
        self._sq_exec_dropped = 0  # executed here for an already-dead query
        self._late_done_dropped = 0  # done-counts arriving after cancel
        self._msgs_sent = 0
        super().__init__(trace, schedulers, config, node_of=node_of, replicas_of=replicas_of)

    # ------------------------------------------------------------------
    # Construction hooks
    # ------------------------------------------------------------------
    def _seed_jobs(self) -> Sequence[Job]:
        return [
            job
            for job in self.trace.jobs
            if self._topology.home_shard_of_job(job.job_id) == self.shard_id
        ]

    def _node_slots(self, schedulers: Sequence[Scheduler]) -> List[Optional[Scheduler]]:
        block = self._topology.nodes_of_shard(self.shard_id)
        if len(schedulers) != len(block):
            raise ValueError(
                f"shard {self.shard_id} owns {len(block)} node(s) but got "
                f"{len(schedulers)} scheduler(s)"
            )
        slots: List[Optional[Scheduler]] = [None] * self._topology.n_nodes
        for idx, scheduler in zip(block, schedulers):
            slots[idx] = scheduler
        return slots

    def _recovery_schedule(self) -> List[float]:
        # A home shard may be waiting on a remote node's recovery.
        return sorted(up_t for _, _, up_t in self._full_node_crashes)

    # ------------------------------------------------------------------
    # Control-plane surface
    # ------------------------------------------------------------------
    def deliver(self, msg: ShardMessage) -> None:
        """Inject one bus message as a local SHARD_MSG event."""
        self._push(msg.deliver_time, EventKind.SHARD_MSG, msg)

    def drain_outbox(self) -> List[ShardMessage]:
        out, self._outbox = self._outbox, []
        return out

    def drain_window_log(self) -> List[Tuple[int, Event]]:
        log, self._window_log = self._window_log, []
        return log

    def force_release_pass(self) -> bool:
        """The base idle fallback, plus starting the released batches at
        once: the control plane picks its next window from the domains'
        event times, so the released work must be on the heap."""
        released = super().force_release_pass()
        if released:
            self._start_batches()
        return released

    def on_shard_failover(self, resume_time: float) -> None:
        """Adopt this domain after its operator crash-stopped.

        Models recovery from the domain's replicated state: queued work
        survives wholesale, but the crashed coordinator's in-flight
        dispatch context is lost — every running batch is aborted via a
        node epoch bump (its BATCH_DONE arrives stale and is dropped)
        and its sub-queries are re-routed.  Events frozen during the
        failover window are re-timestamped to the resume instant with
        their sequence numbers intact, so relative order is preserved
        and the run stays bit-deterministic.
        """
        self._lease_epoch += 1
        self.clock = max(self.clock, resume_time)
        evacuated: List[Tuple[float, SubQuery]] = []
        for node in self.owned_nodes:
            if node.inflight is not None:
                evacuated.extend(self._abort_inflight(node, resume_time))
        if self._heap and self._heap[0].time < resume_time:
            self._heap = [
                Event(max(ev.time, resume_time), ev.kind, ev.seq, ev.payload)
                for ev in self._heap
            ]
            heapq.heapify(self._heap)
        for arrival, sq in evacuated:
            self._reroute(sq, arrival, resume_time, from_node=None)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _send(self, dst_domain: int, kind: str, payload: object, now: float) -> None:
        # dst_epoch is stamped by the control plane when the message
        # enters the bus (the ownership table is control-plane state).
        self._outbox.append(
            ShardMessage(
                kind=kind,
                src_domain=self.shard_id,
                dst_domain=dst_domain,
                src_epoch=self._lease_epoch,
                dst_epoch=-1,
                send_time=now,
                deliver_time=now + self._message_delay,
                seq=self._msg_seq,
                payload=payload,
            )
        )
        self._msg_seq += 1
        self._msgs_sent += 1

    def _broadcast(self, kind: str, payload: object, now: float) -> None:
        for domain in range(self._topology.n_shards):
            if domain != self.shard_id:
                self._send(domain, kind, payload, now)

    # ------------------------------------------------------------------
    # Routing across the block boundary
    # ------------------------------------------------------------------
    def _is_live(self, query_id: int) -> bool:
        # A foreign query's sub-queries run here too; its home shard
        # re-routes them when they come back as ``fail``.
        return super()._is_live(query_id) or query_id in self._foreign

    def _is_lost(self, node_idx: int, atom_id: int) -> bool:
        return super()._is_lost(node_idx, atom_id) or (node_idx, atom_id) in self._remote_lost

    def _is_up(self, node_idx: int) -> bool:
        """A local node's own flag; a REMOTE node is up unless it is
        inside a scheduled crash window.

        The full crash schedule is static config every shard holds, so
        no state synchronisation is needed to route around planned
        downtime — and a sub-query that races a crash boundary anyway
        is bounced back by the executing shard as a ``fail``.
        """
        node = self.nodes[node_idx]
        if node is not None:
            return node.up
        return not any(
            n == node_idx and down_t <= self.clock < up_t
            for n, down_t, up_t in self._full_node_crashes
        )

    def _reroute(self, sq: SubQuery, arrival: float, now: float, from_node: Optional[int]) -> None:
        home = self._foreign.get(sq.query.query_id)
        if home is None:
            super()._reroute(sq, arrival, now, from_node)
            return
        # Not our query: report the failure (plus any loss facts we
        # learned locally) to the home shard, which owns routing.
        lost_locally = super()._is_lost
        lost_pairs = tuple(
            (node.idx, sq.atom_id)
            for node in self.owned_nodes
            if lost_locally(node.idx, sq.atom_id)
        )
        self._send(home, "fail", (sq, arrival, from_node, lost_pairs), now)

    def _readmit(self, node_idx: int, sq: SubQuery, arrival: float, now: float) -> None:
        if self.nodes[node_idx] is not None:
            super()._readmit(node_idx, sq, arrival, now)
        else:
            self._send(
                self._topology.shard_of_node(node_idx), "route", (node_idx, sq, arrival), now
            )

    # ------------------------------------------------------------------
    # Event handlers (home side)
    # ------------------------------------------------------------------
    def _dispatch(self, ev: Event) -> None:
        # Window log for the cluster WAL: the control plane assigns
        # cluster-consistent indices and flushes after each superstep.
        self._window_log.append((self.event_index, ev))
        super()._dispatch(ev)

    def _on_job_submit(self, job: Job, now: float) -> None:
        super()._on_job_submit(job, now)
        # Remote gating graphs hear the admission one message hop later;
        # the job notice outruns none of its arrivals (same send instant,
        # lower sequence number, FIFO per sender-pair).
        self._broadcast("job", (job,), now)

    def _announce_arrival(
        self, query: Query, by_node: Dict[int, List[SubQuery]], now: float
    ) -> None:
        super()._announce_arrival(query, by_node, now)
        # The base set the outstanding count from the sub-queries it
        # built; nothing has been applied or cancelled yet.
        self._sq_created += self._remaining[query.query_id]
        # Every peer domain hears every arrival (even with no local
        # sub-queries) so remote gating state stays in lockstep.
        for domain in range(self._topology.n_shards):
            if domain == self.shard_id:
                continue
            routed = tuple(
                (idx, tuple(by_node[idx]))
                for idx in self._topology.nodes_of_shard(domain)
                if idx in by_node
            )
            self._send(domain, "arrival", (query, routed), now)

    def _apply_done(self, qid: int, count: int, query: Query, now: float) -> None:
        """Apply ``count`` sub-query completions to the home-side
        outstanding counter — at most once per sub-query, by contract."""
        remaining = self._remaining.get(qid)
        if remaining is None:
            self._late_done_dropped += count
            return
        if count > remaining:
            raise ShardProtocolError(
                f"completion over-delivery for query {qid}: {count} done "
                f"reported with only {remaining} outstanding (a sub-query "
                "was double-executed across an epoch change)",
                domain=self.shard_id,
                epoch=self._lease_epoch,
                **self._diagnostics(),
            )
        self._remaining[qid] = remaining - count
        self._sq_applied += count
        if self._remaining[qid] == 0:
            self._complete_query(query, now)

    def _apply_executed(self, batch: Batch, failed_ids: Set[int], now: float) -> None:
        """Apply home-query completions here; batch the rest into one
        ``done`` message per (home domain, query)."""
        done_for_home: Dict[int, Dict[int, int]] = {}
        for _, subqueries in batch.atoms:
            for sq in subqueries:
                if id(sq) in failed_ids:
                    continue
                qid = sq.query.query_id
                self._sq_executed += 1
                if qid in self._remaining:
                    self._apply_done(qid, 1, sq.query, now)
                elif qid in self._foreign:
                    per_home = done_for_home.setdefault(self._foreign[qid], {})
                    per_home[qid] = per_home.get(qid, 0) + 1
                else:
                    self._sq_exec_dropped += 1  # cancelled while running
        for home in sorted(done_for_home):
            for qid in sorted(done_for_home[home]):
                self._send(home, "done", (qid, done_for_home[home][qid]), now)

    def _complete_query(self, query: Query, now: float) -> None:
        super()._complete_query(query, now)
        self._broadcast("complete", (query,), now)

    def _cancel_query(self, query_id: int, now: float, reason: str) -> None:
        query = self._live_query.get(query_id)
        job = self._job_of.get(query_id)
        residual = self._remaining.get(query_id, 0)
        extra: Tuple[int, ...] = ()
        if query is not None and job is not None and job.is_ordered:
            extra = tuple(fq.query_id for fq in job.queries[query.seq + 1:])
        super()._cancel_query(query_id, now, reason)
        self._sq_residual_cancelled += residual
        self._broadcast("cancel", (query_id, extra), now)

    # ------------------------------------------------------------------
    # Event handlers (message delivery)
    # ------------------------------------------------------------------
    def _on_shard_msg(self, payload: object, now: float) -> None:
        msg = payload
        assert isinstance(msg, ShardMessage)
        kind = msg.kind
        if kind == "job":
            (job,) = msg.payload
            for node in self.owned_nodes:
                node.scheduler.on_job_submitted(job, now)
        elif kind == "arrival":
            query, routed = msg.payload
            self._foreign[query.query_id] = msg.src_domain
            by_node = {idx: list(sqs) for idx, sqs in routed}
            bounced: List[SubQuery] = []
            for node in self.owned_nodes:
                sqs = by_node.get(node.idx, [])
                if sqs and not node.up:
                    # The home shard routed here around a crash boundary
                    # it could not observe; bounce the work back.
                    bounced.extend(sqs)
                    sqs = []
                node.scheduler.on_query_arrival(query, sqs, now)
            for sq in bounced:
                self._reroute(sq, now, now, from_node=None)
        elif kind == "done":
            qid, count = msg.payload
            query = self._live_query.get(qid)
            if query is None:
                self._late_done_dropped += count
            else:
                self._apply_done(qid, count, query, now)
        elif kind == "fail":
            sq, arrival_hint, from_node, lost_pairs = msg.payload
            self._remote_lost.update(lost_pairs)
            qid = sq.query.query_id
            self._reroute(sq, self._arrival.get(qid, arrival_hint), now, from_node)
        elif kind == "route":
            target, sq, arrival = msg.payload
            if sq.query.query_id not in self._foreign:
                return  # cancelled while the re-admission was in flight
            if not self.nodes[target].up:
                self._reroute(sq, arrival, now, from_node=None)
            else:
                self._readmit(target, sq, arrival, now)
        elif kind == "complete":
            (query,) = msg.payload
            self._foreign.pop(query.query_id, None)
            for node in self.owned_nodes:
                node.scheduler.on_query_complete(query, now)
        elif kind == "cancel":
            qid, extra = msg.payload
            for cancelled in (qid, *extra):
                self._foreign.pop(cancelled, None)
                for node in self.owned_nodes:
                    node.scheduler.cancel_query(cancelled, now)
        else:  # pragma: no cover - MESSAGE_KINDS is validated at build
            raise ShardProtocolError(
                f"undeliverable shard message kind {kind!r}",
                domain=self.shard_id,
                epoch=self._lease_epoch,
                **self._diagnostics(),
            )

    # ------------------------------------------------------------------
    # Shard-only result extras
    # ------------------------------------------------------------------
    def partial(self) -> dict:
        """What this domain adds to its :meth:`_result` for the control
        plane: the cross-shard conservation counters, the event index
        and the lease epoch."""
        return {
            "event_index": self.event_index,
            "lease_epoch": self._lease_epoch,
            "conservation": {
                "created": self._sq_created,
                "applied": self._sq_applied,
                "residual_cancelled": self._sq_residual_cancelled,
                "executed": self._sq_executed,
                "exec_dropped": self._sq_exec_dropped,
                "late_done_dropped": self._late_done_dropped,
                "messages_sent": self._msgs_sent,
            },
        }
