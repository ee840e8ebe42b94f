"""LifeRaft scheduler adapted to Turbulence (paper §III).

Data-driven batch processing: atoms are evaluated greedily in
decreasing (aged) workload-throughput order, one atom per pass, with
all pending sub-queries against the atom co-scheduled.  The age bias
``alpha`` is fixed at initialization — LifeRaft's starvation knob is
manual, not adaptive, and there is no two-level framework or
job-awareness:

* ``alpha = 0`` → the paper's ``LifeRaft_2`` (pure contention order,
  throughput-maximizing);
* ``alpha = 1`` → ``LifeRaft_1`` (arrival order, but queries
  referencing the same atom as the oldest request are still
  co-scheduled — which is what distinguishes it from NoShare).

Reduced metric
--------------

With ``config.metric.normalize`` and ``alpha`` of exactly 0 or 1 (the
two alphas the factory instantiates), the Eq. 2 evaluation reduces
**bit-exactly** to one min–max over one column:

* ``alpha = 0``: ``a_term * 0.0`` is ``+0.0`` for every element
  (min–max terms are nonnegative) and ``u_term * 1.0 + 0.0`` is
  ``u_term`` bitwise, so ``U_e == minmax(U_t)``.
* ``alpha = 1``: symmetrically ``U_e == minmax(now - oldest)``.
* With ``span > 0``, monotonicity of correctly-rounded subtraction and
  division gives ``minmax(x) <= 1.0`` elementwise with equality at the
  maximum, so ``U_e.max()`` is exactly ``1.0`` and the tie set is
  ``(x - lo) / span == 1.0`` — computed on the *divided* values, never
  on raw ``x`` (distinct raw values can round to the same quotient).
* With ``span <= 0`` the exact metric is all zeros: every atom ties.

Any other configuration evaluates the full Eq. 2 formula.

Tie-set caching
---------------

LifeRaft drains one atom per decision, and most decisions are *pure
drains*: no arrival, cancellation, or cache insert/evict touches a
queued atom in between (every such mutation bumps ``queues.version``).
Across a pure-drain stretch the cached tie set can be replayed in
ascending-id order without re-reducing the queues, because the next
exact evaluation is *forced* to reproduce it:

* ``alpha = 0``: the cache is only kept when the tie set equals the
  exact-max set ``{u == u.max()}`` bitwise (checked at build time; a
  rounding-collapsed tie, where ``u < max`` normalizes to exactly
  ``1.0``, disables caching).  Draining one max row leaves the max
  attained, the min attained (``span > 0`` means no max row is the
  min), and every other ``u`` unchanged — so the formula's inputs are
  unchanged and the next tie set is exactly the cache minus the
  drained atom.
* ``alpha = 1``: ages move with ``now``, so input-stability does not
  apply.  The cache is kept only when (a) the tie set equals the exact
  ``oldest``-argmin set and (b) a no-collapse margin holds:
  ``o_second - o_min > 2**-40 * (o_span + T)`` with ``T`` a finite
  bound on the clock (the engine's ``max_sim_time``).  Argmin members
  always normalize to exactly ``1.0`` (their age is bitwise the max,
  so the numerator is bitwise the span); the margin guarantees no
  non-member quotient can round up to ``1.0`` at *any* later clock:
  each of the ~4 roundings contributes relative error ``2**-53`` plus
  absolute error ``2**-53 * now`` from the age subtraction, totalling
  under ``2**-48 * (o_span + T) / o_span`` of quotient error against a
  reserved headroom of ``2**-40 * (1 + T / o_span)`` — 256× slack.
  The margin also keeps the normalized span strictly positive, so the
  all-tie ``span <= 0`` branch cannot activate mid-stretch.  Without
  a clock bound ``T`` there is no margin, and ``alpha = 1`` caches
  only a tie set of bitwise-equal ``oldest`` values, which ties at
  every clock.

When the build-time conditions fail — they need distinct metric values
within rounding distance, such as cached atoms whose
``W / (T_m * W)`` rounds one ulp apart — the scheduler recomputes that
decision; correctness never depends on the cache being usable.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.config import CostModel, SchedulerConfig
from repro.core.base import Batch
from repro.core.contention import ContentionSchedulerBase
from repro.core.metrics import workload_throughput
from repro.grid.dataset import DatasetSpec

__all__ = ["LifeRaftScheduler"]


class LifeRaftScheduler(ContentionSchedulerBase):
    """Single-atom contention/age-ordered batch scheduler.

    ``time_bound`` is a finite upper bound on the decision clock; at
    ``alpha = 1`` it is what lets a tie set of distinct ages be cached
    (module docstring).
    """

    def __init__(
        self,
        spec: DatasetSpec,
        cost: CostModel,
        config: Optional[SchedulerConfig] = None,
        alpha: Optional[float] = None,
        time_bound: Optional[float] = None,
    ) -> None:
        config = config or SchedulerConfig()
        if alpha is not None:
            config = config.with_(alpha=alpha)
        # LifeRaft never adapts alpha nor batches beyond one atom.
        config = config.with_(
            adaptive_alpha=False, two_level=False, batch_size=1, job_aware=False
        )
        super().__init__(spec, cost, config)
        self.name = f"LifeRaft(alpha={config.alpha:g})"
        a = config.alpha
        self._reduced_metric = config.metric.normalize and (a == 0.0 or a == 1.0)
        self._time_bound = (
            time_bound if time_bound is not None and math.isfinite(time_bound) else None
        )
        # Cached tie set: ascending atom ids, next index to drain, and
        # the queue version the cache is valid for.
        self._tie_ids: list[int] = []
        self._tie_pos = 0
        self._tie_ver = -1

    def next_batch(self, now: float) -> Optional[Batch]:
        if not self._reduced_metric:
            ids, _, _, u_e = self._metric_view(now)
            if len(ids) == 0:
                return None
            # Tie-break equal metrics by packed atom id: cached atoms all
            # share U_t = 1/T_m, and draining ties in (timestep, Morton)
            # order preserves disk sequentiality and stencil locality.
            ties = np.flatnonzero(u_e == u_e.max())
            return self._drain([int(ids[ties].min())])
        queues = self.queues
        if queues.version == self._tie_ver and self._tie_pos < len(self._tie_ids):
            # Pure-drain stretch: replay the cached tie set.
            best = self._tie_ids[self._tie_pos]
            self._tie_pos += 1
            batch = self._drain([best])
            self._tie_ver = queues.version
            return batch
        ids, counts, oldest, cached = queues.active_view()
        if len(ids) == 0:
            return None
        alpha_zero = self.config.alpha == 0.0
        v = workload_throughput(counts, cached, self.cost) if alpha_zero else now - oldest
        lo = v.min()
        hi = v.max()
        span = hi - lo
        if span <= 0:
            tie_ids = ids
            # At alpha = 0 all u are bitwise equal and draining keeps
            # them so.  Equal *computed* ages can hide distinct oldest
            # values that diverge at a later clock, so alpha = 1 caches
            # only the bitwise all-equal case.
            cacheable = alpha_zero or bool((oldest == oldest[0]).all())
        else:
            tie_ids = ids[(v - lo) / span == 1.0]
            if alpha_zero:
                cacheable = tie_ids.size == np.count_nonzero(v == hi)
            else:
                cacheable = False
                if self._time_bound is not None:
                    o_min = oldest.min()
                    at_min = oldest == o_min
                    if int(np.count_nonzero(at_min)) == tie_ids.size:
                        o_span = float(oldest.max() - o_min)
                        margin = 2.0**-40 * (o_span + self._time_bound)
                        cacheable = float(oldest[~at_min].min() - o_min) > margin
        if cacheable and tie_ids.size > 1:
            self._tie_ids = np.sort(tie_ids).tolist()
            self._tie_pos = 1
            batch = self._drain([self._tie_ids[0]])
            self._tie_ver = queues.version
            return batch
        self._tie_ver = -1
        return self._drain([int(tie_ids.min())])
