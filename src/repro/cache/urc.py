"""Utility-Ranked Caching (paper §V-B).

URC coordinates eviction with the two-level scheduler: because JAWS
evaluates batches of ``k`` atoms from one time step together, atoms
that will be *scheduled together soon* must be *cached together*.  URC
therefore evicts

* atoms from the time step with the lowest mean workload throughput
  first, and
* within a time step, atoms in increasing workload-throughput order,

i.e. the resident atom least useful to the pending workload — a
workload-informed approximation of Belady's farthest-in-future rule.

The scheduler installs ``set_utility_fn`` (a key function returning
``(mean U of the atom's time step, U of the atom)``) and calls
``invalidate_utilities`` whenever queue state changes, mirroring the
paper's observation that URC "must update the ranks of all atoms in the
corresponding time step" after each query/time step — which is exactly
why its overhead (7 ms/query in Table I) exceeds SLRU's.  Each refresh
re-ranks every resident atom and adds that count to ``rank_updates``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.base import CachePolicy, register_policy

__all__ = ["URCPolicy"]


@register_policy("urc")
class URCPolicy(CachePolicy):
    """Evict the resident atom with the lowest scheduler utility.

    Falls back to LRU order among utility ties (and to pure LRU until a
    utility function is installed), so the policy degrades gracefully
    when run without a coordinating scheduler.
    """

    def __init__(self) -> None:
        self._resident: dict[int, float] = {}  # atom -> last access time
        self._utility_fn: Optional[Callable[[int], tuple]] = None
        self._ranks: dict[int, tuple] = {}
        self._ranks_valid = False

    def set_utility_fn(self, fn: Callable[[int], tuple]) -> None:
        self._utility_fn = fn
        self._ranks_valid = False

    def invalidate_utilities(self) -> None:
        self._ranks_valid = False

    def on_insert(self, atom_id: int, now: float) -> None:
        self._resident[atom_id] = now
        self._ranks_valid = False

    def on_evict(self, atom_id: int) -> None:
        self._resident.pop(atom_id, None)
        self._ranks.pop(atom_id, None)

    def on_access(self, atom_id: int, now: float) -> None:
        self._resident[atom_id] = now

    def _refresh_ranks(self) -> None:
        fn = self._utility_fn
        assert fn is not None
        self._ranks = {atom_id: fn(atom_id) for atom_id in self._resident}
        self._ranks_valid = True
        self.rank_updates += len(self._resident)

    def choose_victim(self) -> int:
        if not self._resident:
            raise RuntimeError("choose_victim called on empty cache")
        if self._utility_fn is None:
            return min(self._resident, key=self._resident.__getitem__)
        if not self._ranks_valid:
            self._refresh_ranks()
        # Lowest utility first; LRU tiebreak.
        return min(
            self._resident,
            key=lambda a: (self._ranks.get(a, ()), self._resident[a]),
        )
