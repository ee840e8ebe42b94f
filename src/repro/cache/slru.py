"""Segmented LRU with per-run batch promotion (paper §V-B).

The paper's SLRU variant differs from classic SLRU (Karedla et al.):
instead of promoting on the second hit, it counts accesses during each
*run* of the workload and, at the run boundary, promotes the most
frequently accessed atoms into a small *protected* segment (5–10 % of
the cache).  Atoms squeezed out of the protected segment re-enter the
probationary segment at its MRU end.  Victims always come from the
probationary LRU end, so repeatedly queried regions of interest (e.g.
clustered inertial particles) survive full-time-step scans.

"Implementing this policy incurs almost no additional overhead"
(Table I: < 1 ms/query) — promotion work is O(residents·log) once per
run, amortized over the run's queries.  Each boundary ranks the run's
accessed atoms and adds that count to ``rank_updates``.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from repro.cache.base import CachePolicy, register_policy

__all__ = ["SLRUPolicy"]


@register_policy("slru")
class SLRUPolicy(CachePolicy):
    """Segmented LRU with batch promotion at run boundaries.

    Parameters
    ----------
    capacity:
        Total cache capacity in atoms (needed to size the protected
        segment).
    protected_fraction:
        Fraction of ``capacity`` reserved for the protected segment
        (the paper allocates 5 %).
    """

    def __init__(self, capacity: int = 256, protected_fraction: float = 0.05) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < protected_fraction < 1.0:
            raise ValueError("protected_fraction must be in (0, 1)")
        self._protected_cap = max(1, int(round(capacity * protected_fraction)))
        self._probation: OrderedDict[int, None] = OrderedDict()
        self._protected: OrderedDict[int, None] = OrderedDict()
        self._run_counts: dict[int, int] = {}

    # -- residency ------------------------------------------------------
    def on_insert(self, atom_id: int, now: float) -> None:
        self._probation[atom_id] = None

    def on_evict(self, atom_id: int) -> None:
        self._probation.pop(atom_id, None)
        self._protected.pop(atom_id, None)
        self._run_counts.pop(atom_id, None)

    def on_access(self, atom_id: int, now: float) -> None:
        # Recency is tracked within the atom's current segment.
        if atom_id in self._protected:
            self._protected.move_to_end(atom_id)
        else:
            self._probation.move_to_end(atom_id)
        self._run_counts[atom_id] = self._run_counts.get(atom_id, 0) + 1

    def choose_victim(self) -> int:
        if self._probation:
            return next(iter(self._probation))
        return next(iter(self._protected))

    # -- run boundary: batch promotion -----------------------------------
    def on_run_boundary(self) -> None:
        if not self._run_counts:
            return
        self.rank_updates += len(self._run_counts)
        resident = [
            (count, atom_id)
            for atom_id, count in self._run_counts.items()
            if atom_id in self._probation or atom_id in self._protected
        ]
        top = heapq.nlargest(self._protected_cap, resident)
        promote = {atom_id for _, atom_id in top}

        # Demote protected atoms that fell out of the top set to the MRU
        # end of the probationary segment (paper: evicted-from-protected
        # atoms are inserted at the probationary MRU end).
        for atom_id in [a for a in self._protected if a not in promote]:
            del self._protected[atom_id]
            self._probation[atom_id] = None

        for atom_id in promote:
            if atom_id in self._probation:
                del self._probation[atom_id]
                self._protected[atom_id] = None
            else:
                self._protected.move_to_end(atom_id)

        self._run_counts.clear()

    # -- diagnostics ------------------------------------------------------
    @property
    def protected_size(self) -> int:
        """Current number of atoms in the protected segment."""
        return len(self._protected)

    @property
    def probation_size(self) -> int:
        """Current number of atoms in the probationary segment."""
        return len(self._probation)
