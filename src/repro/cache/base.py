"""Cache replacement policy interface and registry.

The buffer cache (:mod:`repro.storage.buffer`) delegates victim
selection to a :class:`CachePolicy`.  Policies see every access and
insert/evict, plus the *run boundary* callback that drives SLRU's batch
promotion (paper §V-B) and, for URC, a utility function exported by the
scheduler.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Type

__all__ = ["CachePolicy", "register_policy", "make_policy", "available_policies"]


class CachePolicy(ABC):
    """Replacement policy for a fixed-capacity cache of atom ids.

    The owning :class:`~repro.storage.buffer.BufferCache` guarantees:

    * ``on_insert`` is called once per resident atom, and ``on_evict``
      exactly once when it leaves;
    * ``on_access`` is called for every lookup of a *resident* atom
      (hits) and immediately after ``on_insert`` for misses;
    * ``choose_victim`` is only called when the cache is full, and must
      return a currently resident atom id.

    ``rank_updates`` counts atoms whose eviction rank the policy
    recomputed: a deterministic measure of Table I's bookkeeping
    overhead, left at 0 by policies that keep no separate ranking.
    """

    rank_updates: int = 0

    @abstractmethod
    def on_insert(self, atom_id: int, now: float) -> None:
        """An atom became resident."""

    @abstractmethod
    def on_evict(self, atom_id: int) -> None:
        """An atom left the cache (via ``choose_victim`` or explicit drop)."""

    @abstractmethod
    def on_access(self, atom_id: int, now: float) -> None:
        """A resident atom was referenced."""

    @abstractmethod
    def choose_victim(self) -> int:
        """Pick the resident atom to evict."""

    def on_run_boundary(self) -> None:
        """The engine completed one run of the workload (default: no-op)."""

    def set_utility_fn(self, fn: Callable[[int], tuple]) -> None:
        """Install the scheduler's utility ranking (URC only; default no-op).

        ``fn(atom_id)`` returns a sort key that is *lower* for atoms
        that should be evicted sooner.
        """

    def invalidate_utilities(self) -> None:
        """Scheduler state changed; cached utility ranks are stale
        (URC only; default no-op)."""


_REGISTRY: Dict[str, Type[CachePolicy]] = {}


def register_policy(name: str) -> Callable[[Type[CachePolicy]], Type[CachePolicy]]:
    """Class decorator registering a policy under ``name``."""

    def deco(cls: Type[CachePolicy]) -> Type[CachePolicy]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate cache policy name: {name}")
        _REGISTRY[name] = cls
        return cls

    return deco


def make_policy(name: str, **kwargs: object) -> CachePolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_policies() -> list[str]:
    """Names of all registered policies."""
    return sorted(_REGISTRY)
