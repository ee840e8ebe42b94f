"""External per-layer ledger: spans wrapped around public entry points.

While a :class:`Ledger` is installed, each traced entry point is
replaced by a wrapper that counts its calls and its *self* time: its
wall duration minus the part of it covered by traced callees.  The
wrappers are set where the caller looks the name up -- on the class
for methods, on the importing module for functions -- and never on an
instance: a wrapper stored on an instance would ride into checkpoint
snapshots and fail to pickle.  Uninstalling restores every attribute
exactly, so untraced replays in the same process run the original
code.

This is an outside view kept by the benchmark.  The in-program probe
the repo plans (one ``repro.obs`` probe with spans at the same seams)
must reproduce these numbers before it replaces them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Optional

__all__ = ["COUNTERS", "SPANS", "Ledger"]

_MISSING = object()

#: span name -> (module, owner attribute or None for a module-level
#: function, attribute).  A method is wrapped on every listed owner
#: class; for a module-level function the owner is the module that
#: calls it under that name.
SPANS: dict[str, tuple[tuple[str, Optional[str], str], ...]] = {
    "engine.loop": (("repro.engine.simulator", "Simulator", "run"),),
    "engine.executor.execute": (("repro.engine.executor", "BatchExecutor", "execute"),),
    "storage.buffer.access": (("repro.storage.buffer", "BufferCache", "access"),),
    "cache.choose_victim": (
        ("repro.cache.lruk", "LRUKPolicy", "choose_victim"),
        ("repro.cache.urc", "URCPolicy", "choose_victim"),
    ),
    "storage.disk.read_atom": (("repro.storage.disk", "DiskModel", "read_atom"),),
    "workload.preprocess_query": (("repro.engine.simulator", None, "preprocess_query"),),
    "core.next_batch": (
        ("repro.core.jaws", "JAWSScheduler", "next_batch"),
        ("repro.core.liferaft", "LifeRaftScheduler", "next_batch"),
        ("repro.core.noshare", "NoShareScheduler", "next_batch"),
    ),
    "core.on_query_arrival": (
        ("repro.core.jaws", "JAWSScheduler", "on_query_arrival"),
        ("repro.core.liferaft", "LifeRaftScheduler", "on_query_arrival"),
        ("repro.core.noshare", "NoShareScheduler", "on_query_arrival"),
    ),
    "core.on_job_submitted": (
        ("repro.core.jaws", "JAWSScheduler", "on_job_submitted"),
        ("repro.core.liferaft", "LifeRaftScheduler", "on_job_submitted"),
        ("repro.core.noshare", "NoShareScheduler", "on_job_submitted"),
    ),
    "core.merge.align_jobs": (("repro.core.merge", None, "align_jobs"),),
    "core.gating.admit_edge": (("repro.core.gating", "PrecedenceGraph", "admit_edge"),),
    "recovery.log_event": (("repro.recovery.checkpoint", "CheckpointManager", "log_event"),),
    "recovery.maybe_snapshot": (
        ("repro.recovery.checkpoint", "CheckpointManager", "maybe_snapshot"),
    ),
}

#: Call counters that are not spans: (module, attribute, counter name).
_COUNTED = (("repro.recovery.checkpoint", "encode_snapshot", "recovery.snapshots"),)
#: Every counter a ledger keeps besides span calls.
COUNTERS = ("core.decisions", "core.batch_atoms", "recovery.snapshots")


class Ledger:
    """Span calls, self time and batch counters of one traced replay."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        # Child-time accumulators of the open spans; the bottom entry
        # collects top-level time and is never read.
        self._open: list[int] = [0]
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------
    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_ns, open_ = self.calls, self.self_ns, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            open_.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_.pop()
                open_[-1] += elapsed
                self_ns[name] += elapsed - children
                calls[name] += 1

        return span

    def _batch_counter(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        counters = self.counters

        @functools.wraps(fn)
        def next_batch(*args: Any, **kwargs: Any) -> Any:
            batch = fn(*args, **kwargs)
            if batch is not None and batch.n_atoms:
                counters["core.decisions"] += 1
                counters["core.batch_atoms"] += batch.n_atoms
            return batch

        return next_batch

    def _call_counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name == "core.next_batch":
            fn = self._batch_counter(fn)
        return self._span(name, fn)

    # -- install / uninstall ---------------------------------------------
    def _replace(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        # Record only what the owner itself defines, so restoring an
        # inherited method deletes the shadowing wrapper instead of
        # copying the base implementation onto the subclass.
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("ledger already installed")
        try:
            for name, targets in SPANS.items():
                for module_name, owner_name, attr in targets:
                    module = importlib.import_module(module_name)
                    owner = module if owner_name is None else getattr(module, owner_name)
                    self._replace(owner, attr, functools.partial(self._wrap, name))
            for module_name, attr, counter in _COUNTED:
                module = importlib.import_module(module_name)
                self._replace(module, attr, functools.partial(self._call_counter, counter))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
