"""Replay benchmark: host cost of simulating one trace, end to end and
per layer.

Usage, from the repository root::

    python3 replaybench/run.py --workload jaws2-lruk --seed 7 --seconds 30 --trace 0

A run splits ``--seconds`` between a few fresh worker processes, one
after another (never in parallel).  Each worker times its set-up --
imports, trace generation with the trace cache off, scheduler and
simulator construction -- then one cold replay, then warm replays on
fresh simulators over the same trace until its share of the time is
spent.  In an untraced run, set-up-only workers between them add
set-up samples.  With ``--trace 1`` each warm replay is followed by
one replay under the external span ledger (``ledger.py``), so the
tracing overhead is measured against neighbouring untraced replays.
Every time is a wall time corrected for the host's speed while it was
taken (``speedometer.py``); the uncorrected medians are printed beside
the result.

Every replay is checked: the normalised ``RunResult`` and the
``float.hex`` response times must hash to the digests recorded in
``golden.json`` for this workload and seed (or, for a seed without a
record, to those of the run's first replay), the deterministic work
counters must match exactly, and the conservation and metric-sanity
oracles must hold.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count replays, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer ledger (``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

import workloads
from ledger import COUNTERS, SPANS, Ledger
from speedometer import Speedometer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Workers are started one after another until ``--seconds`` is spent,
#: but at least this many, so every run has several cold-replay and
#: set-up samples.
MIN_WORKERS = 3
#: Each worker replays warm for this share of ``--seconds``.
WORKER_SHARE = 1 / 12
#: Set-up-only workers started after each replaying worker, so that
#: ``setup_s`` is a median over several times more samples.  The time
#: left when no further replaying worker fits goes to more of them.
SETUP_ONLY_WORKERS = 2
#: A run that has not finished by then is abandoned (workers killed).
HARD_LIMIT_S = 170.0


# ----------------------------------------------------------------------
# Worker side: one fresh process
# ----------------------------------------------------------------------
def _digests(result: Any) -> tuple[str, str]:
    from repro.fuzz.oracles import normalize_result

    # normalize_result drops the wall-clock overhead fields, which
    # differ on every replay; all that remains is simulation output.
    canonical = json.dumps(normalize_result(result), sort_keys=True, default=repr)
    response_hex = ",".join(float(x).hex() for x in result.response_times)
    return (
        hashlib.sha256(canonical.encode()).hexdigest(),
        hashlib.sha256(response_hex.encode()).hexdigest(),
    )


def _result_counters(sim: Any, result: Any) -> dict[str, float]:
    """Deterministic work counters of one replay.  They are compared
    exactly on every replay and reported beside the spans."""
    return {
        "engine.events": sim.event_index,
        "core.forced_releases": result.forced_releases,
        "storage.cache.hits": result.cache.get("hits", 0),
        "storage.cache.misses": result.cache.get("misses", 0),
        "storage.cache.evictions": result.cache.get("evictions", 0),
        "storage.cache.hit_ratio": result.cache_hit_ratio,
        "engine.executor.atoms_executed": result.exec.get("atoms_executed", 0),
        "engine.executor.neighbor_reads": result.exec.get("neighbor_reads", 0),
        "storage.disk.reads": result.disk.get("reads", 0),
        "engine.faults.retries": result.retries,
        "sim.throughput_qps": result.throughput_qps,
    }


class Replayer:
    """Builds, runs and checks replays of one workload in this process."""

    def __init__(self, workload: workloads.Workload, seed: int, scratch: str) -> None:
        self.workload = workload
        self.scratch = scratch
        self.trace = workloads.build_trace(seed)
        self._ckpt: Optional[str] = None
        self.sim = self._fresh_simulator()

    def _fresh_simulator(self) -> Any:
        if self._ckpt is not None:
            shutil.rmtree(self._ckpt, ignore_errors=True)
            self._ckpt = None
        if self.workload.durable:
            self._ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=self.scratch)
        return workloads.build_simulator(self.workload, self.trace, self._ckpt)

    def replay(self, kind: str) -> dict[str, Any]:
        """Time one ``Simulator.run`` on the prepared simulator, check
        it, and prepare a fresh simulator for the next replay, whether
        or not this one raised."""
        from repro.fuzz.oracles import check_conservation, check_metric_sanity

        sim = self.sim
        ledger = Ledger() if kind == "traced" else None
        record: dict[str, Any] = {"kind": kind}
        gc.collect()
        if ledger is not None:
            ledger.install()
        meter = Speedometer()
        try:
            with meter:
                result = sim.run()
        except Exception as exc:  # a failed replay is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        finally:
            if ledger is not None:
                ledger.uninstall()
            record["wall_s"], record["time_s"] = meter.wall_s, meter.corrected_s
            self.sim = self._fresh_simulator()
        record["digest"], record["response_digest"] = _digests(result)
        counters: dict[str, float] = _result_counters(sim, result)
        if ledger is not None:
            counters.update({f"{name}.calls": ledger.calls[name] for name in SPANS})
            counters.update({name: ledger.counters[name] for name in COUNTERS})
            record["self_s"] = {
                name: ledger.self_ns[name] / 1e9 * meter.speed for name in SPANS
            }
        record["counters"] = counters
        problems = [
            check_conservation(self.trace, result),
            check_metric_sanity(result, sim.config),
        ]
        record["error"] = "; ".join(p for p in problems if p) or None
        return record

    def close(self) -> None:
        if self._ckpt is not None:
            shutil.rmtree(self._ckpt, ignore_errors=True)


def run_worker(job: dict[str, Any]) -> dict[str, Any]:
    """Set up, replay cold, then replay warm until the budget is spent.

    In traced mode every warm replay is followed by a traced one.  At
    least one warm (and traced) replay always runs.  A set-up-only
    worker (``job["replay"]`` false) stops after set-up.
    """
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[job["workload"]]
    with Speedometer() as setup:
        replayer = Replayer(workload, job["seed"], job["scratch"])
    timing = {"setup_s": setup.corrected_s, "setup_wall_s": setup.wall_s}
    if not job["replay"]:
        replayer.close()
        return timing
    kinds = ("warm", "traced") if job["traced"] else ("warm",)
    replays = []
    try:
        replays.append(replayer.replay("cold"))
        while True:
            round_start = time.perf_counter()
            for kind in kinds:
                replays.append(replayer.replay(kind))
            if any(r["error"] for r in replays):
                break
            spent = time.perf_counter() - t0
            if spent + (time.perf_counter() - round_start) > job["budget_s"]:
                break
    finally:
        replayer.close()
    return {
        **timing,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replays": replays,
    }


# ----------------------------------------------------------------------
# Parent side: spawning workers, checking replays, the result line
# ----------------------------------------------------------------------
def _spawn_worker(job: dict[str, Any], deadline: float) -> dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Generation is part of set-up, and nothing lands in .repro_cache/.
    env["REPRO_TRACE_CACHE"] = "off"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(job)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_golden(workload: str, seed: int) -> Optional[dict[str, Any]]:
    if not GOLDEN_PATH.exists():
        return None
    golden = json.loads(GOLDEN_PATH.read_text())
    return golden["workloads"].get(workload, {}).get(str(seed))


def check_replays(
    workload: workloads.Workload,
    replays: list[dict[str, Any]],
    reference: Optional[dict[str, Any]],
) -> list[str]:
    """One message per failed replay; the first clean replay is the
    reference when no digest is recorded for this seed."""
    failures = []
    for index, replay in enumerate(replays):
        problems = [replay["error"]] if replay.get("error") else []
        if not problems:
            if reference is None:
                reference = {
                    "result_sha256": replay["digest"],
                    "response_times_sha256": replay["response_digest"],
                    "counters": dict(replay["counters"]),
                }
            if replay["digest"] != reference["result_sha256"]:
                problems.append("RunResult digest differs")
            if replay["response_digest"] != reference["response_times_sha256"]:
                problems.append("response-time digest differs")
            expected = reference["counters"]
            for name, value in replay["counters"].items():
                if name in expected and expected[name] != value:
                    problems.append(f"{name} = {value}, expected {expected[name]}")
            if replay["kind"] == "traced":
                # Later replays compare against this one's span counts.
                reference["counters"] = {**replay["counters"], **expected}
                zero = [s for s in workload.nonzero_spans if not replay["counters"][f"{s}.calls"]]
                if zero:
                    problems.append(f"spans never called: {', '.join(zero)}")
        if problems:
            failures.append(f"replay {index} ({replay['kind']}): " + "; ".join(problems))
    return failures


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _median(replays: list[dict[str, Any]], kind: str, key: str = "time_s") -> float:
    return statistics.median(r[key] for r in replays if r["kind"] == kind)


def end_to_end_metrics(workers: list[dict[str, Any]], setups: list[dict[str, Any]]) -> dict[str, Any]:
    replays = [r for w in workers for r in w["replays"]]
    return {
        "replay_s": _metric(_median(replays, "warm"), "s"),
        "cold_replay_s": _metric(_median(replays, "cold"), "s"),
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": _metric(statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
    }


def wall_summary(workers: list[dict[str, Any]], setups: list[dict[str, Any]]) -> str:
    """Uncorrected wall-clock medians and the sample counts behind them."""
    replays = [r for w in workers for r in w["replays"]]
    parts = [f"workers={len(workers)}"]
    for kind in ("cold", "warm", "traced"):
        n = sum(r["kind"] == kind for r in replays)
        if n:
            parts.append(f"{kind}: n={n} wall median {_median(replays, kind, 'wall_s'):.4f} s")
    setup = statistics.median(s["setup_wall_s"] for s in setups)
    parts.append(f"setup: n={len(setups)} wall median {setup:.4f} s")
    return "; ".join(parts)


def layer_metrics(workers: list[dict[str, Any]]) -> dict[str, Any]:
    replays = [r for w in workers for r in w["replays"]]
    traced = [r for r in replays if r["kind"] == "traced" and "counters" in r]
    if not traced:
        return {}
    # Counters (span calls included) are equal on every traced replay;
    # check_replays fails the run otherwise.
    units = {"storage.cache.hit_ratio": "ratio", "sim.throughput_qps": "1/s"}
    metrics = {
        name: _metric(value, units.get(name, "count"))
        for name, value in traced[0]["counters"].items()
    }
    for name in SPANS:
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(r["self_s"][name] for r in traced), "s"
        )
    metrics["trace.overhead_frac"] = _metric(
        _median(traced, "traced") / _median(replays, "warm"), "ratio"
    )
    return metrics


def ledger_table(metrics: dict[str, Any]) -> str:
    """Human-readable span table: calls, self time and share."""
    total = sum(metrics[f"{name}.self_s"]["value"] for name in SPANS) or 1.0
    lines = [f"{'span':32} {'calls':>9} {'self_s':>9} {'share':>6}"]
    for name in sorted(SPANS, key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        self_s = metrics[f"{name}.self_s"]["value"]
        lines.append(
            f"{name:32} {metrics[f'{name}.calls']['value']:>9} "
            f"{self_s:>9.4f} {100 * self_s / total:>5.1f}%"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        print(json.dumps(run_worker(json.loads(args.worker))))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn a termination request into SystemExit, so the finally below
    # removes the scratch directory and subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    traced = bool(args.trace)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "budget_s": args.seconds * WORKER_SHARE,
        "traced": traced,
    }
    start = time.monotonic()
    end, deadline = start + args.seconds, start + HARD_LIMIT_S
    job["scratch"] = tempfile.mkdtemp(prefix=".replaybench-", dir=ROOT)
    workers: list[dict[str, Any]] = []
    setups: list[dict[str, Any]] = []
    crashed: Optional[str] = None

    def spawn(replay: bool) -> float:
        """Run one worker to its end; returns how long that took."""
        t0 = time.monotonic()
        (workers if replay else setups).append(_spawn_worker({**job, "replay": replay}, deadline))
        return time.monotonic() - t0

    try:
        while True:
            # setup_s is reported only untraced.
            cycle = spawn(True) + sum(spawn(False) for _ in range(0 if traced else SETUP_ONLY_WORKERS))
            if len(workers) >= MIN_WORKERS and time.monotonic() + cycle > end:
                break
        # Time too short for one more replaying worker goes to set-up samples.
        last = 0.0
        while not traced and time.monotonic() + last < end:
            last = spawn(False)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        # A worker that crashed or overran counts as one failed attempt;
        # the run still reports what the finished workers measured.
        crashed = f"worker: {exc}"
    finally:
        shutil.rmtree(job["scratch"], ignore_errors=True)
    setups += workers

    workload = workloads.WORKLOADS[args.workload]
    replays = [r for w in workers for r in w["replays"]]
    failures = [crashed] if crashed else []
    failures += check_replays(workload, replays, _load_golden(args.workload, args.seed))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics: dict[str, Any] = {}
    if workers:
        print(wall_summary(workers, setups))
        if not traced:
            metrics = end_to_end_metrics(workers, setups)
        elif metrics := layer_metrics(workers):
            print(ledger_table(metrics))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(replays) + (crashed is not None),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
