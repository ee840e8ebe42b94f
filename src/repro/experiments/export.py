"""CSV export of experiment results (for external plotting).

Each figure/table harness returns plain dicts; these helpers flatten
them into CSV files so the series can be re-plotted outside Python
(the repository itself renders text-mode figures via
:mod:`repro.experiments.report`).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["write_rows", "export_fig10", "export_fig11", "export_fig12", "export_table1"]


def write_rows(path: str | Path, headers: Sequence[str], rows: Sequence[Sequence]) -> Path:
    """Write one CSV file; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    return path


def export_fig10(data: Mapping, path: str | Path) -> Path:
    rows = [
        (
            name,
            v["throughput_qps"],
            v["relative"],
            v["paper_relative"],
            v["mean_rt"],
            v["cache_hit"],
            v["disk_reads"],
        )
        for name, v in data["rows"].items()
    ]
    return write_rows(
        path,
        ["scheduler", "throughput_qps", "relative", "paper_relative", "mean_rt_s", "cache_hit", "disk_reads"],
        rows,
    )


def export_fig11(data: Mapping, path: str | Path) -> Path:
    headers = ["speedup"]
    schedulers = list(data["throughput"])
    headers += [f"tp_{s}" for s in schedulers] + [f"rt_{s}" for s in schedulers]
    rows = []
    for i, speedup in enumerate(data["speedups"]):
        row = [speedup]
        row += [data["throughput"][s][i] for s in schedulers]
        row += [data["response_time"][s][i] for s in schedulers]
        rows.append(row)
    return write_rows(path, headers, rows)


def export_fig12(data: Mapping, path: str | Path) -> Path:
    rows = list(zip(data["ks"], data["throughput"]))
    rows.append(("liferaft2", data["liferaft2"]))
    return write_rows(path, ["k", "throughput_qps"], rows)


def export_table1(data: Mapping, path: str | Path) -> Path:
    rows = [
        (
            policy,
            v["cache_hit"],
            v["sec_per_qry"],
            v["rank_updates_per_qry"],
            v["throughput_qps"],
        )
        for policy, v in data["rows"].items()
    ]
    return write_rows(
        path, ["policy", "cache_hit", "sec_per_qry", "rank_updates_per_qry", "throughput_qps"], rows
    )
