"""Regenerates Table I — performance and overhead of caching
algorithms (LRU-K vs SLRU vs URC under JAWS2)."""

from conftest import run_once

from repro.experiments import table1


def test_table1_cache_policies(benchmark, scale):
    data = run_once(benchmark, table1.run, scale)
    print()
    print(table1.render(data))
    rows = data["rows"]
    # Paper ordering: URC > SLRU > LRU-K on hit ratio; URC fastest per
    # query; SLRU bookkeeping (atoms re-ranked per query) well below
    # URC's.
    assert rows["urc"]["cache_hit"] > rows["lruk"]["cache_hit"]
    assert rows["slru"]["cache_hit"] >= rows["lruk"]["cache_hit"] * 0.98
    assert rows["urc"]["sec_per_qry"] < rows["lruk"]["sec_per_qry"]
    assert rows["urc"]["rank_updates_per_qry"] > rows["slru"]["rank_updates_per_qry"]
