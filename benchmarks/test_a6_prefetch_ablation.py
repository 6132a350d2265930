"""A6 — extension: cache/prefetch effect on P_local+externalDB (§III-B).

"Caching and prefetching mechanisms can reduce the network overhead of
P_local+externalDB."  A pedestrian repeats a commute through
geo-anchored content; three cache policies produce three hit ratios
(the x parameter), which feed straight into the execution-delay
equation.

Expected shape: Markov prediction lifts the hit ratio well above
demand-only caching, at a tiny speculative-byte cost.  Blanket
neighbour prefetch, by contrast, *pollutes* the byte-bounded cache —
speculative objects evict useful ones and the hit ratio lands *below*
demand-only (it only catches up when the cache is large enough to hold
everything).  The resulting hit ratios feed the x parameter of
P_local+externalDB and decide whether the orientation archetype meets
its deadline on a smartphone.
"""

from conftest import run_once

from repro.analysis.report import ascii_table, format_time
from repro.mar.application import APP_ARCHETYPES
from repro.mar.compute import ExecutionBudget, local_with_db_delay
from repro.mar.devices import SMARTPHONE
from repro.mar.prefetch import GridWorld, PrefetchingCache
from repro.wireless.mobility import Waypoint

ORIENTATION = APP_ARCHETYPES["orientation"]
NET = ExecutionBudget(bandwidth_up_bps=10e6, bandwidth_down_bps=25e6, latency=0.030)
CACHE_BYTES = 4_000_000


def commute(repeats=8):
    path = []
    t = 0.0
    for _ in range(repeats):
        for x in range(0, 1500, 50):
            path.append(Waypoint(t, float(x), 100.0))
            t += 1.0
        for x in range(1500, 0, -50):
            path.append(Waypoint(t, float(x), 100.0))
            t += 1.0
    return path


def run_policies():
    world = GridWorld(seed=3)
    path = commute()
    out = {}
    for policy in ("none", "neighbours", "markov"):
        cache = PrefetchingCache(world, CACHE_BYTES, policy=policy)
        hit = cache.run_trace(path)
        out[policy] = (hit, cache.prefetched_bytes)
    return out


def test_a6_prefetch_policies(benchmark, record_result):
    outcome = run_once(benchmark, run_policies)

    rows = []
    for policy, (hit, prefetched) in outcome.items():
        delay = local_with_db_delay(SMARTPHONE, ORIENTATION, NET,
                                    cache_hit_ratio=hit)
        rows.append([
            policy,
            f"{hit:.1%}",
            f"{prefetched / 1e6:.1f} MB",
            format_time(delay),
            "yes" if delay < ORIENTATION.deadline else "no",
        ])
    table = ascii_table(
        ["policy", "hit ratio (x)", "speculative bytes",
         "P_local+externalDB", "meets deadline"],
        rows,
        title="A6 — prefetching and the x parameter (commuter, orientation app)",
    )
    record_result("A6_prefetch", table)

    hit_none = outcome["none"][0]
    hit_neigh = outcome["neighbours"][0]
    hit_markov = outcome["markov"][0]
    # Markov prediction lifts the hit ratio substantially.
    assert hit_markov > hit_none + 0.1
    # Blanket neighbour prefetch pollutes a byte-bounded cache.
    assert hit_neigh < hit_none
    # And spends orders of magnitude more speculative bytes.
    assert outcome["markov"][1] < outcome["neighbours"][1] / 5
    # The delay equation orders with the hit ratio.
    d_none = local_with_db_delay(SMARTPHONE, ORIENTATION, NET, hit_none)
    d_markov = local_with_db_delay(SMARTPHONE, ORIENTATION, NET, hit_markov)
    assert d_markov < d_none
