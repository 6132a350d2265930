"""E4 — Section IV-A4: the city coverage study, at metro scale.

Two halves, one report:

**Walker study (Wi2Me).**  Castignani et al. (quoted by the paper): in
a medium-sized French city WiFi was nominally available 98.9 % of the
time (3G: 99.23 %) but an actual Internet connection was possible only
53.8 % of the time, due to closed APs, association delay and
multi-second handover gaps.  A random-waypoint walker crosses an urban
AP deployment for an hour; every second is classified radio-covered /
actually-usable / cellular.  Expected shape: in-range ~99 %, usable
50-65 %, cellular > 95 %, dozens of handovers per hour.

**Metro population study (repro.scale).**  The same question asked at
the paper's §IV scale — given 10^6 concurrent MAR users across a metro
cell deployment, what fraction of user time is the network actually
*MAR-usable*?  The hybrid-fidelity layer (docs/SCALE.md) runs every
cell's background load as a fluid process and drops event-level
foreground sessions into each cell under that load: the walker study's
radio/usable gap reappears as the gap between cells that are *covered*
and cell-time that meets the §III-B MAR requirements under load.
"""

from conftest import run_once

from repro.analysis.report import ascii_table
from repro.analysis.stats import mean
from repro.fleet import run_campaign
from repro.scale.shards import CITY_BUDGETS, city_coverage_campaign, city_users
from repro.wireless.handover import CoverageMap
from repro.wireless.mobility import RandomWaypoint

SEEDS = [1, 2, 3, 4, 5]
WALK_SECONDS = 3600

#: The metro tier: 512 cells / ~10^6 distinct background users.
CITY_BUDGET = "metro"


def run_walks():
    traces = []
    for seed in SEEDS:
        coverage = CoverageMap.urban(seed=seed)
        walk = RandomWaypoint(seed=seed).trajectory(WALK_SECONDS)
        traces.append(coverage.connectivity(walk))
    return traces


def run_city():
    return run_campaign(city_coverage_campaign(CITY_BUDGET), workers=1)


def run_study():
    return run_walks(), run_city()


def test_e4_city_coverage(benchmark, record_result):
    traces, city = run_once(benchmark, run_study)

    in_range = mean([t.wifi_in_range_fraction for t in traces])
    usable = mean([t.wifi_usable_fraction for t in traces])
    cellular = mean([t.cellular_fraction for t in traces])
    any_conn = mean([t.any_connectivity_fraction for t in traces])
    handovers = mean([float(t.handover_count()) for t in traces])

    walk_table = ascii_table(
        ["quantity", "paper (Wi2Me)", "measured (5 walks x 1 h)"],
        [
            ["WiFi radio coverage", "98.9 %", f"{in_range:.1%}"],
            ["WiFi usable (internet)", "53.8 %", f"{usable:.1%}"],
            ["cellular coverage", "99.23 %", f"{cellular:.1%}"],
            ["any connectivity", "-", f"{any_conn:.1%}"],
            ["AP handovers per hour", "-", f"{handovers:.0f}"],
        ],
        title="Section IV-A4 — city coverage study",
    )

    agg = city.aggregate
    budget = CITY_BUDGETS[CITY_BUDGET]
    users = city_users(agg)
    rho = agg.moments["scale.utilization"].mean
    mar_ready = agg.moments["scale.mar_ready_fraction"].mean
    service = agg.moments["scale.service_fraction"].mean
    mos = agg.moments["mos"].mean
    promoted = agg.counts.get("scale.promoted_sessions", 0)
    city_table = ascii_table(
        ["quantity", "value"],
        [
            ["cells / cohort sessions", f"{budget.n_cells} / "
                                        f"{agg.counts['sessions']}"],
            ["background users", f"{users:,}"],
            ["mean cell utilization", f"{rho:.2f}"],
            ["user-time served", f"{service:.1%}"],
            ["cell-time MAR-ready (III-B)", f"{mar_ready:.1%}"],
            ["contention promotions", f"{promoted}"],
            ["foreground MOS under load", f"{mos:.2f}/5"],
        ],
        title=f"Metro population study — repro.scale, "
              f"budget={CITY_BUDGET}",
    )
    record_result("E4_city_coverage", walk_table + "\n\n" + city_table)

    # Walker study: the paper's headline numbers.
    assert in_range > 0.95                       # radio almost everywhere
    assert 0.45 < usable < 0.70                  # but barely half usable
    assert usable < in_range - 0.25              # the paper's headline gap
    assert cellular > 0.93
    assert any_conn > usable                     # multipath's opportunity
    assert handovers > 10

    # Metro study: the same gap at population scale.
    assert users >= 10**6                        # a real metro population
    assert len(city.outcomes) == budget.n_cells * budget.cohort
    assert not city.quarantined
    assert service > 0.80                        # most user-time served...
    assert mar_ready < 0.50                      # ...but MAR-ready well
    assert mar_ready > 0.0                       #    under half of cell-time
    assert 1.0 <= mos <= 5.0
    assert promoted > 0                          # contention tier exercised
