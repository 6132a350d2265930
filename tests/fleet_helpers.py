"""Helpers shared by the fleet and aggregate tests (not collected)."""

import math

from repro.analysis.stats import StreamingMoments, mean


def approx_equal_moments(a: StreamingMoments, b: StreamingMoments,
                         rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Merge-vs-onepass equality: exact on count/min/max, tolerant on
    the float accumulators (merging reassociates the sums)."""
    if a.count != b.count:
        return False
    if a.count == 0:
        return True
    return (a.minimum == b.minimum and a.maximum == b.maximum
            and math.isclose(a.mean, b.mean, rel_tol=rel, abs_tol=abs_tol)
            and math.isclose(a.m2, b.m2, rel_tol=rel, abs_tol=max(abs_tol, rel * a.count)))


def batch_cost_efficiency(batches, scenario=None) -> float:
    """Load-balance efficiency of a batch plan, in (0, 1].

    Parallel wall time is governed by the *heaviest* batch, so the
    useful figure is mean batch cost over peak batch cost: 1.0 means
    perfectly level batches, 0.5 means the heaviest batch carries twice
    the average and half the fleet idles while it drains.  Costs come
    from the scenario's ``cost_hint`` (shard count when there is none),
    the same weights ``plan_batches`` planned with, so this audits the
    planner's own objective.
    """
    if not batches:
        return 1.0
    if scenario is not None and scenario.cost_hint is not None:
        costs = [math.fsum(scenario.shard_cost(s.spec.param_dict())
                           for s in batch)
                 for batch in batches]
    else:
        costs = [float(len(batch)) for batch in batches]
    peak = max(costs)
    if peak <= 0:
        return 1.0
    return mean(costs) / peak


def scenario_names():
    """Every registered fleet scenario, the built-ins included, sorted."""
    import repro.fleet.scenarios  # noqa: F401  (registers the built-ins)
    from repro.fleet.campaign import _SCENARIOS

    return sorted(_SCENARIOS)
