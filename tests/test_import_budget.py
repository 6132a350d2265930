"""Cold-start budget: the simulation path runs on the standard library.

``import repro`` used to load networkx, ``repro.core`` loaded
``scipy.ndimage``, and every fleet worker paid ~0.5 s and ~45 MiB for
packages no simulation calls (docs/PERF.md, "Cold start and
footprint").  Each case here runs in a fresh interpreter — the test
session itself has numpy loaded, which would mask everything — and asks
which third-party packages ended up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

_REPORT = """
import json, sys
print(json.dumps(sorted({m.split(".")[0] for m in sys.modules}
                        & {"numpy", "scipy", "networkx"})))
"""


def third_party_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; the third-party roots it loaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# -- (a) importing ------------------------------------------------------
SIMULATION_PATH = [
    "repro", "repro.simnet", "repro.transport", "repro.core", "repro.mar",
    "repro.wireless", "repro.edge", "repro.obs", "repro.analysis",
    "repro.fleet", "repro.scale", "repro.check", "repro.cli",
    "repro.vision.costs",
]


@pytest.mark.parametrize("module", SIMULATION_PATH)
def test_import_loads_no_third_party_package(module):
    assert third_party_after(f"import {module}") == []


# -- (b) running: deleted, not deferred into the first pass -------------
#: One small shard per registered fleet scenario.  The ``city_coverage``
#: shard is smoke cell 0 of city 7, member 0: its cell has a contended
#: episode, so a background user is promoted to an event-level session
#: (``OffloadExecutor.for_cell`` → ``repro.edge.assignment``, the edge
#: that used to import an LP solver to read a tuple).
SHARDS = {
    "cell_offload": {"duration": 0.5},
    "wifi_anomaly_cell": {"n_fast": 2, "n_slow": 1, "duration": 0.5},
    "table2_offload": {"n_frames": 5},
    "city_coverage": {"budget": "smoke", "city_seed": 7, "cell": 0, "member": 0},
    "cell_contention": {"fluid_duration": 60.0, "duration": 0.5, "load": 1.2},
}

RUN_FLEET_SHARDS = f"""
import repro.fleet.scenarios
from repro.fleet.campaign import _SCENARIOS, get_scenario
shards = {SHARDS!r}
assert sorted(shards) == sorted(_SCENARIOS), sorted(_SCENARIOS)
for name, params in shards.items():
    agg = get_scenario(name).fn(3, params)
    if name == "city_coverage":
        assert agg.counts["scale.promoted_sessions"] == 1, agg.counts
"""

RUN_OBSERVED_TABLE2 = """
from repro.mar.application import APP_ARCHETYPES
from repro.mar.devices import CLOUD, SMARTPHONE
from repro.mar.offload import FeatureOffload, OffloadExecutor
from repro.obs import Tracer, attach_frame_observer
from repro.simnet.engine import Simulator
from repro.simnet.network import Network

sim = Simulator(seed=3)
net = Network(sim)
net.add_host("client")
net.add_host("server")
net.add_duplex("server", "client", 80e6, 40e6, delay=0.018)
net.build_routes()
executor = OffloadExecutor(net, "client", "server", APP_ARCHETYPES["orientation"],
                           FeatureOffload(), SMARTPHONE, server_device=CLOUD)
tracer = Tracer(sim)
attach_frame_observer(executor, tracer)
assert executor.run(n_frames=20).frames_completed == 20
# The server span carries the per-stage split of the analytic cost model.
assert any("mc_detect" in span.attrs for span in tracer.spans), "no stage costs"
"""

RUN_OBS_SCENARIO = """
from repro.obs.runner import run_obs_scenario
run_obs_scenario("cell_offload", seed=3, frames=20)
"""


@pytest.mark.parametrize("code", [RUN_FLEET_SHARDS, RUN_OBSERVED_TABLE2,
                                  RUN_OBS_SCENARIO],
                         ids=["fleet-shards", "observed-table2", "obs-scenario"])
def test_running_loads_no_third_party_package(code):
    assert third_party_after(code) == []


# -- (c) negative control: the probe can fail ---------------------------
def test_array_code_still_loads_numpy():
    assert "numpy" in third_party_after("import repro.vision.overlay")


# -- (d) the deferred imports still resolve -----------------------------
def test_deferred_imports_resolve_when_called():
    loaded = third_party_after("""
from repro.edge import CityTopology, PlacementProblem, solve_lp_rounding

topo = CityTopology.random_city(n_users=12, n_sites=4, seed=1)
assert solve_lp_rounding(PlacementProblem(topo)).feasible
""")
    assert loaded == ["numpy", "scipy"]


# -- (e) the fleet stays off the observability layer --------------------
def test_fleet_import_leaves_obs_unloaded():
    """``repro.fleet`` takes its canonical-JSON setting from
    ``repro.analysis.stats``, not ``repro.obs``: a fleet worker that
    runs without telemetry never pays for loading the obs layer."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, repro.fleet; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
