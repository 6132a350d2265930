"""Integration: smart glasses offloading through a companion smartphone.

Table I gives smart glasses *Bluetooth only* network access — the paper
notes "a smartphone may work as a companion device to a pair of smart
glasses".  The glasses reach the world exclusively through the phone:

    glasses --Bluetooth--> phone --WiFi--> cloud

These tests verify the relay topology end-to-end: the Bluetooth leg is
the bandwidth bottleneck (full-frame offload can't fit; feature offload
can), while the latency overhead of the extra hop is modest.
"""

from dataclasses import replace

import pytest

from repro.mar.application import APP_ARCHETYPES
from repro.mar.devices import CLOUD, SMART_GLASSES
from repro.mar.offload import FeatureOffload, FullOffload, OffloadExecutor
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.wireless import profiles
from repro.wireless.profiles import BLUETOOTH, WIFI_HOME

ORIENTATION = APP_ARCHETYPES["orientation"]
GAMING = APP_ARCHETYPES["gaming"]


def glasses_topology(seed=71):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_host("glasses")
    net.add_host("phone")
    net.add_host("cloud")
    with pytest.MonkeyPatch.context() as mp:
        # A 100-packet uplink buffer on the Bluetooth leg only.
        mp.setattr(profiles, "UPLINK_BUFFER_PACKETS", 100)
        replace(BLUETOOTH, sigma=0.0).build_duplex(net, "phone", "glasses")
    replace(WIFI_HOME, sigma=0.0).build_duplex(net, "cloud", "phone")
    net.build_routes()
    return sim, net


def test_glasses_reach_cloud_through_phone():
    sim, net = glasses_topology()
    links = net.path_links("glasses", "cloud")
    assert [l.dst.name for l in links] == ["phone", "cloud"]


def test_bluetooth_is_the_bottleneck():
    sim, net = glasses_topology()
    links = net.path_links("glasses", "cloud")
    assert min(l.rate_bps for l in links) == BLUETOOTH.up_mean


def test_feature_offload_fits_bluetooth_full_does_not():
    # Offered uplink rates vs the ~1.8 Mb/s Bluetooth ceiling.
    feature_bps = (ORIENTATION.feature_upload_bytes * 8 * ORIENTATION.fps
                   + ORIENTATION.sensor_rate_bps)
    assert feature_bps < BLUETOOTH.up_mean
    assert ORIENTATION.uplink_bps > BLUETOOTH.up_mean


def test_feature_offload_session_over_relay():
    sim, net = glasses_topology()
    executor = OffloadExecutor(net, "glasses", "cloud", ORIENTATION,
                               FeatureOffload(), SMART_GLASSES,
                               server_device=CLOUD)
    result = executor.run(n_frames=120)
    # Bluetooth's ~1 % packet loss costs whole frames under naive UDP
    # fragmentation (no recovery): ~5-15 % frame loss is the honest
    # price of skipping a reliability layer on this leg.
    assert result.loss_rate < 0.15
    # Two-hop RTT: Bluetooth (~30 ms) + home WiFi (~4 ms) legs.
    assert 0.025 < result.mean_link_rtt < 0.06
    assert result.frames_completed > 100


def test_full_offload_over_relay_saturates_bluetooth():
    sim, net = glasses_topology()
    executor = OffloadExecutor(net, "glasses", "cloud", GAMING,
                               FullOffload(), SMART_GLASSES,
                               server_device=CLOUD)
    result = executor.run(n_frames=120)
    # The gaming full-frame stream (~8 Mb/s) cannot fit 1.8 Mb/s: frames
    # queue up and blow their deadline wholesale.
    assert result.deadline_hit_rate < 0.2
    # For the lighter orientation app, full offload still saturates the
    # Bluetooth leg while feature offload fits inside it.
    sim2, net2 = glasses_topology()
    full_exec = OffloadExecutor(net2, "glasses", "cloud", ORIENTATION,
                                FullOffload(), SMART_GLASSES,
                                server_device=CLOUD)
    full_result = full_exec.run(n_frames=120)
    sim3, net3 = glasses_topology()
    feature_exec = OffloadExecutor(net3, "glasses", "cloud", ORIENTATION,
                                   FeatureOffload(), SMART_GLASSES,
                                   server_device=CLOUD)
    feature_result = feature_exec.run(n_frames=120)
    assert feature_result.mean_offloaded_latency < full_result.mean_offloaded_latency


def test_glasses_extraction_too_slow_for_gaming():
    """The paper: 'even simple feature extraction can considerably slow
    down the process' on low-end hardware — on glasses the extraction
    stage alone (45 % of p(a)) blows the gaming deadline, so the
    CloudRidAR split is *worse* than shipping the frame."""
    extraction = SMART_GLASSES.execution_time(GAMING.megacycles_per_frame * 0.45)
    assert extraction > GAMING.deadline
