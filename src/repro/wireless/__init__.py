"""Wireless access-network models.

- :mod:`~repro.wireless.profiles` — stochastic link models for HSPA+,
  LTE, WiFi (802.11n/ac, home/public), 5G and D2D technologies, using
  the measured numbers quoted in Section IV-A of the paper.
- :mod:`~repro.wireless.wifi` — an 802.11 DCF airtime model exhibiting
  the performance-anomaly of Heusse et al. (Figure 2).
- :mod:`~repro.wireless.d2d` — LTE-Direct / WiFi-Direct device-to-device
  rates with range and mobility effects, and their energy cross-over.
- :mod:`~repro.wireless.mobility` / :mod:`~repro.wireless.handover` —
  the city coverage study of Section IV-A4 (WiFi nominally available
  98.9 % of the time but usable only 53.8 %).
"""

from repro.wireless.profiles import (
    AccessProfile,
    BLUETOOTH,
    FIVE_G,
    HSPA_PLUS,
    LTE,
    LTE_DIRECT,
    MAR_MAX_RTT,
    MAR_MIN_UPLINK_BPS,
    WIFI_AC,
    WIFI_DIRECT,
    WIFI_HOME,
    WIFI_N,
    all_profiles,
)
from repro.wireless.wifi import WifiCell, WifiStation, anomaly_throughput
from repro.wireless.dcf import DcfChannel, DcfStation
from repro.wireless.d2d import d2d_energy_per_bit
from repro.wireless.mobility import RandomWaypoint, Waypoint
from repro.wireless.handover import CoverageMap, ConnectivityTrace

__all__ = [
    "AccessProfile",
    "BLUETOOTH",
    "HSPA_PLUS",
    "LTE",
    "LTE_DIRECT",
    "WIFI_N",
    "WIFI_AC",
    "WIFI_HOME",
    "WIFI_DIRECT",
    "FIVE_G",
    "MAR_MIN_UPLINK_BPS",
    "MAR_MAX_RTT",
    "all_profiles",
    "WifiCell",
    "WifiStation",
    "anomaly_throughput",
    "DcfChannel",
    "DcfStation",
    "d2d_energy_per_bit",
    "RandomWaypoint",
    "Waypoint",
    "CoverageMap",
    "ConnectivityTrace",
]
