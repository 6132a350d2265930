"""802.11 DCF airtime model and the performance anomaly (Figure 2).

Heusse et al. showed that CSMA/CA gives every station an (approximately)
equal *probability of winning a transmission opportunity*, not an equal
share of *airtime*: a station transmitting at a low PHY rate occupies
the channel far longer per frame, dragging every other station's
throughput down to roughly the slow station's level.

:class:`WifiCell` is a discrete-event realization: saturated stations
contend; each transmission grant goes to a uniformly random backlogged
station; the channel is then busy for that station's frame airtime
(PHY-rate dependent payload time plus rate-independent MAC overhead).
:func:`anomaly_throughput` gives the closed-form prediction for
validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.simnet.engine import Simulator

#: Per-frame MAC/PHY overhead that does not scale with the PHY rate:
#: DIFS + mean backoff + PLCP preamble + SIFS + ACK (seconds).
FRAME_OVERHEAD = 264e-6

#: Default MAC payload per frame (bytes).
FRAME_PAYLOAD = 1500


def frame_airtime(phy_rate_bps: float, payload: int = FRAME_PAYLOAD) -> float:
    """Channel occupancy of one frame at ``phy_rate_bps``."""
    if phy_rate_bps <= 0:
        raise ValueError("phy_rate_bps must be positive")
    return FRAME_OVERHEAD + payload * 8 / phy_rate_bps


def anomaly_throughput(phy_rates_bps: List[float]) -> List[float]:
    """Closed-form per-station throughput under saturation.

    With equal access probability each station sends one frame of
    ``FRAME_PAYLOAD`` bytes per "round" of N frames, so every station's
    goodput is ``FRAME_PAYLOAD / sum_i airtime_i`` — the Heusse et al.
    result.  Returns bits/s per station (all equal).
    """
    total_airtime = math.fsum(frame_airtime(r) for r in phy_rates_bps)
    per_station = FRAME_PAYLOAD * 8 / total_airtime
    return [per_station for _ in phy_rates_bps]


@dataclass
class WifiStation:
    """A saturated 802.11 station.

    ``phy_rate_bps`` may be changed at any time (e.g. the station moved
    into a lower-rate coverage ring); subsequent frames use the new
    rate.
    """

    name: str
    phy_rate_bps: float
    payload: int = FRAME_PAYLOAD
    backlogged: bool = True
    bytes_sent: int = 0
    frames_sent: int = 0
    tx_log: List[Tuple[float, int]] = field(default_factory=list)

    def throughput_bps(self, t0: float, t1: float) -> float:
        """Goodput over ``(t0, t1]`` from the transmission log."""
        if t1 <= t0:
            return 0.0
        sent = sum(size for t, size in self.tx_log if t0 < t <= t1)
        return sent * 8 / (t1 - t0)


class WifiCell:
    """One access point's contention domain.

    Runs its own grant loop on the shared simulator: while any station
    is backlogged, pick a uniformly random backlogged station, occupy
    the channel for its frame airtime, credit the payload, repeat.
    """

    def __init__(self, sim: Simulator, name: str = "wifi-cell") -> None:
        self.sim = sim
        self.name = name
        self.stations: Dict[str, WifiStation] = {}
        self._rng = sim.child_rng(f"wifi:{name}")
        self._channel_busy = False

    def add_station(self, station: WifiStation) -> WifiStation:
        if station.name in self.stations:
            raise ValueError(f"duplicate station {station.name!r}")
        self.stations[station.name] = station
        self._kick()
        return station

    def set_rate(self, name: str, phy_rate_bps: float) -> None:
        """Change a station's PHY rate (e.g. it moved away from the AP)."""
        self.stations[name].phy_rate_bps = phy_rate_bps

    def _kick(self) -> None:
        if not self._channel_busy and any(s.backlogged for s in self.stations.values()):
            self._channel_busy = True
            self.sim.schedule(0.0, self._grant)

    def _grant(self) -> None:
        contenders = [s for s in self.stations.values() if s.backlogged]
        if not contenders:
            self._channel_busy = False
            return
        winner = self._rng.choice(contenders)
        airtime = frame_airtime(winner.phy_rate_bps, winner.payload)
        self.sim.schedule(airtime, self._complete, winner)

    def _complete(self, station: WifiStation) -> None:
        station.bytes_sent += station.payload
        station.frames_sent += 1
        station.tx_log.append((self.sim.now, station.payload))
        self._grant()

    # ------------------------------------------------------------------
    def aggregate_throughput_bps(self, t0: float, t1: float) -> float:
        return math.fsum(s.throughput_bps(t0, t1) for s in self.stations.values())
