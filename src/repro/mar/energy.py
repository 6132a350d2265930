"""Energy model: compute vs radio trade-off of offloading.

Offloading saves CPU energy but spends radio energy; whether the trade
pays off depends on the radio technology (LTE transmission is far more
expensive per byte than WiFi) and on how much data the strategy ships —
one reason the paper's multipath policies (Section VI-D) prefer WiFi.

Constants are order-of-magnitude figures from the mobile-systems
literature (Huang et al. MobiSys'12 class measurements), sufficient for
the *relative* comparisons the benchmarks make.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Joules per megacycle of CPU work on a mobile-class core.
JOULES_PER_MEGACYCLE = 0.0008

#: Radio energy per transmitted/received byte, by technology.
RADIO_JOULES_PER_BYTE: Dict[str, float] = {
    "wifi": 0.05e-6 * 8,    # ~0.4 µJ/byte
    "lte": 0.25e-6 * 8,     # ~2 µJ/byte
    "hspa": 0.35e-6 * 8,
    "d2d": 0.03e-6 * 8,
}

#: Fixed radio tail energy per transmission burst (state promotions).
RADIO_TAIL_JOULES: Dict[str, float] = {
    "wifi": 0.02,
    "lte": 0.12,
    "hspa": 0.15,
    "d2d": 0.01,
}

#: Device baseline draw (screen, sensors, OS) in watts.
BASELINE_WATTS = 0.9


@dataclass
class EnergyModel:
    """Accumulates energy for one device over a session."""

    radio: str = "wifi"
    compute_joules: float = 0.0
    radio_joules: float = 0.0
    bursts: int = 0

    def on_compute(self, megacycles: float) -> None:
        self.compute_joules += megacycles * JOULES_PER_MEGACYCLE

    def on_transfer(self, tx_bytes: int, rx_bytes: int = 0, new_burst: bool = False) -> None:
        per_byte = RADIO_JOULES_PER_BYTE[self.radio]
        self.radio_joules += (tx_bytes + rx_bytes) * per_byte
        if new_burst:
            self.radio_joules += RADIO_TAIL_JOULES[self.radio]
            self.bursts += 1

    def total(self, duration: float) -> float:
        """Total joules including baseline draw over ``duration`` seconds."""
        return self.compute_joules + self.radio_joules + BASELINE_WATTS * duration
