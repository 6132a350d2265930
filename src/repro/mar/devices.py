"""The MAR device ecosystem of Table I.

Each :class:`Device` carries the qualitative attributes the paper
tabulates (computing power, storage, battery life, network access,
portability) plus the quantitative parameters the execution-cost
equations need: an effective compute rate in cycles/second (single
sustained CV-workload core-equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

GHZ = 1e9


@dataclass(frozen=True)
class Device:
    """One platform of the MAR ecosystem (Table I).

    ``compute_cycles_per_s`` is the sustained rate available to a
    vision workload (thermal limits and shared cores folded in) —
    *not* the nominal clock.  ``storage_gb`` is (min, max);
    ``battery_hours`` is (min, max) active use, None meaning mains
    power.
    """

    name: str
    computing_power: str            # qualitative, as in Table I
    compute_cycles_per_s: float
    storage_gb: Tuple[float, float]
    battery_hours: Optional[Tuple[float, float]]
    network_access: Tuple[str, ...]
    portability: str
    #: typical camera resolution for MAR capture (w, h); None = headless
    camera: Optional[Tuple[int, int]] = None
    #: battery capacity in joules (derived from typical packs)
    battery_joules: Optional[float] = None

    @property
    def mobile(self) -> bool:
        return self.portability in ("high", "medium")

    def execution_time(self, megacycles: float) -> float:
        """Seconds to execute ``megacycles`` of work on this device."""
        return megacycles * 1e6 / self.compute_cycles_per_s


SMART_GLASSES = Device(
    name="smart glasses",
    computing_power="very low",
    compute_cycles_per_s=0.4 * GHZ,
    storage_gb=(4, 16),
    battery_hours=(2, 3),
    network_access=("bluetooth",),
    portability="high",
    camera=(640, 480),
    battery_joules=2.1 * 3600,       # ~2.1 Wh
)

SMARTPHONE = Device(
    name="smartphone",
    computing_power="low",
    compute_cycles_per_s=1.6 * GHZ,
    storage_gb=(16, 128),
    battery_hours=(6, 8),
    network_access=("cellular", "wifi"),
    portability="high",
    camera=(1920, 1080),
    battery_joules=11.0 * 3600,      # ~11 Wh
)

TABLET = Device(
    name="tablet",
    computing_power="medium",
    compute_cycles_per_s=2.4 * GHZ,
    storage_gb=(32, 256),
    battery_hours=(6, 8),
    network_access=("cellular", "wifi"),
    portability="medium",
    camera=(1920, 1080),
    battery_joules=28.0 * 3600,
)

LAPTOP = Device(
    name="laptop PC",
    computing_power="medium-high",
    compute_cycles_per_s=6.0 * GHZ,
    storage_gb=(128, 2000),
    battery_hours=(2, 8),
    network_access=("cellular", "wifi", "ethernet"),
    portability="medium",
    camera=(1280, 720),
    battery_joules=180.0 * 3600,
)

DESKTOP = Device(
    name="desktop PC",
    computing_power="high",
    compute_cycles_per_s=14.0 * GHZ,
    storage_gb=(512, 2000),
    battery_hours=None,
    network_access=("wifi", "ethernet"),
    portability="none",
    camera=None,
)

CLOUD = Device(
    name="cloud computing",
    computing_power="unlimited",
    compute_cycles_per_s=80.0 * GHZ,  # horizontally scalable per session
    storage_gb=(1e6, 1e9),            # effectively unlimited
    battery_hours=None,
    network_access=("ethernet", "fiber"),
    portability="none",
    camera=None,
)


def all_devices() -> List[Device]:
    """All Table I platforms, least to most powerful."""
    return [SMART_GLASSES, SMARTPHONE, TABLET, LAPTOP, DESKTOP, CLOUD]
