"""Device-to-device links: LTE-Direct and WiFi-Direct (Sections IV-A3/5).

The paper contrasts the two D2D technologies: LTE-Direct (licensed
spectrum, ~1 km range, ~1 Gb/s, better discovery, more energy-efficient
with many users) versus WiFi-Direct (~200 m, ~500 Mb/s, cheaper, more
energy-efficient for small transfers, strongly mobility-sensitive per
Chatzopoulos et al. [41]).

:func:`rate_at_distance` derates a D2D
:class:`~repro.wireless.profiles.AccessProfile`'s rate with distance and
relative mobility.  :func:`d2d_energy_per_bit` encodes the energy
cross-over reported in [40].
"""

from __future__ import annotations

import math

from repro.wireless.profiles import AccessProfile, LTE_DIRECT


class OutOfRangeError(ValueError):
    """The two devices are farther apart than the technology's range."""


def rate_at_distance(profile: AccessProfile, distance_m: float, mobility_ms: float = 0.0) -> float:
    """Effective symmetric D2D rate at a given distance and mobility.

    Rate falls off smoothly toward ~15 % of nominal at the range edge
    (log-distance path loss folded into a single derating curve), and
    mobility (relative speed, m/s) further derates WiFi-Direct-like
    technologies, matching the experimental finding of [41] that
    "bandwidth depends strongly on the mobility of the users".
    """
    if profile.range_m is None:
        raise ValueError(f"{profile.name} has no range; not a D2D profile?")
    if distance_m > profile.range_m:
        raise OutOfRangeError(
            f"{distance_m:.0f} m exceeds {profile.name} range {profile.range_m:.0f} m"
        )
    frac = distance_m / profile.range_m
    distance_derate = 1.0 - 0.85 * frac ** 1.5
    # ~6 %/ (m/s) of throughput lost to rate re-adaptation under motion,
    # saturating at 80 % loss; licensed-band LTE-Direct is half as
    # sensitive thanks to scheduled access.
    sensitivity = 0.03 if profile is LTE_DIRECT else 0.06
    mobility_derate = max(0.2, 1.0 - sensitivity * mobility_ms)
    return profile.down_mean * distance_derate * mobility_derate


def d2d_energy_per_bit(profile: AccessProfile, n_peers: int, transfer_bytes: int) -> float:
    """Relative energy per transferred bit (arbitrary units).

    Encodes the qualitative comparison of Condoluci et al. [40] quoted
    in Section IV-A5: LTE-Direct wins when the number of users is
    relatively high (discovery amortized by the network), WiFi-Direct
    wins for small amounts of data (no licensed-band control overhead).
    """
    if not profile.d2d:
        raise ValueError(f"{profile.name} is not a D2D technology")
    bits = transfer_bytes * 8
    if profile is LTE_DIRECT:
        # High fixed control/discovery cost, amortized over peers & data.
        fixed = 5e6 / max(1, n_peers)
        per_bit = 0.8
    else:  # WiFi-Direct
        # Cheap setup, but per-peer group-owner overhead grows.
        fixed = 5e5 * math.sqrt(max(1, n_peers))
        per_bit = 1.0
    return (fixed + per_bit * bits) / bits
