"""Access-network profiles built from the measurements in Section IV-A.

Each :class:`AccessProfile` captures the *measured* (not theoretical)
behaviour of one access technology as reported in the paper: mean and
range of downlink/uplink throughput, round-trip latency, jitter and
loss.  Profiles build :class:`~repro.simnet.link.VariableRateLink`
pairs so simulated paths exhibit the large throughput variance the
paper stresses ("abrupt changes of several orders of magnitude").

Sources for the numbers (paper Section IV-A, quoting OpenSignal,
SpeedTest, Xu et al., the NGMN 5G White Paper):

========== =========================== ======================== ===========
technology downlink (Mb/s)             uplink (Mb/s)            RTT (ms)
========== =========================== ======================== ===========
HSPA+      0.66–3.48 (avg ~2), to 7    ~1.5                     110–131, to 800
LTE        6.56–19.61 (avg ~12)        ~7.94                    66–85
802.11n    ~6.7 (public APs)           similar                  ~150 (public)
802.11ac   ~33.4                       similar                  ~150 (public)
home WiFi  up to link rate             symmetric                "a few ms"
5G (KPI)   300                         50                       10 (E2E)
LTE-Direct 1000 (D2D, ~1 km)           symmetric                <10
WiFi-Direct 500 (D2D, ~200 m)          symmetric                <10
========== =========================== ======================== ===========
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.simnet.link import VariableRateLink
from repro.simnet.network import Network
from repro.simnet.queues import DropTailQueue

#: Minimum uplink bandwidth for "a video feed with enough information to
#: perform advanced AR operations" (Section III-B).
MAR_MIN_UPLINK_BPS = 10e6

#: Maximum tolerable round-trip latency for MAR (Section III-B).
MAR_MAX_RTT = 0.075

#: Maximum tolerable jitter so a 30 FPS stream never skips a frame
#: (Section IV, intro).
MAR_MAX_JITTER = 0.030


#: Floor on the per-user capacity share under background load, so an
#: overloaded cell (ρ→1 and beyond) degrades gracefully instead of
#: starving the foreground session outright.
MIN_LOAD_SHARE = 0.02

#: Cap on the extra loss the overload residue may add (ρ>1 sheds the
#: excess offered load; beyond 2x capacity everything above the cap is
#: already reflected in the throughput share).
MAX_OVERLOAD_LOSS = 0.5


def mbps(x: float) -> float:
    """Megabits/s to bits/s."""
    return x * 1e6


@dataclass(frozen=True)
class LoadFactors:
    """How a background utilization ρ degrades one more user's service.

    ``share`` multiplies throughputs, ``delay_factor`` multiplies RTT
    and jitter, ``extra_loss`` adds to the loss probability.  At ρ=0
    the factors are exactly ``(1.0, 1.0, 0.0)`` — multiplying by them
    is bit-exact identity, which the zero-background fast path of
    :mod:`repro.scale.coupling` relies on.
    """

    share: float
    delay_factor: float
    extra_loss: float


def load_factors(utilization: float) -> LoadFactors:
    """Service-degradation factors at background utilization ρ.

    - throughput scales by the processor-sharing residue
      ``max(1-ρ, MIN_LOAD_SHARE)`` (802.11 DCF and cellular schedulers
      both approximate equal resource shares);
    - delay inflates by the M/M/1-style factor ``1 + ρ/(1-ρ)``,
      capped via :data:`MIN_LOAD_SHARE` — the paper's "oversized
      uplink buffers" effect at cell scale;
    - loss picks up the overload residue once offered load exceeds
      capacity (ρ>1 sheds the excess), capped at
      :data:`MAX_OVERLOAD_LOSS`.
    """
    rho = max(0.0, float(utilization))
    share = max(1.0 - rho, MIN_LOAD_SHARE)
    delay_factor = 1.0 + min(rho, 1.0) / share
    extra_loss = min(max(rho - 1.0, 0.0) / max(rho, 1.0), MAX_OVERLOAD_LOSS)
    return LoadFactors(share=share, delay_factor=delay_factor,
                       extra_loss=extra_loss)


#: Packets of a profile's default uplink drop-tail buffer: the oversized
#: ~1000 the paper calls out (Section VI-H).
UPLINK_BUFFER_PACKETS = 1000


@dataclass(frozen=True)
class AccessProfile:
    """Measured behaviour of one access technology.

    Rates are in bits/s, times in seconds.  ``rtt`` is the full
    round-trip budget of the access segment; when building a duplex
    link each direction gets ``rtt / 2`` of propagation delay.
    """

    name: str
    down_mean: float
    down_min: float
    down_max: float
    up_mean: float
    up_min: float
    up_max: float
    rtt: float
    rtt_jitter: float = 0.0
    loss: float = 0.0
    #: Coefficient of throughput variation for the AR(1) rate process.
    sigma: float = 0.25
    #: Typical coverage radius in metres (D2D / AP technologies).
    range_m: Optional[float] = None
    #: True when the technology is device-to-device (no infrastructure).
    d2d: bool = False

    def meets_mar_uplink(self) -> bool:
        """Does the *measured mean* uplink carry a minimal AR video feed?"""
        return self.up_mean >= MAR_MIN_UPLINK_BPS

    def meets_mar_latency(self) -> bool:
        return self.rtt <= MAR_MAX_RTT

    def meets_mar_jitter(self) -> bool:
        return self.rtt_jitter <= MAR_MAX_JITTER

    def mar_ready(self) -> bool:
        """All three MAR requirements at once (Section III-B / IV)."""
        return self.meets_mar_uplink() and self.meets_mar_latency() and self.meets_mar_jitter()

    # ------------------------------------------------------------------
    # Exogenous-load hook (repro.scale background population coupling)
    # ------------------------------------------------------------------
    def under_load(self, utilization: float) -> "AccessProfile":
        """Derive the profile one *additional* user experiences when a
        background population already fills ``utilization`` of the cell.

        This is the hook :mod:`repro.scale.coupling` uses to let the
        fluid background tier press on event-level foreground sessions:

        - throughputs scale by the processor-sharing residue
          ``load_factors(ρ).share`` (802.11 DCF and cellular schedulers
          both approximate equal time/resource shares);
        - RTT and jitter inflate by the M/M/1-style queueing factor
          ``1 + ρ/(1-ρ)`` (capped via :data:`MIN_LOAD_SHARE`), the
          paper's "oversized uplink buffers" effect at cell scale;
        - loss picks up the overload residue once offered load exceeds
          capacity (admission pressure: ρ>1 sheds the excess).

        ``under_load(0.0)`` returns a profile whose fields are
        bit-equal to this one (every factor is exactly 1.0 / 0.0), so
        a zero-background foreground tier reproduces the uncoupled
        scenario byte-identically.
        """
        f = load_factors(utilization)
        return dataclasses.replace(
            self,
            down_mean=self.down_mean * f.share,
            down_min=min(self.down_min, self.down_mean * f.share),
            up_mean=self.up_mean * f.share,
            up_min=min(self.up_min, self.up_mean * f.share),
            rtt=self.rtt * f.delay_factor,
            rtt_jitter=self.rtt_jitter * f.delay_factor,
            loss=min(self.loss + f.extra_loss, 1.0),
        )

    # ------------------------------------------------------------------
    def build_duplex(
        self,
        net: Network,
        infrastructure: str,
        device: str,
    ) -> Dict[str, VariableRateLink]:
        """Attach this access technology between two existing nodes.

        ``down`` carries infrastructure→device traffic, ``up`` the
        reverse.  The uplink buffer is the oversized
        ``UPLINK_BUFFER_PACKETS`` the paper calls out (Section VI-H).  A
        profile with ``sigma=0`` keeps the rate process frozen at the
        mean.
        """
        sim = net.sim
        sigma = self.sigma
        qd = DropTailQueue(100)
        qu = DropTailQueue(UPLINK_BUFFER_PACKETS)
        down = VariableRateLink(
            sim,
            net[infrastructure],
            net[device],
            mean_rate_bps=self.down_mean,
            min_rate_bps=self.down_min,
            max_rate_bps=self.down_max,
            sigma=sigma,
            delay=self.rtt / 2,
            jitter=self.rtt_jitter / 2,
            loss=self.loss,
            queue=qd,
            name=f"{self.name}:{infrastructure}->{device}",
        )
        up = VariableRateLink(
            sim,
            net[device],
            net[infrastructure],
            mean_rate_bps=self.up_mean,
            min_rate_bps=self.up_min,
            max_rate_bps=self.up_max,
            sigma=sigma,
            delay=self.rtt / 2,
            jitter=self.rtt_jitter / 2,
            loss=self.loss,
            queue=qu,
            name=f"{self.name}:{device}->{infrastructure}",
        )
        net.links.extend([down, up])
        return {"down": down, "up": up}


HSPA_PLUS = AccessProfile(
    name="HSPA+",
    down_mean=mbps(2.0), down_min=mbps(0.3), down_max=mbps(7.0),
    up_mean=mbps(1.5), up_min=mbps(0.2), up_max=mbps(1.5),
    rtt=0.120, rtt_jitter=0.300, loss=0.01, sigma=0.6,
)

LTE = AccessProfile(
    name="LTE",
    down_mean=mbps(12.0), down_min=mbps(3.0), down_max=mbps(40.0),
    up_mean=mbps(7.94), up_min=mbps(1.0), up_max=mbps(20.0),
    rtt=0.075, rtt_jitter=0.030, loss=0.003, sigma=0.35,
)

WIFI_N = AccessProfile(
    name="802.11n(public)",
    down_mean=mbps(6.7), down_min=mbps(0.5), down_max=mbps(40.0),
    up_mean=mbps(6.7), up_min=mbps(0.5), up_max=mbps(40.0),
    rtt=0.150, rtt_jitter=0.060, loss=0.01, sigma=0.4, range_m=60.0,
)

WIFI_AC = AccessProfile(
    name="802.11ac(public)",
    down_mean=mbps(33.4), down_min=mbps(5.0), down_max=mbps(200.0),
    up_mean=mbps(33.4), up_min=mbps(5.0), up_max=mbps(200.0),
    rtt=0.150, rtt_jitter=0.060, loss=0.01, sigma=0.4, range_m=40.0,
)

WIFI_HOME = AccessProfile(
    name="WiFi(controlled)",
    down_mean=mbps(120.0), down_min=mbps(40.0), down_max=mbps(300.0),
    up_mean=mbps(120.0), up_min=mbps(40.0), up_max=mbps(300.0),
    rtt=0.004, rtt_jitter=0.002, loss=0.001, sigma=0.1, range_m=30.0,
)

FIVE_G = AccessProfile(
    name="5G(KPI)",
    down_mean=mbps(300.0), down_min=mbps(50.0), down_max=mbps(1000.0),
    up_mean=mbps(50.0), up_min=mbps(10.0), up_max=mbps(100.0),
    rtt=0.010, rtt_jitter=0.005, loss=0.0005, sigma=0.2,
)

LTE_DIRECT = AccessProfile(
    name="LTE-Direct",
    down_mean=mbps(1000.0), down_min=mbps(100.0), down_max=mbps(1000.0),
    up_mean=mbps(1000.0), up_min=mbps(100.0), up_max=mbps(1000.0),
    rtt=0.008, rtt_jitter=0.004, loss=0.002, sigma=0.3, range_m=1000.0, d2d=True,
)

BLUETOOTH = AccessProfile(
    name="Bluetooth",
    down_mean=mbps(1.8), down_min=mbps(0.3), down_max=mbps(2.1),
    up_mean=mbps(1.8), up_min=mbps(0.3), up_max=mbps(2.1),
    rtt=0.030, rtt_jitter=0.015, loss=0.01, sigma=0.3, range_m=10.0, d2d=True,
)

WIFI_DIRECT = AccessProfile(
    name="WiFi-Direct",
    down_mean=mbps(500.0), down_min=mbps(20.0), down_max=mbps(500.0),
    up_mean=mbps(500.0), up_min=mbps(20.0), up_max=mbps(500.0),
    rtt=0.006, rtt_jitter=0.004, loss=0.005, sigma=0.4, range_m=200.0, d2d=True,
)


def all_profiles() -> List[AccessProfile]:
    """Every built-in profile, infrastructure technologies first."""
    return [HSPA_PLUS, LTE, WIFI_N, WIFI_AC, WIFI_HOME, FIVE_G,
            LTE_DIRECT, WIFI_DIRECT, BLUETOOTH]
