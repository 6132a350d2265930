"""MARTP — the AR-oriented transport protocol of Section VI.

The paper proposes six properties for a MAR transport; the first five
map to modules here (the sixth, security/privacy of §VI-G, is not
modelled):

1. **Classful traffic** (VI-A) → :mod:`~repro.core.traffic`: three
   traffic classes (full best effort, best effort with loss recovery,
   critical) crossed with four priorities.
2. **Fairness + graceful degradation** (VI-B) →
   :mod:`~repro.core.congestion` (delay/loss rate controller producing
   a budget instead of a cwnd) and :mod:`~repro.core.degradation`
   (priority-ordered shedding of that budget across streams —
   Figure 4's alternative to halving a congestion window).
3. **Low latency + selective loss recovery** (VI-C) →
   :mod:`~repro.core.reliability`: deadline-aware ARQ and XOR FEC.
4. **Multipath** (VI-D) → :mod:`~repro.core.scheduler`: WiFi/LTE path
   selection with the three usage policies.
5. **Distributed** (VI-E) → :mod:`~repro.core.session`: multi-server
   and D2D offloading sessions (Figure 5 scenarios).

:mod:`~repro.core.protocol` assembles 1–4 into a working sender /
receiver pair over UDP; :mod:`~repro.core.metrics` computes the QoS/QoE
measures the benchmarks report.
"""

from repro.core.traffic import (
    TrafficClass,
    Priority,
    StreamSpec,
    Message,
    MAR_BASELINE_STREAMS,
)
from repro.core.congestion import RateController
from repro.core.degradation import Allocation, DegradationController
from repro.core.reliability import ArqBuffer, FecEncoder, FecDecoder
from repro.core.scheduler import MultipathScheduler, PathState, MultipathPolicy
from repro.core.protocol import MartpSender, MartpReceiver
from repro.core.session import OffloadSession, ScenarioBuilder
from repro.core.metrics import ClassReport, QoeReport, ResilienceReport, mos_score
from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    DecorrelatedBackoff,
    HeartbeatMonitor,
    Liveness,
    ResilienceMetrics,
    RttEstimator,
    ServiceMode,
)

__all__ = [
    "TrafficClass",
    "Priority",
    "StreamSpec",
    "Message",
    "MAR_BASELINE_STREAMS",
    "RateController",
    "Allocation",
    "DegradationController",
    "ArqBuffer",
    "FecEncoder",
    "FecDecoder",
    "MultipathScheduler",
    "PathState",
    "MultipathPolicy",
    "MartpSender",
    "MartpReceiver",
    "OffloadSession",
    "ScenarioBuilder",
    "ClassReport",
    "QoeReport",
    "ResilienceReport",
    "mos_score",
    "BreakerState",
    "CircuitBreaker",
    "DecorrelatedBackoff",
    "HeartbeatMonitor",
    "Liveness",
    "ResilienceMetrics",
    "RttEstimator",
    "ServiceMode",
]
