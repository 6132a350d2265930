"""repro — reproduction of "Future Networking Challenges: The Case of
Mobile Augmented Reality" (Braud et al., ICDCS 2017).

The package provides:

- :mod:`repro.simnet` — a discrete-event network simulator (links,
  queues, routing, tracing) used as the substrate for every experiment.
- :mod:`repro.transport` — UDP, TCP (NewReno), MPTCP, QUIC-like streams
  and RSVP-style reservations running over the simulator.
- :mod:`repro.core` — **MARTP**, a concrete realization of the paper's
  proposed AR-oriented transport protocol: classful traffic, graceful
  degradation, selective reliability/FEC, multipath, and distributed
  offloading sessions.
- :mod:`repro.wireless` — HSPA+/LTE/WiFi/5G access-network models, the
  802.11 performance anomaly, D2D links, coverage/handover and mobility.
- :mod:`repro.vision` — the MAR vision workload: an analytic per-stage
  compute-cost model, camera pose and overlay misalignment under
  latency.
- :mod:`repro.mar` — device models, application models, execution-cost
  equations and offloading strategies from Section III of the paper.
- :mod:`repro.edge` — edge-datacenter placement (Section VI-F).
- :mod:`repro.analysis` — statistics and report rendering helpers.
"""

__version__ = "1.0.0"

from repro.simnet.engine import Simulator

__all__ = ["Simulator", "__version__"]
