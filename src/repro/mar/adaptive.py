"""Adaptive offloading: vision-driven triggers and live strategy switching.

Two pieces the static strategies in :mod:`repro.mar.offload` lack:

- :class:`AdaptiveTrackingOffload` — Glimpse's *real* trigger rule.
  The fixed-interval :class:`~repro.mar.offload.TrackingOffload`
  offloads every Nth frame; Glimpse offloads **when tracking degrades**.
  This strategy owns an actual :class:`~repro.vision.pipeline.
  ArPipeline`, tracks each incoming camera frame, and plans a full
  offload only when the tracked-point loss fraction crosses the
  trigger threshold (or no keyframe exists yet).  Slow scenes cost
  almost nothing; fast scenes offload as often as needed.

- :class:`AdaptiveExecutor` — wraps :class:`~repro.mar.offload.
  OffloadExecutor`'s session loop with a :class:`~repro.mar.decision.
  DecisionEngine`: measured ping RTTs feed the engine, and the active
  strategy can change between frames (e.g. WiFi → LTE degradation
  flips full offload to feature offload mid-session).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.mar.application import MarApplication
from repro.mar.decision import DecisionEngine
from repro.mar.devices import Device
from repro.mar.offload import (
    ENCODE_FRACTION,
    TRACKING_FRACTION,
    FramePlan,
    OffloadExecutor,
    OffloadStrategy,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.vision.pipeline import ArPipeline


class AdaptiveTrackingOffload(OffloadStrategy):
    """Glimpse with its real trigger: offload when tracking degrades.

    Frames are supplied via :meth:`observe_frame` (the camera feed);
    :meth:`plan_frame` then reflects the *latest* observation.  When
    used without frames (pure network simulations), it behaves like a
    conservative fixed-interval tracker via ``fallback_interval``.
    """

    name = "adaptive-tracking"

    def __init__(
        self,
        pipeline: Optional[ArPipeline] = None,
        max_lost: float = 0.4,
        fallback_interval: int = 15,
    ) -> None:
        self.pipeline = pipeline
        self.max_lost = max_lost
        self.fallback_interval = fallback_interval
        self.triggers = 0
        self.tracked = 0
        self._next_is_trigger = True   # first frame always offloads
        self.trigger_log: List[int] = []
        self._frame_index = 0

    # ------------------------------------------------------------------
    def observe_frame(self, frame: "np.ndarray") -> bool:
        """Feed the next camera frame; returns True when it must offload.

        The decision uses the actual tracker: if no keyframe exists or
        too many tracked points were lost, the frame is a trigger (and
        on trigger the pipeline performs the full recognition locally
        in this observation step so the keyframe updates — in a real
        deployment the server would return the keyframe features).
        """
        index = self._frame_index
        self._frame_index += 1
        if self.pipeline is None:
            raise RuntimeError("observe_frame needs a pipeline")
        if not self.pipeline.tracker.has_keyframe:
            trigger = True
        else:
            result, _ = self.pipeline.track_frame(frame)
            trigger = self.pipeline.tracker.should_trigger(result, self.max_lost)
        if trigger:
            # Recognition refreshes the keyframe (server-side work whose
            # outcome we materialize locally for the next observation).
            self.pipeline.process_frame(frame)
            self.triggers += 1
            self.trigger_log.append(index)
        else:
            self.tracked += 1
        self._next_is_trigger = trigger
        return trigger

    # ------------------------------------------------------------------
    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        if self.pipeline is not None:
            trigger = self._next_is_trigger
        else:
            trigger = index % self.fallback_interval == 0
        if trigger:
            return FramePlan(
                local_megacycles=app.megacycles_per_frame * ENCODE_FRACTION,
                upload_bytes=app.frame_upload_bytes,
                remote_megacycles=app.megacycles_per_frame,
                download_bytes=app.result_bytes,
            )
        return FramePlan(
            local_megacycles=app.megacycles_per_frame * TRACKING_FRACTION,
            upload_bytes=0,
            remote_megacycles=0.0,
            download_bytes=0,
        )

    @property
    def trigger_rate(self) -> float:
        total = self.triggers + self.tracked
        return self.triggers / total if total else 0.0


class _SwitchingStrategy(OffloadStrategy):
    """Strategy proxy that always delegates to the engine's current pick."""

    name = "decision-engine"

    def __init__(self, engine: DecisionEngine) -> None:
        self.engine = engine

    def plan_frame(self, app: MarApplication, index: int) -> FramePlan:
        return self.engine.current.plan_frame(app, index)


class AdaptiveExecutor(OffloadExecutor):
    """An offloading session whose strategy follows a DecisionEngine.

    Ping RTT samples feed the engine's network estimate; the engine is
    re-consulted every ``decide_interval`` seconds, so a mid-session
    network change (the caller mutating link parameters) flips the
    strategy without restarting the session.
    """

    def __init__(self, net, client, server, app, device: Device,
                 engine: Optional[DecisionEngine] = None,
                 decide_interval: float = 1.0, uplink_hint_bps: float = 20e6,
                 **kwargs) -> None:
        self.engine = engine if engine is not None else DecisionEngine(device, app)
        self.decide_interval = decide_interval
        if self.engine.uplink_estimate_bps is None:
            self.engine.observe_uplink(uplink_hint_bps)
        super().__init__(net, client, server, app,
                         _SwitchingStrategy(self.engine), device, **kwargs)
        self.strategy_timeline: List[Tuple[float, str]] = []
        self.sim.schedule(0.0, self._decide_loop)

    def _decide_loop(self) -> None:
        self.engine.decide(now=self.sim.now)
        self.strategy_timeline.append((self.sim.now, self.engine.current.name))
        if self._frame_index < getattr(self, "n_frames", 0) or self.sim.now <= 0.0:
            self.sim.schedule(self.decide_interval, self._decide_loop)

    def _on_packet(self, packet) -> None:
        if packet.kind == "pong":
            self.engine.observe_rtt(self.sim.now - packet.payload["echo"])
        super()._on_packet(packet)

    def strategies_used(self) -> List[str]:
        seen: List[str] = []
        for _, name in self.strategy_timeline:
            if not seen or seen[-1] != name:
                seen.append(name)
        return seen
