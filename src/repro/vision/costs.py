"""The analytic compute-cost model of the AR vision pipeline.

Cycle constants, the per-stage :class:`StageCosts` breakdown (in
*megacycles*) and :func:`estimate_stage_costs` — float arithmetic only,
so code that needs the *price* of recognition (the frame observer's
server-span annotations) loads no array code.

The cycle constants are assumed, not measured: they encode the common
wisdom that full feature-based recognition of a 320x240 frame costs on
the order of hundreds of milliseconds on a mobile-class core (the
reason offloading exists at all).  Nothing in the repository calibrates
them against a running pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict

# Cycle-cost constants (cycles per unit of work).
CYCLES_PER_PIXEL_DETECT = 450.0       # gradients + 3 gaussian filters + NMS
CYCLES_PER_KEYPOINT_DESCRIBE = 25_000.0
CYCLES_PER_MATCH_PAIR = 48.0          # 32-byte XOR + popcount + bookkeeping
CYCLES_PER_RANSAC_ITER = 9_000.0      # 4-point DLT + error for all pairs
CYCLES_PER_PIXEL_RENDER = 18.0        # overlay composition


@dataclass
class StageCosts:
    """Per-stage compute cost of one frame, in megacycles."""

    detect: float = 0.0
    describe: float = 0.0
    match: float = 0.0
    ransac: float = 0.0
    render: float = 0.0

    @property
    def total(self) -> float:
        return math.fsum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> Dict[str, float]:
        """Stage-name → megacycles, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def scaled_to(self, total_megacycles: float) -> "StageCosts":
        """Rescale proportionally so the stages sum to a given total.

        Lets an estimated stage *shape* (from :func:`estimate_stage_costs`)
        be fitted to a known aggregate budget — e.g. annotating a server
        compute span whose total p(a) comes from the application model.
        """
        current = self.total
        if current <= 0.0:
            return StageCosts()
        factor = total_megacycles / current
        return StageCosts(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )


#: RANSAC iterations :func:`estimate_stage_costs` prices.
RANSAC_ITERS = 400


def estimate_stage_costs(n_pixels: int, n_keypoints: int = 300,
                         n_ref_keypoints: int = 300) -> StageCosts:
    """Analytic per-stage cost of full recognition, without running it.

    Applies the module's cycle constants to nominal workload sizes,
    usable where no pixels exist (observability annotations).  Combine
    with :meth:`StageCosts.scaled_to` to fit the stage *shape* to a
    known total p(a).
    """
    return StageCosts(
        detect=n_pixels * CYCLES_PER_PIXEL_DETECT / 1e6,
        describe=n_keypoints * CYCLES_PER_KEYPOINT_DESCRIBE / 1e6,
        match=n_keypoints * n_ref_keypoints * CYCLES_PER_MATCH_PAIR / 1e6,
        ransac=RANSAC_ITERS * CYCLES_PER_RANSAC_ITER / 1e6,
        render=n_pixels * CYCLES_PER_PIXEL_RENDER / 1e6,
    )
