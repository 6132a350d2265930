"""The assembled AR vision pipeline with compute-cost accounting.

:class:`ArPipeline` chains detection → description → matching →
robust homography against a reference (database) image, and reports a
:class:`StageCosts` breakdown in *megacycles* for every frame.  The
cost model is deterministic and proportional to the actual work done
(pixels filtered, descriptors built, pairs compared, RANSAC iterations
run), so the offloading models in :mod:`repro.mar` can convert it to
wall-clock time on any device of Table I via its clock rate — exactly
the p(a) term of the paper's execution-time equations.

The cost model itself (cycle constants, :class:`StageCosts`,
:func:`estimate_stage_costs`) lives in :mod:`repro.vision.costs`, which
needs no numpy; its names are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.vision.costs import (
    CYCLES_PER_KEYPOINT_DESCRIBE,
    CYCLES_PER_MATCH_PAIR,
    CYCLES_PER_PIXEL_DETECT,
    CYCLES_PER_PIXEL_ENCODE,
    CYCLES_PER_PIXEL_RENDER,
    CYCLES_PER_RANSAC_ITER,
    CYCLES_PER_TRACKED_POINT,
    StageCosts,
    estimate_stage_costs,  # noqa: F401 - re-exported
)
from repro.vision.features import Keypoint, describe, descriptor_size_bytes, detect_corners
from repro.vision.homography import ransac_homography
from repro.vision.matching import Match, match_descriptors, match_points
from repro.vision.tracking import Tracker


@dataclass
class FrameResult:
    """Outcome of fully processing one frame."""

    homography: Optional[np.ndarray]
    keypoints: List[Keypoint]
    matches: List[Match]
    n_inliers: int
    costs: StageCosts
    feature_bytes: int

    @property
    def recognized(self) -> bool:
        return self.homography is not None

    def pose(self, intrinsics: Optional[np.ndarray] = None):
        """Camera pose relative to the reference plane, or None.

        The renderer's actual input: decomposes the frame→reference
        homography with the given (or default) camera intrinsics.
        """
        if self.homography is None:
            return None
        from repro.vision.pose import decompose_homography, default_intrinsics

        k = intrinsics if intrinsics is not None else default_intrinsics()
        # The recognition homography maps frame→reference; the pose of
        # the camera relative to the reference plane uses the inverse.
        h = np.linalg.inv(self.homography)
        return decompose_homography(h / h[2, 2], k)


class ArPipeline:
    """Feature-based recognition against one reference image.

    Parameters
    ----------
    reference:
        The database image virtual content is anchored to.
    max_corners:
        Detection budget per frame (more corners → better robustness,
        linearly more descriptor/matching cost — the knob MAR browsers
        turn when degrading gracefully).
    """

    def __init__(self, reference: np.ndarray, max_corners: int = 300, seed: int = 0) -> None:
        self.reference = np.asarray(reference, dtype=np.float64)
        self.max_corners = max_corners
        self.seed = seed
        self.ref_keypoints = detect_corners(self.reference, max_corners=max_corners)
        self.ref_descriptors = describe(self.reference, self.ref_keypoints)
        self.ref_xy = np.array([[kp.x, kp.y] for kp in self.ref_keypoints])
        self.tracker = Tracker()
        self.frames_processed = 0

    # ------------------------------------------------------------------
    def process_frame(self, frame: np.ndarray, max_corners: Optional[int] = None) -> FrameResult:
        """Full recognition of one frame (the expensive, offloadable path)."""
        frame = np.asarray(frame, dtype=np.float64)
        budget = max_corners if max_corners is not None else self.max_corners
        costs = StageCosts()
        n_pixels = frame.size

        keypoints = detect_corners(frame, max_corners=budget)
        costs.detect = n_pixels * CYCLES_PER_PIXEL_DETECT / 1e6

        descriptors = describe(frame, keypoints)
        costs.describe = len(keypoints) * CYCLES_PER_KEYPOINT_DESCRIBE / 1e6

        matches = match_descriptors(descriptors, self.ref_descriptors)
        costs.match = len(keypoints) * len(self.ref_keypoints) * CYCLES_PER_MATCH_PAIR / 1e6

        homography = None
        n_inliers = 0
        if len(matches) >= 4:
            pairs = match_points(
                matches,
                np.array([[kp.x, kp.y] for kp in keypoints]),
                self.ref_xy,
            )
            result = ransac_homography(pairs[:, :2], pairs[:, 2:], seed=self.seed)
            costs.ransac = result.iterations * CYCLES_PER_RANSAC_ITER / 1e6
            if result.success:
                homography = result.homography
                n_inliers = result.n_inliers
                self.tracker.set_keyframe(frame, keypoints)

        costs.render = n_pixels * CYCLES_PER_PIXEL_RENDER / 1e6
        self.frames_processed += 1
        return FrameResult(
            homography=homography,
            keypoints=keypoints,
            matches=matches,
            n_inliers=n_inliers,
            costs=costs,
            feature_bytes=descriptor_size_bytes(len(keypoints)),
        )

    # ------------------------------------------------------------------
    def track_frame(self, frame: np.ndarray) -> tuple:
        """Cheap Glimpse-style tracking path.

        Returns ``(TrackResult, StageCosts)``; callers combine
        :meth:`Tracker.should_trigger` with their offloading policy.
        """
        if not self.tracker.has_keyframe:
            raise RuntimeError("tracking requires a processed keyframe first")
        result = self.tracker.track(frame)
        n_points = len(result.points)
        costs = StageCosts(
            track=n_points * CYCLES_PER_TRACKED_POINT / 1e6,
            render=frame.size * CYCLES_PER_PIXEL_RENDER / 1e6,
        )
        return result, costs

    # ------------------------------------------------------------------
    @staticmethod
    def encode_cost(frame_pixels: int) -> StageCosts:
        """Cost of software-encoding a frame for network upload."""
        return StageCosts(encode=frame_pixels * CYCLES_PER_PIXEL_ENCODE / 1e6)
