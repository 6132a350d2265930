"""Virtual-overlay alignment under latency (the paper's core motivation).

Section III-B: "due to several complications such as the alignment of
the virtual layer on the physical world, a seamless experience is
characterized by notably lower latencies" — Abrash's ≤20 ms with a
"holy grail" near 7 ms.  This module turns that claim into numbers:

A virtual object is anchored to the reference plane.  The renderer
draws it using the *last computed* homography — which, with end-to-end
(motion-to-photon) latency L, describes the camera as it was L seconds
ago.  While the camera moves, the drawn overlay and the true anchor
position diverge by a measurable pixel offset:

    misalignment(t, L) = || project(H(t), anchor) − project(H(t−L), anchor) ||

:class:`PanningCamera` provides a smooth, realistic head-turn motion
(sinusoidal yaw plus translation sway); :func:`misalignment_px`
evaluates the registration error; :func:`misalignment_profile` sweeps
latency and returns the error curve the E10 benchmark reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import mean
from repro.vision.pose import default_intrinsics, homography_from_pose, rotation_about

#: Default virtual object: a 20 cm square "card" centred on the
#: reference plane (plane coordinates are metres; the camera sits
#: ~2 m away, so the card spans ~25 px on a 320 px frame).
DEFAULT_ANCHOR = np.array(
    [[-0.1, -0.1], [0.1, -0.1], [0.1, 0.1], [-0.1, 0.1]]
)


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map ``(N, 2)`` xy points through a 3x3 homography."""
    points = np.asarray(points, dtype=np.float64)
    ones = np.ones((points.shape[0], 1))
    homo = np.hstack([points, ones]) @ h.T
    return homo[:, :2] / homo[:, 2:3]


@dataclass
class PanningCamera:
    """A smoothly panning/swaying camera over the reference plane.

    ``yaw_amplitude`` (radians) and ``period`` give a sinusoidal head
    turn; peak angular velocity is ``2π·A/T`` — the default is ~34°/s,
    a calm look-around.  ``sway`` adds a small translation oscillation.
    """

    yaw_amplitude: float = 0.25
    period: float = 2.5
    sway: float = 0.08
    distance: float = 2.0
    intrinsics: np.ndarray = field(default_factory=default_intrinsics)

    def pose_at(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Pose of the (static) plane in the moving camera's frame.

        A camera pan by ``yaw`` rotates *everything* in the camera
        frame — both the plane's orientation and its position — which
        is what sweeps the projected anchor across the image (unlike
        rotating the plane about its own axis, which barely moves its
        centre).
        """
        phase = 2 * math.pi * t / self.period
        yaw = self.yaw_amplitude * math.sin(phase)
        camera_rotation = rotation_about("y", yaw)
        plane_position = np.array(
            [self.sway * math.sin(phase * 0.7), 0.02 * math.cos(phase), self.distance]
        )
        rotation = camera_rotation.T            # plane orientation in camera frame
        translation = camera_rotation.T @ plane_position
        return rotation, translation

    def homography_at(self, t: float) -> np.ndarray:
        rotation, translation = self.pose_at(t)
        return homography_from_pose(self.intrinsics, rotation, translation)

    @property
    def peak_angular_velocity_deg(self) -> float:
        return math.degrees(2 * math.pi * self.yaw_amplitude / self.period)


def misalignment_px(h_current: np.ndarray, h_stale: np.ndarray) -> float:
    """Mean displacement (pixels) of the ``DEFAULT_ANCHOR`` corners
    between the overlay's true and rendered positions."""
    true_px = apply_homography(h_current, DEFAULT_ANCHOR)
    drawn_px = apply_homography(h_stale, DEFAULT_ANCHOR)
    return float(np.linalg.norm(true_px - drawn_px, axis=1).mean())


#: Seconds between two display refreshes (a 60 Hz display).
DISPLAY_DT = 1.0 / 60.0

#: :func:`acceptable_latency`: the mean misalignment users start to
#: notice (5 px on a 320-wide frame), the search's resolution and its
#: upper bound, in seconds.
MAX_ERROR_PX = 5.0
LATENCY_RESOLUTION = 0.001
LATENCY_CEILING = 0.5


def misalignment_profile(
    camera: PanningCamera,
    latencies: Sequence[float],
    duration: float = 5.0,
) -> List[Tuple[float, float, float]]:
    """(latency, mean_error_px, p95_error_px) over a motion episode.

    Samples the camera at display rate (``DISPLAY_DT``); for each
    latency L the renderer uses the homography from t − L.
    """
    out: List[Tuple[float, float, float]] = []
    times = np.arange(max(latencies), duration, DISPLAY_DT)
    for latency in latencies:
        errors = [
            misalignment_px(camera.homography_at(t), camera.homography_at(t - latency))
            for t in times
        ]
        errors.sort()
        mean_error = mean(errors)
        p95 = errors[min(len(errors) - 1, int(0.95 * (len(errors) - 1)))]
        out.append((latency, mean_error, p95))
    return out


def acceptable_latency(camera: PanningCamera) -> float:
    """Largest motion-to-photon latency keeping mean error ≤
    ``MAX_ERROR_PX``.

    Binary-searches the misalignment profile; 5 px on a 320-wide frame
    is roughly the registration error users start noticing.
    """
    lo, hi = 0.0, LATENCY_CEILING
    while hi - lo > LATENCY_RESOLUTION:
        mid = (lo + hi) / 2
        (_, mean_error, _), = misalignment_profile(camera, [mid], duration=3.0)
        if mean_error <= MAX_ERROR_PX:
            lo = mid
        else:
            hi = mid
    return lo
