"""Plane homography from a camera pose.

The point of computing a homography in MAR (Section III-B) is to anchor
virtual content: the homography between a known planar reference and
the camera view encodes the camera's rotation and translation relative
to that plane, which is what the renderer actually consumes.

Given intrinsics ``K``, a rotation ``R = [r1 r2 r3]`` and a translation
``t``, the homography mapping reference-plane coordinates to image
coordinates is::

    H ∝ K [r1 r2 t]

:func:`homography_from_pose` builds it; the overlay model
(:mod:`~repro.vision.overlay`) uses it to place content in a moving
camera's view.
"""

from __future__ import annotations

import numpy as np


#: The default camera: image width and height in pixels, horizontal
#: field of view in degrees.
IMAGE_WIDTH, IMAGE_HEIGHT = 320, 240
FOV_DEG = 65.0


def default_intrinsics() -> np.ndarray:
    """A plausible pinhole camera matrix for the default image size/FOV."""
    focal = (IMAGE_WIDTH / 2) / np.tan(np.radians(FOV_DEG) / 2)
    return np.array(
        [[focal, 0.0, IMAGE_WIDTH / 2.0],
         [0.0, focal, IMAGE_HEIGHT / 2.0],
         [0.0, 0.0, 1.0]]
    )


def homography_from_pose(k: np.ndarray, rotation: np.ndarray,
                         translation: np.ndarray) -> np.ndarray:
    """Forward model: H ∝ K [r1 r2 t], normalized to H[2,2] = 1."""
    h = k @ np.column_stack([rotation[:, 0], rotation[:, 1], translation])
    if abs(h[2, 2]) < 1e-12:
        raise ValueError("degenerate pose (plane through camera center)")
    return h / h[2, 2]


def rotation_about(axis: str, angle: float) -> np.ndarray:
    """Convenience rotation matrices for tests and examples."""
    c, s = np.cos(angle), np.sin(angle)
    if axis == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    if axis == "y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    if axis == "z":
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
    raise ValueError(f"unknown axis {axis!r}")
