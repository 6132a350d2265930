"""Tests for overlay alignment under latency."""

import math

import numpy as np
import pytest

from repro.vision.overlay import (
    DEFAULT_ANCHOR,
    PanningCamera,
    acceptable_latency,
    apply_homography,
    misalignment_profile,
    misalignment_px,
)


def test_apply_homography_maps_points():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(apply_homography(np.eye(3), pts), pts)
    shift = np.array([[1, 0, 5], [0, 1, -3], [0, 0, 1]], dtype=float)
    assert np.allclose(apply_homography(shift, pts), pts + [5.0, -3.0])
    # Projective division: scaling H leaves the mapping unchanged.
    assert np.allclose(apply_homography(2.0 * shift, pts), pts + [5.0, -3.0])


class TestPanningCamera:
    def test_projection_in_frame(self):
        camera = PanningCamera()
        pixels = apply_homography(camera.homography_at(0.0), DEFAULT_ANCHOR)
        assert np.all(pixels[:, 0] > 0) and np.all(pixels[:, 0] < 320)
        assert np.all(pixels[:, 1] > 0) and np.all(pixels[:, 1] < 240)

    def test_pan_sweeps_the_anchor(self):
        camera = PanningCamera()
        p0 = apply_homography(camera.homography_at(0.0), DEFAULT_ANCHOR[:1])
        p1 = apply_homography(camera.homography_at(camera.period / 4),
                              DEFAULT_ANCHOR[:1])
        # A quarter period reaches peak yaw: tens of pixels of sweep.
        assert np.linalg.norm(p1 - p0) > 30

    def test_yaw_periodicity(self):
        # The sway component is deliberately incommensurate; with it
        # disabled the motion is exactly periodic.
        camera = PanningCamera(sway=0.0)
        h0 = camera.homography_at(0.0)
        h1 = camera.homography_at(camera.period)
        assert np.allclose(h0, h1, atol=1e-9)

    def test_peak_angular_velocity(self):
        camera = PanningCamera(yaw_amplitude=0.25, period=2.5)
        assert camera.peak_angular_velocity_deg == pytest.approx(
            math.degrees(2 * math.pi * 0.25 / 2.5))


class TestMisalignment:
    def test_zero_latency_zero_error(self):
        camera = PanningCamera()
        h = camera.homography_at(1.0)
        assert misalignment_px(h, h) == 0.0

    def test_error_monotone_in_latency(self):
        camera = PanningCamera()
        profile = misalignment_profile(camera, [0.0, 0.02, 0.05, 0.1, 0.2])
        means = [m for _, m, _ in profile]
        assert means == sorted(means)

    def test_error_scales_with_motion_speed(self):
        slow = PanningCamera(yaw_amplitude=0.1)
        fast = PanningCamera(yaw_amplitude=0.4)
        (_, slow_err, _), = misalignment_profile(slow, [0.075])
        (_, fast_err, _), = misalignment_profile(fast, [0.075])
        assert fast_err > slow_err * 2

    def test_p95_at_least_mean(self):
        camera = PanningCamera()
        profile = misalignment_profile(camera, [0.05, 0.1])
        for _, mean_error, p95 in profile:
            assert p95 >= mean_error


class TestAcceptableLatency:
    def test_threshold_bracketed(self):
        camera = PanningCamera()
        latency = acceptable_latency(camera)
        (_, at_threshold, _), = misalignment_profile(camera, [latency],
                                                     duration=3.0)
        assert at_threshold <= 5.0
        (_, above, _), = misalignment_profile(camera, [latency + 0.02],
                                              duration=3.0)
        assert above > 5.0

    def test_faster_motion_demands_lower_latency(self):
        calm = acceptable_latency(PanningCamera(yaw_amplitude=0.15))
        frantic = acceptable_latency(PanningCamera(yaw_amplitude=0.6))
        assert frantic < calm
