"""Tests for the bandwidth estimates of Section III-B and the video source."""

import pytest

from repro.mar import video
from repro.mar.video import (
    VideoSource,
    camera_fov_rate_bps,
    compressed_bitrate,
    raw_retina_rate_bps,
    uncompressed_bitrate,
)


class TestBandwidthEstimates:
    def test_retina_rate_range(self):
        lo, hi = raw_retina_rate_bps()
        assert (lo, hi) == (6e6, 10e6)

    def test_fov_scaling_lands_in_paper_range(self):
        # Paper: "around 9 to 12 Gb/s" for a 60-70 degree camera FOV.
        lo60, _ = camera_fov_rate_bps(60.0)
        _, hi70 = camera_fov_rate_bps(70.0)
        assert 5e9 < lo60 < 13e9
        assert 9e9 < hi70 < 13e9

    def test_uncompressed_4k60_rate(self):
        rate = uncompressed_bitrate(3840, 2160, 60, 12)
        # ~5.97 Gb/s = ~711 MiB/s (the paper's figure in byte units).
        assert rate == pytest.approx(5.97e9, rel=0.01)
        assert rate / 8 / 2**20 == pytest.approx(711, rel=0.01)

    def test_compression_brings_4k_to_tens_of_mbps(self):
        raw = uncompressed_bitrate(3840, 2160, 60, 12)
        compressed = compressed_bitrate(raw, ratio=250)
        assert 15e6 < compressed < 35e6

    def test_compression_ratio_validation(self):
        with pytest.raises(ValueError):
            compressed_bitrate(1e9, ratio=1.0)


class TestVideoSource:
    def test_gop_pattern(self, monkeypatch):
        monkeypatch.setattr(video, "VIDEO_GOP", 5)
        src = VideoSource()
        flags = [src.frame(i).is_reference for i in range(10)]
        assert flags == [True, False, False, False, False] * 2

    def test_frame_sizes(self):
        src = VideoSource(ref_bytes=20000, inter_bytes=4000)
        assert src.frame(0).size_bytes == 20000
        assert src.frame(1).size_bytes == 4000

    def test_frames_iterator_duration(self):
        src = VideoSource()
        frames = list(src.frames(2.0))
        assert len(frames) == 60
        assert frames[-1].timestamp == pytest.approx(59 / 30)
