"""Video bandwidth estimates of Section III-B and a GOP video source.

The paper's back-of-envelope chain, reproduced by these functions:

1. the human eye delivers ~6–10 Mb/s to the brain, but only for the
   ~2° foveal circle (:func:`raw_retina_rate_bps`);
2. scaled to a smartphone camera's 60–70° field of view, raw scene data
   is ~9–12 Gb/s (:func:`camera_fov_rate_bps`);
3. uncompressed 4K60 @ 12 bpp is 711 Mb/s
   (:func:`uncompressed_bitrate`);
4. lossy compression brings that to 20–30 Mb/s
   (:func:`compressed_bitrate`), and ~10 Mb/s is the floor for "enough
   information to perform advanced AR operations".

:class:`VideoSource` produces a deterministic reference/inter frame
size sequence with a configurable GOP, used by MARTP benchmarks where
the reference frames form the loss-protected class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

#: Estimated optic-nerve payload for the foveal region (Section III-B).
RETINA_RATE_RANGE_BPS = (6e6, 10e6)

#: Diameter of the accurate foveal circle, degrees of visual field.
FOVEA_DIAMETER_DEG = 2.0


def raw_retina_rate_bps() -> Tuple[float, float]:
    """The 6–10 Mb/s eye-to-brain estimate the paper starts from."""
    return RETINA_RATE_RANGE_BPS


def camera_fov_rate_bps(fov_deg: float = 65.0) -> Tuple[float, float]:
    """Scale the foveal rate to a full camera field of view.

    Information scales with solid angle ≈ (fov/fovea)² for small
    angles; the paper quotes 9–12 Gb/s for a 60–70° camera.
    """
    scale = (fov_deg / FOVEA_DIAMETER_DEG) ** 2
    lo, hi = RETINA_RATE_RANGE_BPS
    return lo * scale, hi * scale


def uncompressed_bitrate(
    width: int = 3840, height: int = 2160, fps: float = 60.0, bits_per_pixel: float = 12.0
) -> float:
    """Raw video bitrate in bits/s.

    The paper quotes "711 Mb/s" for 4K60 at 12 bpp; the exact product
    is 3840*2160*12*60 ≈ 5.97 Gb/s, i.e. ~746 MB/s ≈ 711 **MiB/s** — the
    paper's figure is the *byte* rate mislabelled as Mb/s.  This
    function returns the unambiguous bit rate; EXPERIMENTS.md records
    the unit discrepancy.
    """
    return width * height * bits_per_pixel * fps


def compressed_bitrate(raw_bps: float, ratio: float = 30.0) -> float:
    """Lossy-compressed bitrate at a given compression ratio.

    H.264/H.265 at AR-usable quality achieves ~25–35x on natural video,
    matching the paper's 20–30 Mb/s for 4K.
    """
    if ratio <= 1:
        raise ValueError("compression ratio must exceed 1")
    return raw_bps / ratio


@dataclass
class VideoFrame:
    """One encoded frame."""

    index: int
    is_reference: bool   # I-frame (true) vs P/B interframe
    size_bytes: int
    timestamp: float


#: Frame rate of a :class:`VideoSource`, in frames per second.
VIDEO_FPS = 30.0

#: Group-of-pictures length of a :class:`VideoSource`: one I-frame per
#: this many frames.
VIDEO_GOP = 15


class VideoSource:
    """Deterministic GOP-structured encoded-video source.

    Every ``VIDEO_GOP`` frames an I-frame (reference) of ``ref_bytes`` is
    produced; the remaining frames are interframes of ``inter_bytes``.
    These map directly onto MARTP's traffic classes: reference frames
    are "best effort with loss recovery / highest priority", interframes
    "full best effort / lowest priority" (Section VI-B's worked
    example).
    """

    def __init__(
        self,
        ref_bytes: int = 24_000,
        inter_bytes: int = 6_000,
    ) -> None:
        self.ref_bytes = ref_bytes
        self.inter_bytes = inter_bytes

    def frame(self, index: int) -> VideoFrame:
        is_ref = index % VIDEO_GOP == 0
        return VideoFrame(
            index=index,
            is_reference=is_ref,
            size_bytes=self.ref_bytes if is_ref else self.inter_bytes,
            timestamp=index / VIDEO_FPS,
        )

    def frames(self, duration: float) -> Iterator[VideoFrame]:
        """All frames with timestamp < duration."""
        n = int(duration * VIDEO_FPS)
        for i in range(n):
            yield self.frame(i)
