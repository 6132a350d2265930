"""Privacy filtering for shared visual data (Section VI-G).

Before offloading camera data — especially to *other users' devices*
in a D2D context — "at least faces, license plates and visible street
plates should be blurred".  :class:`PrivacyFilter` implements that
contract on the synthetic frames of :mod:`repro.vision`: sensitive
regions are box-blurred in place, and the filter reports the compute
cost and the information destroyed so benchmarks can quantify the
privacy/utility trade-off (blurring regions removes corners the vision
pipeline would otherwise use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

#: Cycles per blurred pixel (separable gaussian).
CYCLES_PER_BLURRED_PIXEL = 90.0


@dataclass(frozen=True)
class SensitiveRegion:
    """An axis-aligned region to anonymize: (x, y, width, height), pixels."""

    x: int
    y: int
    width: int
    height: int
    kind: str = "face"   # face | license-plate | street-plate | custom

    @property
    def area(self) -> int:
        return self.width * self.height

    def clamp(self, img_h: int, img_w: int) -> "SensitiveRegion":
        x = max(0, min(self.x, img_w - 1))
        y = max(0, min(self.y, img_h - 1))
        w = max(1, min(self.width, img_w - x))
        h = max(1, min(self.height, img_h - y))
        return SensitiveRegion(x, y, w, h, self.kind)


@dataclass
class FilterResult:
    """Outcome of anonymizing one frame."""

    frame: np.ndarray
    regions_blurred: int
    pixels_blurred: int
    megacycles: float


class PrivacyFilter:
    """Blurs declared sensitive regions before a frame leaves the device.

    ``sigma`` controls how destructive the blur is; levels follow the
    I-PIC idea of user-selected privacy levels.
    """

    LEVELS = {"low": 2.0, "medium": 4.0, "high": 8.0}

    def __init__(self, level: str = "medium") -> None:
        if level not in self.LEVELS:
            raise ValueError(f"unknown privacy level {level!r}")
        self.level = level
        self.sigma = self.LEVELS[level]

    def apply(self, frame: np.ndarray, regions: Sequence[SensitiveRegion]) -> FilterResult:
        """Blur every region; returns a new frame plus cost accounting."""
        import numpy as np
        from scipy import ndimage

        out = np.array(frame, dtype=np.float64, copy=True)
        img_h, img_w = out.shape
        pixels = 0
        for region in regions:
            r = region.clamp(img_h, img_w)
            patch = out[r.y : r.y + r.height, r.x : r.x + r.width]
            out[r.y : r.y + r.height, r.x : r.x + r.width] = ndimage.gaussian_filter(
                patch, self.sigma
            )
            pixels += r.area
        return FilterResult(
            frame=out,
            regions_blurred=len(regions),
            pixels_blurred=pixels,
            megacycles=pixels * CYCLES_PER_BLURRED_PIXEL / 1e6,
        )

    @staticmethod
    def information_loss(before: np.ndarray, after: np.ndarray) -> float:
        """Mean absolute pixel change — a proxy for destroyed detail."""
        import numpy as np

        return float(np.abs(np.asarray(before) - np.asarray(after)).mean())
