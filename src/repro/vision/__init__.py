"""Pure-numpy computer-vision substrate for the MAR workload.

Vision-based MAR applications (Section III-B) match feature points of
the camera view against a database of reference images and compute a
homography to align virtual objects with the physical world.  This
package implements that pipeline from scratch:

- :mod:`~repro.vision.synthetic` — textured synthetic scenes and
  ground-truth homography warps (stand-in for camera frames);
- :mod:`~repro.vision.features` — Harris corner detection and binary
  (BRIEF-like) patch descriptors;
- :mod:`~repro.vision.matching` — Hamming-distance descriptor matching
  with ratio and mutual-consistency tests;
- :mod:`~repro.vision.homography` — normalized DLT inside RANSAC;
- :mod:`~repro.vision.tracking` — Glimpse-style lightweight inter-frame
  tracking that decides when a keyframe must be (re-)processed;
- :mod:`~repro.vision.pipeline` — the assembled AR pipeline with
  per-stage compute-cost accounting (megacycles) consumed by the
  offloading models of :mod:`repro.mar`;
- :mod:`~repro.vision.costs` — the analytic cost model on its own: the
  one submodule that needs no numpy.

The names below resolve on first access (PEP 562 module ``__getattr__``)
rather than at import: every submodule but ``costs`` loads numpy, and
:mod:`repro.obs` imports :mod:`repro.vision.costs` on the simulation
path, which stays on the standard library (docs/PERF.md, "Cold start
and footprint").
"""

from importlib import import_module

#: Public name → the submodule that defines it.
_EXPORTS = {
    "make_scene": "synthetic",
    "random_homography": "synthetic",
    "warp_image": "synthetic",
    "detect_corners": "features",
    "describe": "features",
    "Keypoint": "features",
    "match_descriptors": "matching",
    "Match": "matching",
    "estimate_homography": "homography",
    "ransac_homography": "homography",
    "reprojection_error": "homography",
    "Tracker": "tracking",
    "TrackResult": "tracking",
    "ArPipeline": "pipeline",
    "FrameResult": "pipeline",
    "StageCosts": "costs",
    "Pose": "pose",
    "decompose_homography": "pose",
    "default_intrinsics": "pose",
    "homography_from_pose": "pose",
    "PanningCamera": "overlay",
    "acceptable_latency": "overlay",
    "misalignment_profile": "overlay",
    "misalignment_px": "overlay",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
