"""The vision side of the MAR workload: its compute price and its geometry.

Vision-based MAR applications (Section III-B) match feature points of
the camera view against a database of reference images and compute a
homography to align virtual objects with the physical world.  The
reproduction keeps the parts of that pipeline the experiments read:

- :mod:`~repro.vision.costs` — the analytic per-stage cost model
  (megacycles of detection, description, matching, RANSAC and
  rendering) that prices recognition; standard library only, so
  :mod:`repro.obs` imports it on the simulation path;
- :mod:`~repro.vision.pose` — camera pose → plane homography, the
  geometry of overlay registration;
- :mod:`~repro.vision.overlay` — overlay misalignment under
  motion-to-photon latency (the E10 benchmark).

``pose`` and ``overlay`` load numpy; import them by their module path.
"""
