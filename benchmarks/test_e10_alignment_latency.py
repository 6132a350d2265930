"""E10 — extension: overlay misalignment vs motion-to-photon latency.

The paper's latency ladder — 100 ms for generic real-time apps, 75 ms
as its working MAR budget, Abrash's ≤20 ms for AR/VR, a 7 ms "holy
grail" — is usually argued by citation.  Here it is *derived*: a
calmly panning camera (peak ~34°/s) renders a plane-anchored virtual
card with a stale homography; the registration error in pixels is a
pure function of latency.

Expected shape: error grows monotonically (≈ linearly for small L)
with latency; the paper's 75 ms round-trip budget sits near the edge of
a ~15 px error on a 320-wide frame; 20 ms keeps mean error under ~5 px
(barely noticeable); 7 ms under ~2 px (imperceptible); 250 ms telemetry
latency produces a visually broken overlay.
"""

from conftest import run_once

from repro.analysis.report import Figure, ascii_table, format_time
from repro.vision.overlay import (
    PanningCamera,
    acceptable_latency,
    misalignment_profile,
)

LATENCIES = [0.0, 0.007, 0.020, 0.0375, 0.075, 0.120, 0.250]


def run_profile():
    camera = PanningCamera()
    profile = misalignment_profile(camera, LATENCIES)
    threshold_latency = acceptable_latency(camera)
    return camera, profile, threshold_latency


def test_e10_alignment_error_vs_latency(benchmark, record_result):
    camera, profile, threshold_latency = run_once(benchmark, run_profile)

    labels = {
        0.0: "(no latency)",
        0.007: "Abrash 'holy grail'",
        0.020: "Abrash AR/VR bound",
        0.0375: "half the paper budget",
        0.075: "paper round-trip budget",
        0.120: "measured cloud/LTE RTT",
        0.250: "telemetry class",
    }
    rows = [
        [format_time(latency), labels.get(latency, ""),
         f"{mean_error:.1f} px", f"{p95:.1f} px"]
        for latency, mean_error, p95 in profile
    ]
    fig = Figure(
        f"E10 — overlay error vs latency (panning at ~{camera.peak_angular_velocity_deg:.0f} deg/s)",
        x_label="latency (s)", y_label="mean error (px)",
    )
    fig.add_series("mean error", [(l, e) for l, e, _ in profile])
    table = ascii_table(
        ["motion-to-photon latency", "corresponds to", "mean error", "p95 error"],
        rows,
        title="Registration error of a plane-anchored overlay (320 px frame)",
    )
    note = (f"largest latency keeping mean error <= 5 px at this motion: "
            f"{format_time(threshold_latency)}")
    record_result("E10_alignment_latency", fig.render() + "\n\n" + table
                  + "\n\n" + note)

    errors = {latency: mean for latency, mean, _ in profile}
    # Monotone growth with latency.
    ordered = [errors[l] for l in LATENCIES]
    assert ordered == sorted(ordered)
    # The paper's cited thresholds, derived:
    assert errors[0.007] < 2.5          # holy grail: imperceptible
    assert errors[0.020] < 6.0          # AR/VR bound: barely noticeable
    assert errors[0.250] > 20.0         # telemetry class: broken overlay
    # The derived 5 px-acceptable latency lands in the 10-60 ms band —
    # bracketing Abrash's 20 ms claim for this motion speed.
    assert 0.010 < threshold_latency < 0.060
    # And the paper's 75 ms budget is already a visible-compromise zone.
    assert 6.0 < errors[0.075] < 40.0
