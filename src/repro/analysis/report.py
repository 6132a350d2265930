"""Text rendering for benchmark output: tables and ASCII 'figures'.

The benchmark harness regenerates the paper's tables and figures as
text; these helpers keep the formatting consistent across benchmarks.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.analysis.stats import mean

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import ResilienceReport


def format_rate(bps: float) -> str:
    """Human bit rate: 1.5 Kb/s, 12.3 Mb/s, 1.2 Gb/s."""
    for unit, scale in (("Gb/s", 1e9), ("Mb/s", 1e6), ("Kb/s", 1e3)):
        if abs(bps) >= scale:
            return f"{bps / scale:.2f} {unit}"
    return f"{bps:.0f} b/s"


def format_time(seconds: float) -> str:
    """Human time: 12.3 ms, 1.20 s."""
    if abs(seconds) >= 1.0:
        return f"{seconds:.2f} s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} µs"


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                title: Optional[str] = None) -> str:
    """Render a padded ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def resilience_table(reports: Sequence[Tuple[str, "ResilienceReport"]],
                     title: str = "Resilience metrics") -> str:
    """Render named :class:`ResilienceReport`s side by side."""

    def t(x: float) -> str:
        return "—" if x != x or math.isinf(x) else format_time(x)

    rows = []
    for name, r in reports:
        rows.append([
            name,
            t(r.mean_detection_time),
            t(r.mttr),
            f"{r.availability:.1%}",
            str(r.frames_offloaded),
            str(r.frames_degraded),
            str(r.frames_dropped),
            f"{r.degraded_fraction:.1%}",
            str(r.failovers),
            str(r.breaker_trips),
        ])
    return ascii_table(
        ["session", "detection", "MTTR", "avail", "offl", "degr",
         "drop", "degr-frac", "failovers", "trips"],
        rows,
        title=title,
    )


# ----------------------------------------------------------------------
# Fleet campaign reports (repro.fleet)
# ----------------------------------------------------------------------
def _fleet_fmt(value: float, unit: str) -> str:
    if value != value:  # NaN — metric absent at this point
        return "—"
    if unit == "time":
        return format_time(value)
    if unit == "rate":
        return format_rate(value)
    return f"{value:.3f}"


def fleet_point_table(points: Sequence[Tuple[str, object]],
                      hist_key: Optional[str], hist_unit: str,
                      moment_keys: Sequence[str],
                      title: str) -> str:
    """Cell-level saturation table: one row per campaign grid point.

    ``points`` pairs a grid-point label with that point's merged
    :class:`~repro.fleet.aggregate.Aggregate` (duck-typed — anything
    with ``counts``/``moments``/``histograms`` mappings works).  The
    named histogram contributes p50/p95/p99 columns; each named moment
    contributes a mean column.
    """
    nan = float("nan")
    headers = ["point", "n"]
    if hist_key:
        headers += [f"{hist_key} p50", "p95", "p99"]
    headers += [f"mean {k}" for k in moment_keys]
    rows = []
    for label, agg in points:
        hist = agg.histograms.get(hist_key) if hist_key else None
        n = hist.total if hist is not None else (
            max(agg.counts.values()) if agg.counts else 0)
        row = [label, str(n)]
        if hist_key:
            if hist is not None and hist.total:
                row += [_fleet_fmt(hist.percentile(q), hist_unit)
                        for q in (50.0, 95.0, 99.0)]
            else:
                row += ["—", "—", "—"]
        for key in moment_keys:
            m = agg.moments.get(key)
            unit = hist_unit if key == hist_key else (
                "rate" if key.endswith("bps") else
                "time" if key.endswith(("latency", "rtt")) else "plain")
            row.append(_fleet_fmt(m.mean if m is not None and m.count else nan,
                                  unit))
        rows.append(row)
    return ascii_table(headers, rows, title=title)


def fleet_report(result) -> str:
    """Render a :class:`~repro.fleet.workers.FleetResult` as text.

    Deliberately excludes wall-clock timings and cache counters that
    vary between equivalent runs: serial and parallel executions of the
    same campaign must render byte-identically (the fleet determinism
    contract; timing goes to the CLI's stderr progress line instead).
    """
    c = result.campaign
    hist_key = result.latency_key or result.rate_key
    hist_unit = "time" if result.latency_key else "rate"
    lines = [
        f"Fleet campaign {c.name!r} — scenario {c.scenario!r}",
        f"shards: {len(result.outcomes)} "
        f"(ok {result.completed}, quarantined {len(result.quarantined)}) · "
        f"seeds/point: {c.seeds} · base seed: {c.base_seed}",
        "",
        fleet_point_table(list(result.per_point.items()), hist_key, hist_unit,
                          result.moment_keys,
                          title="Per-point aggregates"),
        "",
        fleet_point_table([("ALL", result.aggregate)], hist_key, hist_unit,
                          result.moment_keys,
                          title="Campaign-wide aggregate"),
    ]
    if result.quarantined:
        lines.append("")
        lines.append("quarantined shards (replay with "
                     "`python -m repro fleet <campaign> --replay TAG`):")
        for outcome in result.outcomes:
            if outcome.status == "quarantined":
                # Errors may carry full worker tracebacks; the report
                # keeps one line per shard and leaves the traceback to
                # the ShardOutcome record / flight artifact.
                brief = (outcome.error or "").splitlines()[0] \
                    if outcome.error else None
                lines.append(f"  {outcome.tag}  "
                             f"[{outcome.attempts} attempts: {brief}]")
                if outcome.flight:
                    lines.append(f"    flight recorder: {outcome.flight}")
    return "\n".join(lines)


def obs_breakdown_table(breakdowns, title: str = "Frame critical path") -> str:
    """Render per-frame critical-path breakdowns from :mod:`repro.obs`.

    ``breakdowns`` is the list produced by
    :meth:`repro.obs.instrument.FrameObserver.breakdowns` — one dict per
    completed frame with ``total``, per-stage durations and the
    compute/serialization/propagation/queueing/render split.  The table
    shows the mean over frames plus the worst frame, which is what an
    operator scans first ("where does the time go, and how bad is the
    tail?").
    """
    if not breakdowns:
        return ascii_table(["bucket", "mean", "max"], [], title=title)

    def column(getter) -> List[float]:
        return [getter(b) for b in breakdowns]

    buckets = sorted({k for b in breakdowns for k in b["critical_path"]})
    rows = []
    for bucket in buckets:
        vals = column(lambda b: b["critical_path"].get(bucket, 0.0))
        rows.append([bucket, format_time(mean(vals)), format_time(max(vals))])
    totals = column(lambda b: b["total"])
    rows.append(["total", format_time(mean(totals)), format_time(max(totals))])
    return ascii_table(["bucket", "mean", "max"], rows,
                       title=f"{title} ({len(breakdowns)} frames)")


def fleet_telemetry_table(doc: dict) -> str:
    """Render a ``campaign_telemetry.json`` document as text.

    This is the wall-clock side of the fleet: per-worker utilisation,
    RSS high-water marks, retry/timeout counters and the slowest shards
    normalised by their cost hints.  It is rendered *from recorded
    data* — this module never reads a clock — and is intentionally not
    part of :func:`fleet_report`, whose output must stay byte-identical
    across equivalent runs.
    """
    run = doc.get("run", {})
    shards = doc.get("shards", {})
    cache = doc.get("cache", {})
    campaign = doc.get("campaign", {})
    elapsed = float(run.get("elapsed_s", 0.0))
    lines = [
        f"Telemetry — campaign {campaign.get('name', '?')!r} "
        f"({campaign.get('scenario', '?')})",
        f"elapsed: {format_time(elapsed)} · workers: {run.get('workers', 1)} "
        f"({run.get('start_method') or 'serial'}) · "
        f"batches: {run.get('batches', 0)} · "
        f"reducer peak buffer: {run.get('max_buffered', 0)}",
        f"shards: ok {shards.get('ok', 0)} · "
        f"quarantined {shards.get('quarantined', 0)} · "
        f"retries {shards.get('retries', 0)} · "
        f"timeouts {shards.get('timeouts', 0)} · "
        f"pool breaks {shards.get('pool_breaks', 0)} · "
        f"cache {cache.get('hits', 0)}/{cache.get('hits', 0) + cache.get('misses', 0)} hit",
        f"shard cost hints: {campaign.get('cost_total', 0.0)} total",
    ]
    flight = doc.get("flight")
    if flight:
        lines.append(
            f"flight recorder: {flight.get('spills', 0)} spills, "
            f"{flight.get('crashes', 0)} crashes, "
            f"{flight.get('quarantine', 0)} quarantine dumps "
            f"({flight.get('events', 0)} ring events) in {flight.get('dir')}")
    workers = doc.get("workers", {})
    if workers:
        rows = []
        for pid, w in workers.items():
            busy = float(w.get("busy_s", 0.0))
            util = busy / elapsed if elapsed > 0 else 0.0
            rows.append([pid, w.get("shards", 0), w.get("ok", 0),
                         w.get("err", 0), w.get("batches", 0),
                         format_time(busy), f"{util:6.1%}",
                         f"{w.get('max_rss_kib', 0) / 1024:.1f} MiB"])
        lines.append("")
        lines.append(ascii_table(
            ["pid", "shards", "ok", "err", "batches", "busy", "util",
             "peak RSS"],
            rows, title="Per-worker timeline"))
    slowest = doc.get("slowest", [])
    if slowest:
        rows = [[s.get("tag"), s.get("pid"),
                 format_time(float(s.get("wall_s", 0.0))),
                 f"{s.get('cost', 1.0):.3g}",
                 format_time(float(s.get("wall_per_cost", 0.0)))]
                for s in slowest]
        lines.append("")
        lines.append(ascii_table(
            ["tag", "pid", "wall", "cost", "wall/cost"],
            rows, title="Slowest shards (cost-normalised)"))
    return "\n".join(lines)


#: Character columns and rows of a :class:`Figure`'s plotting canvas.
FIGURE_WIDTH = 72
FIGURE_HEIGHT = 16


class Figure:
    """An ASCII line 'figure': named series over a shared x axis."""

    def __init__(self, title: str, x_label: str = "t", y_label: str = "y") -> None:
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series: List[Tuple[str, List[Tuple[float, float]]]] = []

    def add_series(self, name: str, points: List[Tuple[float, float]]) -> None:
        self.series.append((name, points))

    def render(self) -> str:
        """Plot every series with a distinct glyph on one char canvas."""
        glyphs = "*o+x#@%&"
        all_pts = [p for _, pts in self.series for p in pts]
        if not all_pts:
            return f"{self.title}\n(no data)"
        xs = [p[0] for p in all_pts]
        ys = [p[1] for p in all_pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        width, height = FIGURE_WIDTH, FIGURE_HEIGHT
        canvas = [[" "] * width for _ in range(height)]
        for si, (_, pts) in enumerate(self.series):
            glyph = glyphs[si % len(glyphs)]
            for x, y in pts:
                col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
                row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
                canvas[height - 1 - row][col] = glyph
        lines = [self.title]
        legend = "  ".join(
            f"{glyphs[i % len(glyphs)]}={name}" for i, (name, _) in enumerate(self.series)
        )
        lines.append(legend)
        lines.append(f"y: {self.y_label}  [{y_lo:.3g} .. {y_hi:.3g}]")
        for row in canvas:
            lines.append("|" + "".join(row))
        lines.append("+" + "-" * width)
        lines.append(f"x: {self.x_label}  [{x_lo:.3g} .. {x_hi:.3g}]")
        return "\n".join(lines)
