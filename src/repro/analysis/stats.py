"""Small statistics helpers (no numpy dependency on hot paths).

Every summary helper accepts arbitrary *iterables* — raw sequences,
generators, or streams of per-shard summary objects — not just
materialized lists, so fleet reports can feed shard summaries straight
through.  :func:`timeseries_bins` additionally understands *mergeable*
values (anything with a ``merge`` method, e.g.
:class:`StreamingMoments`): buckets of mergeable summaries reduce by
merging instead of averaging.

The two mergeable streaming primitives — :class:`StreamingMoments`
(Welford/Chan-Golub-LeVeque moments) and :class:`FixedBinHistogram`
(fixed-bin counts with exact elementwise merging) — live here, in the
sim domain, so both the fleet aggregation layer
(:mod:`repro.fleet.aggregate`, which re-exports them) and the
observability metrics registry (:mod:`repro.obs.registry`) share one
canonical implementation and shard registries stay byte-identically
merge-compatible.

:func:`mean`, :func:`stddev` and :func:`jain_index` sum with
``math.fsum``, which is correctly rounded on every CPython (the builtin
``sum()`` of floats is compensated only from 3.12 on).  Every float
aggregate in :mod:`repro` goes through them or ``math.fsum``;
``tests/test_determinism_guards.py`` enforces it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

#: The one canonical-JSON setting (sorted keys, no whitespace): the
#: fleet's aggregates, specs, cache and telemetry documents and every
#: :mod:`repro.obs` export dump with it, so the same data gives the same
#: bytes.  It lives here because both packages import this module at
#: load time and :mod:`repro.fleet` must not load :mod:`repro.obs`.
CANONICAL_JSON = {"sort_keys": True, "separators": (",", ":")}


def mean(data: Iterable[float]) -> float:
    """Arithmetic mean; NaN for empty input."""
    data = data if isinstance(data, Sequence) else list(data)
    return math.fsum(data) / len(data) if data else float("nan")


def stddev(data: Iterable[float]) -> float:
    """Sample standard deviation; 0.0 for fewer than two points."""
    data = data if isinstance(data, Sequence) else list(data)
    n = len(data)
    if n < 2:
        return 0.0
    mu = mean(data)
    return math.sqrt(math.fsum((x - mu) ** 2 for x in data) / (n - 1))


def percentile(data: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; NaN when empty."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(data)
    if not ordered:
        return float("nan")
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    # a + frac*(b-a) is exact when a == b, unlike the convex-combination
    # form, so percentiles of constant data stay bit-identical.
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    p5: float
    p50: float
    p95: float
    minimum: float
    maximum: float


def summarize(data: Iterable[float]) -> Summary:
    """Summary statistics of a sample (NaN-filled when empty)."""
    data = list(data)
    if not data:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    return Summary(
        n=len(data),
        mean=mean(data),
        std=stddev(data),
        p5=percentile(data, 5),
        p50=percentile(data, 50),
        p95=percentile(data, 95),
        minimum=min(data),
        maximum=max(data),
    )


def _merge_copies(vals: Sequence):
    """Merge mergeable summaries without mutating the inputs."""
    merged = type(vals[0])()
    for v in vals:
        merged.merge(v)
    return merged


def timeseries_bins(
    samples: Iterable[Tuple[float, object]], bin_size: float, reducer=mean
) -> List[Tuple[float, object]]:
    """Bin (time, value) samples; returns (bin_start, reduced_value).

    Values may be plain numbers (reduced with ``reducer``, default
    :func:`mean`) or mergeable shard summaries — objects exposing
    ``merge(other)``, such as fleet ``StreamingMoments`` — in which
    case each bucket reduces to a fresh merged summary (inputs are not
    mutated) and ``reducer`` is ignored.
    """
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    buckets: dict = {}
    for t, v in samples:
        buckets.setdefault(int(t // bin_size), []).append(v)
    out: List[Tuple[float, object]] = []
    for k, vals in sorted(buckets.items()):
        if hasattr(vals[0], "merge"):
            out.append((k * bin_size, _merge_copies(vals)))
        else:
            out.append((k * bin_size, reducer(vals)))
    return out


# ----------------------------------------------------------------------
# Mergeable streaming primitives (shared by fleet shards and the obs
# metrics registry)
# ----------------------------------------------------------------------
class StreamingMoments:
    """Welford-style streaming count/mean/M2 with min/max, mergeable."""

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def extend(self, xs: Iterable[float]) -> "StreamingMoments":
        """:meth:`add` every sample of ``xs``, in order, in one frame.

        The loop *is* ``add`` — the same operations in the same order —
        on locals, so the result is bit-equal to repeated ``add`` (the
        tests hold the two against each other; neither calls the other).
        """
        count = self.count
        mean = self.mean
        m2 = self.m2
        minimum = self.minimum
        maximum = self.maximum
        for x in xs:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if x < minimum:
                minimum = x
            if x > maximum:
                maximum = x
        self.count = count
        self.mean = mean
        self.m2 = m2
        self.minimum = minimum
        self.maximum = maximum
        return self

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold ``other`` into this accumulator (Chan et al. merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 below two samples."""
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def to_dict(self) -> dict:
        d = {"count": self.count, "mean": self.mean, "m2": self.m2}
        if self.count:  # inf sentinels are not JSON-portable
            d["min"] = self.minimum
            d["max"] = self.maximum
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "StreamingMoments":
        m = cls()
        m.count = int(d["count"])
        m.mean = float(d["mean"])
        m.m2 = float(d["m2"])
        if m.count:
            m.minimum = float(d["min"])
            m.maximum = float(d["max"])
        return m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StreamingMoments) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Moments n={self.count} mean={self.mean:.6g} "
                f"std={self.std:.6g}>")


class FixedBinHistogram:
    """Equal-width histogram over ``[lo, hi)`` with exact merging.

    Out-of-range samples land in the underflow/overflow buckets and are
    treated as sitting at the range edge for percentile purposes, so
    percentiles stay defined (and conservative) even when the range
    guess was too tight.
    """

    __slots__ = ("lo", "hi", "bins", "underflow", "overflow")

    def __init__(self, lo: float, hi: float, n_bins: int = 100) -> None:
        if not (hi > lo) or n_bins <= 0:
            raise ValueError("need hi > lo and n_bins > 0")
        self.lo = lo
        self.hi = hi
        self.bins = [0] * n_bins
        self.underflow = 0
        self.overflow = 0

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / len(self.bins)

    @property
    def total(self) -> int:
        return sum(self.bins) + self.underflow + self.overflow

    def add(self, x: float) -> None:
        if x < self.lo:
            self.underflow += 1
        elif x >= self.hi:
            self.overflow += 1
        else:
            idx = int((x - self.lo) / (self.hi - self.lo) * len(self.bins))
            # float rounding at the top edge can yield len(bins)
            self.bins[min(idx, len(self.bins) - 1)] += 1

    def extend(self, xs: Iterable[float]) -> "FixedBinHistogram":
        """:meth:`add` every sample of ``xs`` in one frame (same
        arithmetic and top-edge clamp; bit-equal by test)."""
        lo = self.lo
        hi = self.hi
        span = hi - lo
        bins = self.bins
        n = len(bins)
        last = n - 1
        for x in xs:
            if x < lo:
                self.underflow += 1
            elif x >= hi:
                self.overflow += 1
            else:
                idx = int((x - lo) / span * n)
                # float rounding at the top edge can yield len(bins)
                bins[idx if idx < last else last] += 1
        return self

    def compatible(self, other: "FixedBinHistogram") -> bool:
        return (self.lo == other.lo and self.hi == other.hi
                and len(self.bins) == len(other.bins))

    def merge(self, other: "FixedBinHistogram") -> "FixedBinHistogram":
        if not self.compatible(other):
            raise ValueError(
                f"histogram configs differ: [{self.lo},{self.hi})x{len(self.bins)}"
                f" vs [{other.lo},{other.hi})x{len(other.bins)}")
        self.bins[:] = map(operator.add, self.bins, other.bins)
        self.underflow += other.underflow
        self.overflow += other.overflow
        return self

    def percentile(self, q: float) -> float:
        """Linear-in-bin percentile, ``q`` in [0, 100]; NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        total = self.total
        if total == 0:
            return float("nan")
        rank = (q / 100.0) * total
        cum = self.underflow
        if rank <= cum:
            return self.lo
        for i, c in enumerate(self.bins):
            if c and rank <= cum + c:
                frac = (rank - cum) / c
                return self.lo + (i + frac) * self.bin_width
            cum += c
        return self.hi

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": list(self.bins),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FixedBinHistogram":
        h = cls(float(d["lo"]), float(d["hi"]), len(d["bins"]))
        h.bins = [int(c) for c in d["bins"]]
        h.underflow = int(d["underflow"])
        h.overflow = int(d["overflow"])
        return h

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FixedBinHistogram) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram [{self.lo},{self.hi}) n={self.total} "
                f"p50={self.percentile(50):.4g} p95={self.percentile(95):.4g}>")


def jain_index(allocations: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one hog.

    The paper's property (2) — "fair to other connections while
    exploiting the maximum available bandwidth" — is scored with this
    classic measure over per-flow throughputs.
    """
    allocations = allocations if isinstance(allocations, Sequence) \
        else list(allocations)
    if not allocations:
        return float("nan")
    total = math.fsum(allocations)
    squares = math.fsum(x * x for x in allocations)
    if squares == 0:
        return 1.0
    return total * total / (len(allocations) * squares)
