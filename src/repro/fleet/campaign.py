"""Declarative campaign specs: scenario × parameter grid × seed range.

A :class:`Campaign` names a registered scenario runner and spans a
parameter grid and a seed range; it expands deterministically into an
ordered list of :class:`ShardSpec`, one per (grid point, seed replica).

Seed-derivation contract
------------------------
Every shard's simulator seed is a pure function of the campaign's
``base_seed`` and the shard's ``tag`` string::

    seed = shard_seed(base_seed, tag)     # sha256(f"{base_seed}:{tag}")

This mirrors the engine's :meth:`Simulator.child_rng` ``(seed, tag)``
scheme but routes through SHA-256 so it is stable across processes and
Python versions (the builtin ``hash`` is salted per process).  Because
the seed depends only on the tag — never on shard *index*, worker
assignment, or grid shape — any single shard can be replayed in
isolation (``python -m repro fleet --replay TAG``) and adding grid
points never perturbs existing shards' results.

Cache-key semantics
-------------------
:meth:`Campaign.fingerprint` hashes the canonical spec JSON together
with the fleet schema version, the package version, and the registered
scenario's declared ``version`` — bump any of those and every cached
shard is invalidated; change nothing and a re-run is a 100% cache hit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.analysis.stats import CANONICAL_JSON
from repro.fleet.aggregate import Aggregate

#: Bump when the aggregate schema or shard semantics change in a way
#: that makes previously cached shard results non-comparable.
SCHEMA_VERSION = 1


def stable_hash(text: str) -> str:
    """Process-stable hex digest of a string (unsalted, unlike hash())."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shard_seed(base_seed: int, tag: str) -> int:
    """Derive a shard's simulator seed from ``(base_seed, tag)``.

    63-bit, so it stays a small-int seed for ``random.Random`` and
    survives JSON round trips exactly.
    """
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioDef:
    """A registered shard runner plus its reporting hints.

    ``version`` participates in the campaign fingerprint: bump it when
    the runner's semantics change so stale cached shards are not reused.
    ``latency_key``/``rate_key`` name the histogram the fleet report
    renders percentiles from; ``moment_keys`` the headline moments.
    """

    name: str
    version: int
    fn: Callable[[int, Dict[str, object]], Aggregate]
    doc: str = ""
    latency_key: Optional[str] = None
    rate_key: Optional[str] = None
    moment_keys: Tuple[str, ...] = ()
    #: optional ``params -> relative cost`` estimator (any positive unit:
    #: simulated seconds, frames, stations·s …).  The batched dispatcher
    #: uses it to cut equal-*cost* — not equal-*count* — worker batches,
    #: so a grid mixing cheap and expensive points still load-balances.
    cost_hint: Optional[Callable[[Dict[str, object]], float]] = None

    def shard_cost(self, params: Dict[str, object]) -> float:
        """Estimated relative cost of one shard (>= a small epsilon)."""
        if self.cost_hint is None:
            return 1.0
        try:
            return max(float(self.cost_hint(params)), 1e-9)
        except Exception:
            return 1.0


_SCENARIOS: Dict[str, ScenarioDef] = {}


def register_scenario(name: str, version: int = 1, *,
                      latency_key: Optional[str] = None,
                      rate_key: Optional[str] = None,
                      moment_keys: Sequence[str] = (),
                      cost_hint: Optional[Callable[[Dict[str, object]], float]] = None):
    """Decorator: register ``fn(seed, params) -> Aggregate`` as a runner."""

    def deco(fn):
        _SCENARIOS[name] = ScenarioDef(
            name=name, version=version, fn=fn,
            doc=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
            latency_key=latency_key, rate_key=rate_key,
            moment_keys=tuple(moment_keys),
            cost_hint=cost_hint,
        )
        return fn

    return deco


def get_scenario(name: str) -> ScenarioDef:
    # Built-in runners live in repro.fleet.scenarios; importing it here
    # (not at module load) avoids a campaign<->scenarios cycle.
    if name not in _SCENARIOS:
        import repro.fleet.scenarios  # noqa: F401  (registers built-ins)
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(_SCENARIOS)}"
        ) from None


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
def _fmt_value(v: object) -> str:
    """Stable, compact value rendering for tags (repr floats, no spaces)."""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class ShardSpec:
    """One replayable unit of work: a grid point plus one seed replica."""

    campaign: str
    scenario: str
    index: int                       # position in Campaign.shards() order
    tag: str                         # e.g. "rtt=0.036/s0007" — seed source
    seed: int                        # shard_seed(base_seed, tag)
    params: Tuple[Tuple[str, object], ...]  # grid point ∪ fixed params

    @property
    def point_label(self) -> str:
        """The grid-point part of the tag (no seed suffix)."""
        return self.tag.rsplit("/", 1)[0]

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    """Scenario factory × parameter grid × seed range.

    ``grid`` maps parameter names to value lists; shards enumerate the
    cartesian product over *sorted* key order (grid-point major, seed
    minor), so shard order — and therefore merge order and the rendered
    report — is independent of dict insertion order.  ``params`` are
    fixed values passed to every shard.
    """

    name: str
    scenario: str
    seeds: int = 1
    base_seed: int = 0
    grid: Dict[str, Sequence] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        overlap = set(self.grid) & set(self.params)
        if overlap:
            raise ValueError(f"grid and params overlap on {sorted(overlap)}")

    # -- expansion -----------------------------------------------------
    def points(self) -> List[Dict[str, object]]:
        """Grid points in deterministic (sorted-key, row-major) order."""
        if not self.grid:
            return [{}]
        keys = sorted(self.grid)
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(self.grid[k] for k in keys))]

    def point_label(self, point: Dict[str, object]) -> str:
        if not point:
            return "default"
        return ",".join(f"{k}={_fmt_value(point[k])}" for k in sorted(point))

    def shards(self) -> List[ShardSpec]:
        out: List[ShardSpec] = []
        for point in self.points():
            label = self.point_label(point)
            merged = dict(self.params)
            merged.update(point)
            params = tuple(sorted(merged.items()))
            for s in range(self.seeds):
                tag = f"{label}/s{s:04d}"
                out.append(ShardSpec(
                    campaign=self.name,
                    scenario=self.scenario,
                    index=len(out),
                    tag=tag,
                    seed=shard_seed(self.base_seed, tag),
                    params=params,
                ))
        return out

    def shard_by_tag(self, tag: str) -> ShardSpec:
        for spec in self.shards():
            if spec.tag == tag:
                return spec
        raise KeyError(f"no shard tagged {tag!r} in campaign {self.name!r}")

    @property
    def n_shards(self) -> int:
        n_points = 1
        for values in self.grid.values():
            n_points *= len(values)
        return n_points * self.seeds

    # -- identity ------------------------------------------------------
    def spec_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "params": dict(sorted(self.params.items())),
        }

    def spec_json(self) -> str:
        """Canonical spec JSON (sorted keys, no whitespace)."""
        return json.dumps(self.spec_dict(), **CANONICAL_JSON)

    def fingerprint(self) -> str:
        """Content hash of the spec + code-relevant versions (cache key).

        Memoized on the canonical spec JSON: the cache consults this
        once per shard (get + put), and rebuilding the SHA-256 and
        re-resolving the scenario registry each time was measurable at
        campaign scale.  Mutating the spec (the CLI rewrites ``seeds``)
        changes the spec JSON, which invalidates the memo.
        """
        spec_json = self.spec_json()
        memo = getattr(self, "_fp_memo", None)
        if memo is not None and memo[0] == spec_json:
            return memo[1]
        payload = {
            "spec": self.spec_dict(),
            "schema": SCHEMA_VERSION,
            "repro": repro.__version__,
            "scenario_version": get_scenario(self.scenario).version,
        }
        digest = stable_hash(json.dumps(payload, **CANONICAL_JSON))
        self._fp_memo = (spec_json, digest)
        return digest


__all__ = [
    "SCHEMA_VERSION",
    "Campaign",
    "ScenarioDef",
    "ShardSpec",
    "get_scenario",
    "register_scenario",
    "shard_seed",
    "stable_hash",
]
