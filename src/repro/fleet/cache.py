"""On-disk shard-result cache for fleet campaigns.

Layout (default root ``benchmarks/results/fleet/cache/``)::

    cache/<fingerprint16>/campaign.json        # the spec, for humans/replay
    cache/<fingerprint16>/00042-1a2b3c4d.json  # one canonical Aggregate per shard
    cache/<fingerprint16>/merged.json          # the finished merge, once complete

The directory name is the first 16 hex chars of
:meth:`Campaign.fingerprint` — a content hash of the spec plus the
fleet schema version, package version, and scenario version.  Any
change to the campaign spec or to code the results depend on lands in
a fresh directory; re-running an unchanged spec only executes shards
whose file is missing (normally none → 100% hit rate).

Shard files hold the shard's canonical :class:`Aggregate` JSON, so a
cache hit merges byte-identically with a freshly computed shard.
Writes are atomic (temp file + ``os.replace``) so a killed worker can
never leave a half-written entry; unreadable entries are treated as
misses and overwritten.  A write that fails (full disk, read-only
root) is counted in :attr:`ResultCache.write_errors` and otherwise
ignored: the cache is an accelerator, never a reason to fail a shard
whose simulation succeeded.

The merged entry
----------------
Because the directory is keyed by the whole-campaign fingerprint, the
only traffic a directory ever sees is a re-run of the identical spec.
A run that ends with every shard ``ok`` and every shard file written
therefore records what it computed — ``merged.json``: the full
fingerprint, the sha256 of each shard file's bytes in shard-index
order, the campaign-wide aggregate, every per-point aggregate in
grid-point order, and a sha256 over all of that.  The next run is
served from it, without parsing a shard or merging anything, when

- its own checksum holds,
- fingerprint, shard count and point labels match the expanded spec,
- **and every shard file still hashes to its recorded digest**.

On any mismatch the entry is ignored and the per-shard path runs; when
the entry itself is intact (the first two checks), that path also
treats a shard file whose bytes left their recorded digest as a miss,
so a bit-flip that still parses is re-simulated instead of merged.
The entry is as many times smaller than the shards as there are shards
per grid point (one aggregate per point), which is what the saving
scales with — docs/FLEET.md §4.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.analysis.stats import CANONICAL_JSON
from repro.fleet.aggregate import Aggregate
from repro.fleet.campaign import stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.campaign import Campaign, ShardSpec

#: Default cache root, next to the benchmark reports.
DEFAULT_CACHE_ROOT = (pathlib.Path(__file__).resolve().parents[3]
                      / "benchmarks" / "results" / "fleet" / "cache")

#: File name of the merged entry inside a campaign directory.
MERGED_NAME = "merged.json"


def _shard_name(spec: "ShardSpec") -> str:
    # Tags contain '/', '=' and ',' — filename-hostile — so the file
    # name pairs the (order-preserving) index with a tag hash.
    return f"{spec.index:05d}-{stable_hash(spec.tag)[:8]}.json"


# The merged entry is ``{"payload":<canonical JSON>,"sha256":"<of the
# payload text>"}`` with exactly this framing, so the checksum is taken
# over the text as stored — nothing is re-serialised on the read path.
_SEAL = '{{"payload":{},"sha256":"{}"}}'
_SEAL_HEAD_LEN = len('{"payload":')
_SEAL_TAIL_LEN = len(_SEAL.format("", "0" * 64)) - _SEAL_HEAD_LEN


def _seal(payload: str) -> str:
    return _SEAL.format(payload, stable_hash(payload))


def _unseal(text: str) -> str:
    """The payload of a sealed entry; ValueError unless the seal holds."""
    payload = text[_SEAL_HEAD_LEN:-_SEAL_TAIL_LEN]
    if text != _seal(payload):
        raise ValueError("merged entry's checksum does not hold")
    return payload


@dataclass
class MergedEntry:
    """An intact ``merged.json``: what a completed campaign computed."""

    #: recorded sha256 of each shard file's bytes, in shard-index order
    digests: List[str]
    aggregate: Aggregate
    per_point: Dict[str, Aggregate]   # insertion-ordered by grid point
    #: every shard file on disk still hashes to its recorded digest
    verified: bool = False


class ResultCache:
    """Per-shard result store keyed by campaign fingerprint + shard tag."""

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else DEFAULT_CACHE_ROOT
        self.hits = 0
        self.misses = 0
        #: cache writes that raised OSError and were dropped
        self.write_errors = 0
        # fingerprints whose campaign.json this instance already ensured
        # exists — avoids a disk stat per shard put at campaign scale
        self._meta_written: set = set()

    # ------------------------------------------------------------------
    def campaign_dir(self, campaign: "Campaign") -> pathlib.Path:
        return self.root / campaign.fingerprint()[:16]

    def shard_path(self, campaign: "Campaign", spec: "ShardSpec") -> pathlib.Path:
        return self.campaign_dir(campaign) / _shard_name(spec)

    # ------------------------------------------------------------------
    def get(self, campaign: "Campaign", spec: "ShardSpec",
            expect: Optional[str] = None) -> Optional[Tuple[Aggregate, str]]:
        """Cached ``(aggregate, sha256 of the file)`` for a shard, or
        None (counts hit/miss).

        ``expect`` is the digest an intact merged entry recorded for
        this shard: a file that no longer hashes to it is a miss even
        if it still parses.
        """
        try:
            data = self.shard_path(campaign, spec).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if expect is not None and digest != expect:
                raise ValueError("shard file left its recorded digest")
            agg = Aggregate.from_json(data.decode("utf-8"))
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return agg, digest

    def put(self, campaign: "Campaign", spec: "ShardSpec",
            text: str) -> Optional[str]:
        """Atomically persist one shard's canonical aggregate JSON.

        Returns the sha256 of the bytes written, or None when the write
        failed (counted in :attr:`write_errors`).
        """
        cdir = self.campaign_dir(campaign)
        try:
            cdir.mkdir(parents=True, exist_ok=True)
            if cdir.name not in self._meta_written:
                meta = cdir / "campaign.json"
                if not meta.exists():
                    self._atomic_write(meta, json.dumps(
                        {"fingerprint": campaign.fingerprint(),
                         "spec": campaign.spec_dict()},
                        indent=2, sort_keys=True) + "\n")
                self._meta_written.add(cdir.name)
            self._atomic_write(cdir / _shard_name(spec), text)
        except OSError:
            self.write_errors += 1
            return None
        return stable_hash(text)

    # ------------------------------------------------------------------
    def get_merged(self, campaign: "Campaign",
                   shards: Sequence["ShardSpec"]) -> Optional[MergedEntry]:
        """The campaign's merged entry if it is intact, else None.

        Intact: it parses, its checksum holds, and fingerprint, shard
        count and point labels match the expanded spec.  An intact
        entry whose shard files all still hash to their recorded
        digests comes back ``verified`` (and counts one hit per shard).
        """
        cdir = self.campaign_dir(campaign)
        try:
            doc = json.loads(_unseal(
                (cdir / MERGED_NAME).read_text(encoding="utf-8")))
            digests = doc["shards"]
            labels = list(dict.fromkeys(
                campaign.point_label(p) for p in campaign.points()))
            if (doc["fingerprint"] != campaign.fingerprint()
                    or len(digests) != len(shards)
                    or [label for label, _ in doc["per_point"]] != labels):
                return None
            entry = MergedEntry(
                digests=digests,
                aggregate=Aggregate.from_dict(doc["aggregate"]),
                per_point={label: Aggregate.from_dict(d)
                           for label, d in doc["per_point"]})
        except (OSError, ValueError, KeyError, TypeError):
            return None
        entry.verified = self._shards_match(cdir, shards, digests)
        if entry.verified:
            self.hits += len(shards)
        return entry

    @staticmethod
    def _shards_match(cdir: pathlib.Path, shards: Sequence["ShardSpec"],
                      digests: Sequence[str]) -> bool:
        """Every shard file's bytes hash to its recorded digest."""
        # All that a warm re-run does per shard: string joins, no pathlib.
        prefix = str(cdir)
        try:
            for spec, want in zip(shards, digests):
                with open(os.path.join(prefix, _shard_name(spec)), "rb") as f:
                    if hashlib.sha256(f.read()).hexdigest() != want:
                        return False
        except OSError:
            return False
        return True

    def put_merged(self, campaign: "Campaign", digests: Sequence[str],
                   aggregate: Aggregate,
                   per_point: Dict[str, Aggregate]) -> None:
        """Atomically record a completed campaign's merge.

        ``digests`` are the shard files' sha256s in shard-index order,
        as :meth:`get` / :meth:`put` returned them — no file is read
        back.
        """
        payload = json.dumps(
            {"fingerprint": campaign.fingerprint(),
             "shards": digests,
             "aggregate": aggregate.to_dict(),
             "per_point": [[label, agg.to_dict()]
                           for label, agg in per_point.items()]},
            **CANONICAL_JSON)
        try:
            self._atomic_write(self.campaign_dir(campaign) / MERGED_NAME,
                               _seal(payload))
        except OSError:
            self.write_errors += 1

    # ------------------------------------------------------------------
    @staticmethod
    def _atomic_write(path: pathlib.Path, text: str) -> None:
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)


__all__ = ["DEFAULT_CACHE_ROOT", "MERGED_NAME", "MergedEntry", "ResultCache"]
