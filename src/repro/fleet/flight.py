"""Crash flight recorder: a bounded ring of recent engine events.

When a fleet worker dies (segfault, OOM kill, injected ``SIGKILL``)
the driver learns only that the pool broke — the shard's last moments
are gone.  A :class:`FlightRecorder` keeps them: it installs itself as
the process-wide :data:`repro.simnet.engine.default_trace_hook`, so
every simulator the worker creates appends its fired events to a
bounded ring buffer.  The hook *is* the ring's C-level ``append`` —
one deque push per event, no Python frame — so arming the recorder is
nearly free; ``(sim_time, seq, handler)`` rows are extracted only when
the ring spills.

Two artifacts come out of it, both under the campaign's flight
directory:

- ``worker-<pid>.json`` — a **spill**, rewritten at every shard
  boundary (:meth:`begin_shard`): the rolling ring tail plus the
  tag/attempt about to run.  A worker killed without
  cleanup leaves its spill behind, naming the shard it was on and the
  last engine events it fired — which is exactly what the driver
  attaches to the quarantine record
  (:func:`collect_flight_dump`).
- ``flight-<idx>-<hash8>-a<N>.json`` — a **crash dump**, written
  in-process the moment a shard raises, with the ring tail *and* the
  traceback.

The recorder is harness code (wall-clock-free regardless — rings hold
sim time): it observes fired events and never mutates simulator state,
so enabling it cannot change any result byte.  That is pinned by the
byte-identity tests in ``tests/test_fleet_telemetry.py``.

Both artifacts are canonical JSON in the one setting of
:mod:`repro.obs.export`, imported where a document is written: a fleet
that records nothing never loads the obs package.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.analysis.stats import CANONICAL_JSON
from repro.fleet.campaign import stable_hash

#: Flight artifact schema version.
FLIGHT_SCHEMA = 1

#: Default ring capacity: enough to see a shard's last few frames
#: without the spill write becoming measurable next to the shard.
RING_CAPACITY = 256


def handler_name(fn: Callable) -> str:
    """Stable display name for a handler function object."""
    module = getattr(fn, "__module__", None) or "?"
    qual = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}.{qual}"


def _safe_stem(tag: str) -> str:
    """Filename-safe shard identifier (tags contain '/', '=' and ',')."""
    return stable_hash(tag)[:8]


class FlightRecorder:
    """Per-process ring buffer of recent engine events, spillable to disk."""

    def __init__(self, out_dir, worker_id: Optional[int] = None) -> None:
        self.out_dir = pathlib.Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            # Like a failed write: every artifact is dropped, no shard
            # fails (the directory's parent is a file, or read-only).
            pass
        self.ring: deque = deque(maxlen=RING_CAPACITY)
        #: the engine hook — the ring's own C-level ``append``, stored
        #: so :meth:`uninstall` can identity-check what it installed.
        #: The ring therefore holds fired ``Event`` objects; their
        #: ``(time, seq, fn)`` rows are extracted only at spill time.
        self.hook = self.ring.append
        self.worker_id = worker_id if worker_id is not None else os.getpid()
        #: the spill path never changes, so it is built once, as ``str``:
        #: ``pathlib`` joins were most of a spill's Python frames
        self._spill = os.path.join(out_dir, f"worker-{self.worker_id}.json")
        self.shards_seen = 0
        self.crash_dumps: List[str] = []
        self._names: Dict[object, str] = {}

    def install(self) -> None:
        """Become the default trace hook for every new Simulator here."""
        from repro.simnet import engine

        engine.default_trace_hook = self.hook

    def uninstall(self) -> None:
        from repro.simnet import engine

        if engine.default_trace_hook is self.hook:
            engine.default_trace_hook = None

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def begin_shard(self, tag: str, attempt: int) -> None:
        """Note the shard about to run and spill the ring to disk.

        The spill happens *before* the shard executes, so a worker that
        dies mid-shard (no cleanup runs) still leaves a file naming its
        victim and holding the ring tail as of the shard boundary.  The
        ring deliberately rolls *across* shard boundaries — like a real
        flight recorder, it answers "what were this process's last N
        events", whichever shard fired them.
        """
        self.shards_seen += 1
        _write(self._spill,
               json.dumps(self._doc(tag, attempt, "spill"), **CANONICAL_JSON) + "\n")

    def dump_crash(self, tag: str, attempt: int, error: str) -> None:
        """Write a crash dump for a shard that raised."""
        path = self.out_dir / (
            f"flight-{len(self.crash_dumps):03d}-{_safe_stem(tag)}"
            f"-a{attempt}.json")
        doc = self._doc(tag, attempt, "crash")
        doc["error"] = error
        if _write(path, json.dumps(doc, **CANONICAL_JSON) + "\n"):
            self.crash_dumps.append(str(path))

    # ------------------------------------------------------------------
    def _events(self) -> List[dict]:
        names = self._names
        out = []
        for event in self.ring:
            fn = event.fn
            name = names.get(fn)
            if name is None:
                name = names[fn] = handler_name(fn)
            out.append({"t": event.time, "seq": event.seq, "fn": name})
        return out

    def _doc(self, tag: str, attempt: int, kind: str) -> dict:
        return {
            "schema": FLIGHT_SCHEMA,
            "kind": kind,
            "worker": self.worker_id,
            "pid": os.getpid(),
            "tag": tag,
            "attempt": attempt,
            "shards_seen": self.shards_seen,
            "ring": self._events(),
        }


def _write(path, text: str) -> bool:
    """Replace ``path`` with ``text`` atomically; False when the write
    failed (``OSError``: ``ENOSPC``, a read-only directory).

    An observer must not fail the shard it watches, so the artifact is
    dropped; :func:`flight_summary` shows it missing.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError:
        return False
    return True


# ----------------------------------------------------------------------
# Driver side: attach flight artifacts to quarantine records
# ----------------------------------------------------------------------
def read_flight_dump(path) -> Optional[dict]:
    """Parse one flight artifact; None when unreadable/half-written."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "ring" in doc else None


def collect_flight_dump(flight_dir, tag: str) -> Optional[pathlib.Path]:
    """Find the flight artifact for a quarantined shard.

    Prefers an in-process crash dump for the tag (a raising shard wrote
    its own); falls back to a worker spill whose recorded tag matches —
    the trace a killed worker left at its last shard boundary.  Among
    matches of the same kind the most *informative* wins: most ring
    events first, then highest attempt — an isolation-retry spill from
    a fresh worker (empty ring) must not shadow the original warm
    worker's event tail.  The match is promoted to a stable
    ``quarantine-<hash8>.json`` name so later campaigns (and
    worker-file rewrites) cannot clobber it.
    """
    root = pathlib.Path(flight_dir)
    if not root.is_dir():
        return None
    best: Optional[pathlib.Path] = None
    best_rank = (-1, -1)
    for pattern in (f"flight-*-{_safe_stem(tag)}-a*.json", "worker-*.json"):
        for path in sorted(root.glob(pattern)):
            doc = read_flight_dump(path)
            if doc is None or doc.get("tag") != tag:
                continue
            rank = (len(doc.get("ring", [])), doc.get("attempt") or 0)
            if rank > best_rank:
                best, best_rank = path, rank
        if best is not None:
            break
    if best is None:
        return None
    promoted = root / f"quarantine-{_safe_stem(tag)}.json"
    if best != promoted and not _write(promoted, best.read_text()):
        return best
    return promoted


def flight_summary(flight_dir) -> Dict[str, int]:
    """Artifact counts per kind — the CI assertion surface."""
    root = pathlib.Path(flight_dir)
    out = {"spills": 0, "crashes": 0, "quarantine": 0, "events": 0}
    if not root.is_dir():
        return out
    for path in sorted(root.glob("*.json")):
        doc = read_flight_dump(path)
        if doc is None:
            continue
        out["events"] += len(doc.get("ring", []))
        if path.name.startswith("worker-"):
            out["spills"] += 1
        elif path.name.startswith("quarantine-"):
            out["quarantine"] += 1
        else:
            out["crashes"] += 1
    return out


__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "RING_CAPACITY",
    "collect_flight_dump",
    "flight_summary",
    "read_flight_dump",
]
