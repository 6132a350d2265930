"""Every attribute ``src/repro`` stores on ``self`` is read somewhere.

State that nothing reads still costs a store on every event, packet or
hop that writes it.  This walks the AST of ``src/``, ``benchmarks/`` and
``examples/`` (tests do not count as readers) with the same scanner as
``tools/whatruns.py``, whose third report applies the stricter rule of
"read by something that runs".
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("whatruns", ROOT / "tools" / "whatruns.py")
whatruns = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(whatruns)

#: Attributes allowed to have no reader outside the tests, with the
#: reason each one stays.
KEEP = {
    "Node.packets_dropped_down":
        "fault path: a crashed node's drops, injected and asserted by tier-1",
    "Node.packets_unroutable":
        "fault path: packets with no route, injected and asserted by tier-1",
    "Host.packets_dropped_no_port":
        "fault path: packets to an unbound port, injected and asserted by tier-1",
    "FaultInjector.activated":
        "tests/test_fault_determinism.py folds it into a fault fingerprint",
    "FlightRecorder.crash_dumps":
        "failure path: the dumps a crashed shard leaves",
    "TrackingOffload.trigger_interval":
        "the Glimpse tracking split's model parameter",
    "Simulator.trace_hook":
        "a property: the store runs its setter, which arms the observer slot",
}


def _sources():
    return sorted((ROOT / "src" / "repro").rglob("*.py"))


def _readers():
    return sorted(p for d in ("benchmarks", "examples") for p in (ROOT / d).rglob("*.py"))


def test_every_stored_attribute_is_read():
    unread = whatruns.write_only(_sources(), _readers())
    found = {f"{cls}.{name}": sites for (cls, name), sites in unread.items()}
    extra = {key: [f"{path.relative_to(ROOT)}:{line}" for path, line in sites]
             for key, sites in found.items() if key not in KEEP}
    assert not extra, (
        f"attributes stored on self and read nowhere in src/, benchmarks/ or "
        f"examples/: {extra}; delete them with their writes")


def test_every_kept_attribute_is_still_stored():
    stored = {f"{cls}.{name}" for path in _sources()
              for name, _, cls in whatruns.attribute_uses(path)[0]}
    assert set(KEEP) <= stored, sorted(set(KEEP) - stored)
