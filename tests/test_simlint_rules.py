"""Per-rule fixture tests for simlint (repro.lint).

Each SIM rule gets at least one *bad* snippet that must fire and one
*good* snippet that must stay silent, all linted as a sim-domain path
so the domain gate does not mask a broken rule.  Domain and
suppression behaviour are covered at the end.
"""

from repro.lint import Domain, classify, lint_source

SIM_PATH = "src/repro/simnet/fake_module.py"
HARNESS_PATH = "src/repro/fleet/fake_module.py"


def codes(source: str, path: str = SIM_PATH) -> set:
    return {f.rule for f in lint_source(source, path)}


# ----------------------------------------------------------------------
# SIM001 — process-global / unseeded RNGs
# ----------------------------------------------------------------------
def test_sim001_flags_module_level_random_call():
    src = "import random\ndelay = random.uniform(0.0, 1.0)\n"
    assert "SIM001" in codes(src)


def test_sim001_flags_bare_random_instance():
    src = "import random\nrng = random.Random()\n"
    assert "SIM001" in codes(src)


def test_sim001_flags_from_import_draw():
    src = "from random import choice\npick = choice([1, 2, 3])\n"
    assert "SIM001" in codes(src)


def test_sim001_flags_system_random():
    src = "import random\nrng = random.SystemRandom(4)\n"
    assert "SIM001" in codes(src)


def test_sim001_flags_numpy_global_and_unseeded_default_rng():
    assert "SIM001" in codes(
        "import numpy as np\nx = np.random.rand(3)\n")
    assert "SIM001" in codes(
        "import numpy as np\nrng = np.random.default_rng()\n")


def test_sim001_flags_the_module_as_a_fallback_value():
    assert "SIM001" in codes(
        "import random\n"
        "def jitter(width, rng=None):\n"
        "    return (rng or random).uniform(0.0, width)\n")
    assert "SIM001" in codes(
        "import random as _r\ndef source():\n    return _r\n")
    assert "SIM001" in codes(
        "import numpy as np\ndef pick(rng=None):\n"
        "    return (rng or np.random).choice([1, 2])\n")


def test_sim001_allows_the_module_as_an_attribute_base():
    good = (
        "import random\n"
        "def make(seed, rng: random.Random = None):\n"
        "    assert rng is None or isinstance(rng, random.Random)\n"
        "    return random.Random(seed)\n"
    )
    assert "SIM001" not in codes(good)


def test_sim001_allows_seeded_and_injected_rngs():
    good = (
        "import random\n"
        "def make(seed, tag, sim):\n"
        "    a = random.Random(f'{seed}:{tag}')\n"
        "    b = sim.child_rng(tag)\n"
        "    return a, b\n"
    )
    assert "SIM001" not in codes(good)


def test_sim001_allows_seeded_numpy_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng(7)\n"
    assert "SIM001" not in codes(src)


def test_sim001_ignores_random_attribute_on_local_rng():
    # rng.random() is a draw from an *instance*, not the global module.
    src = "def f(rng):\n    return rng.random()\n"
    assert "SIM001" not in codes(src)


# ----------------------------------------------------------------------
# SIM002 — wall-clock reads
# ----------------------------------------------------------------------
def test_sim002_flags_time_calls():
    assert "SIM002" in codes("import time\nt0 = time.monotonic()\n")
    assert "SIM002" in codes("import time\nt0 = time.time()\n")
    assert "SIM002" in codes(
        "from time import perf_counter\nt0 = perf_counter()\n")


def test_sim002_flags_datetime_now():
    src = "from datetime import datetime\nstamp = datetime.now()\n"
    assert "SIM002" in codes(src)


def test_sim002_allows_sim_clock():
    src = "def f(sim):\n    return sim.now + 0.5\n"
    assert "SIM002" not in codes(src)


def test_sim002_exempts_harness_paths():
    src = "import time\nt0 = time.monotonic()\n"
    assert "SIM002" not in codes(src, HARNESS_PATH)
    assert "SIM002" not in codes(src, "src/repro/cli.py")
    assert "SIM002" not in codes(src, "benchmarks/e2e/run.py")


# ----------------------------------------------------------------------
# SIM003 — unstable child_rng tags
# ----------------------------------------------------------------------
def test_sim003_flags_id_hash_repr_tags():
    assert "SIM003" in codes(
        "def f(sim, obj):\n    return sim.child_rng(f'x:{id(obj)}')\n")
    assert "SIM003" in codes(
        "def f(sim, name):\n    return sim.child_rng(str(hash(name)))\n")
    assert "SIM003" in codes(
        "def f(sim, obj):\n    return sim.child_rng(repr(obj))\n")


def test_sim003_applies_in_harness_too():
    src = "def f(sim, obj):\n    return sim.child_rng(f'x:{id(obj)}')\n"
    assert "SIM003" in codes(src, HARNESS_PATH)


def test_sim003_allows_stable_tags():
    src = "def f(sim, name):\n    return sim.child_rng(f'link:{name}')\n"
    assert "SIM003" not in codes(src)


def test_sim003_catches_format_spec_and_format_args():
    assert "SIM003" in codes(
        "def f(sim, obj):\n"
        "    return sim.child_rng(f'x:{0:{id(obj)}}')\n")
    assert "SIM003" in codes(
        "def f(sim, obj):\n"
        "    return sim.child_rng('x:{}'.format(id(obj)))\n")


def test_sim003_catches_unstable_tag_via_local_name():
    src = (
        "def f(sim, obj):\n"
        "    tag = f'x:{id(obj)}'\n"
        "    return sim.child_rng(tag)\n"
    )
    findings = [f for f in lint_source(src, SIM_PATH)
                if f.rule == "SIM003"]
    assert len(findings) == 1
    assert "via 'tag'" in findings[0].message
    # A rebound name is not traced — could be stable by call time.
    rebound = (
        "def f(sim, obj):\n"
        "    tag = f'x:{id(obj)}'\n"
        "    tag = 'x:fixed'\n"
        "    return sim.child_rng(tag)\n"
    )
    assert "SIM003" not in codes(rebound)


# ----------------------------------------------------------------------
# SIM004 — set iteration order reaching ordered sinks
# ----------------------------------------------------------------------
def test_sim004_flags_schedule_over_set():
    src = (
        "def f(sim, nodes):\n"
        "    failed = set(nodes)\n"
        "    for n in failed:\n"
        "        sim.schedule(1.0, n)\n"
    )
    assert "SIM004" in codes(src)


def test_sim004_flags_list_comprehension_over_set_literal():
    src = "names = [n for n in {'a', 'b', 'c'}]\n"
    assert "SIM004" in codes(src)


def test_sim004_flags_list_materialization_of_set():
    src = "def f(xs):\n    s = {x for x in xs}\n    return list(s)\n"
    assert "SIM004" in codes(src)


def test_sim004_allows_sorted_iteration():
    src = (
        "def f(sim, nodes):\n"
        "    failed = set(nodes)\n"
        "    for n in sorted(failed):\n"
        "        sim.schedule(1.0, n)\n"
        "    return sorted(failed)\n"
    )
    assert "SIM004" not in codes(src)


def test_sim004_allows_commutative_folds_over_sets():
    # No order-sensitive sink in the body: union/sum accumulation.
    src = (
        "def f(groups):\n"
        "    seen = set()\n"
        "    chosen = set(groups)\n"
        "    for g in chosen:\n"
        "        seen |= {g}\n"
        "    return seen\n"
    )
    assert "SIM004" not in codes(src)


def test_sim004_ignores_dict_iteration():
    # Dict iteration is insertion-ordered (3.7+), hence deterministic.
    src = (
        "def f(sim, timers):\n"
        "    for name in timers:\n"
        "        sim.schedule(1.0, name)\n"
        "    for name in dict(timers).keys():\n"
        "        sim.schedule(2.0, name)\n"
    )
    assert "SIM004" not in codes(src)


# ----------------------------------------------------------------------
# SIM005 — float equality on sim time
# ----------------------------------------------------------------------
def test_sim005_flags_eq_and_ne_on_now():
    assert "SIM005" in codes(
        "def f(self):\n    return self.sim.now == 0.0\n")
    assert "SIM005" in codes(
        "def f(now, deadline):\n    return now != deadline\n")


def test_sim005_allows_boundary_comparisons():
    src = (
        "def f(self, until):\n"
        "    return self.sim.now <= 0.0 or self.sim.now >= until\n"
    )
    assert "SIM005" not in codes(src)


def test_sim005_ignores_non_time_names():
    src = "def f(count, target):\n    return count == target\n"
    assert "SIM005" not in codes(src)


# ----------------------------------------------------------------------
# SIM006 — mutable default arguments
# ----------------------------------------------------------------------
def test_sim006_flags_literal_and_call_defaults():
    assert "SIM006" in codes("def f(acc=[]):\n    return acc\n")
    assert "SIM006" in codes("def f(table={}):\n    return table\n")
    assert "SIM006" in codes("def f(seen=set()):\n    return seen\n")
    assert "SIM006" in codes(
        "def f(*, hooks=list()):\n    return hooks\n")


def test_sim006_allows_none_and_immutable_defaults():
    src = "def f(acc=None, n=3, name='x', pair=(1, 2)):\n    return acc\n"
    assert "SIM006" not in codes(src)


# ----------------------------------------------------------------------
# Domains, suppression, parse errors
# ----------------------------------------------------------------------
def test_domain_classification():
    assert classify("src/repro/simnet/link.py") is Domain.SIM
    assert classify("src/repro/fleet/workers.py") is Domain.HARNESS
    assert classify("src/repro/cli.py") is Domain.HARNESS
    assert classify("src/repro/lint/rules.py") is Domain.HARNESS
    assert classify("benchmarks/e2e/workloads.py") is Domain.HARNESS
    assert classify("tests/test_engine.py") is Domain.HARNESS
    assert classify("src/repro/analysis/stats.py") is Domain.SIM


def test_line_suppression_hides_only_that_line():
    src = (
        "import time\n"
        "a = time.time()  # simlint: disable=SIM002 -- fixture\n"
        "b = time.time()\n"
    )
    findings = lint_source(src, SIM_PATH)
    assert [f.line for f in findings if f.rule == "SIM002"] == [3]


def test_blanket_line_suppression():
    src = "import time\na = time.time()  # simlint: disable\n"
    assert codes(src) == set()


def test_file_suppression_hides_rule_everywhere():
    src = (
        "# simlint: disable-file=SIM002\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
    )
    assert "SIM002" not in codes(src)


def test_suppression_comment_inside_string_is_inert():
    src = (
        "import time\n"
        "note = '# simlint: disable=SIM002'\n"
        "a = time.time()\n"
    )
    assert "SIM002" in codes(src)


def test_parse_error_reports_sim000():
    findings = lint_source("def broken(:\n", SIM_PATH)
    assert [f.rule for f in findings] == ["SIM000"]


def test_findings_are_sorted_and_stable():
    src = (
        "import time\n"
        "import random\n"
        "b = time.time()\n"
        "a = random.random()\n"
    )
    findings = lint_source(src, SIM_PATH)
    assert findings == sorted(findings)
    assert {f.rule for f in findings} == {"SIM001", "SIM002"}
