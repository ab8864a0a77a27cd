"""One content key per unit per sweep, derived from :class:`SweepConfig`.

The key addresses the persistent cache and identifies a unit in the run
journal, so it must cover every setting that can change an outcome (the
implicit-call registry included), stay byte-stable across releases that
do not change the analysis (warm caches and journals must keep hitting),
and be computed once per unit.
"""

import pytest

from repro.callgraph import ImplicitCallRegistry, default_registry
from repro.callgraph.implicit import ImplicitCallSpec
from repro.interfaces import APR_HEADER
from repro.pointer import AnalysisOptions
import repro.tool.supervise as supervise
from repro.tool.batch import BatchUnit, SweepConfig, run_batch
from repro.tool.cache import AnalysisCache
from repro.util.budget import ResourceBudget
from repro.workloads import PACKAGES, figure_units, package_units

# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------

GOLDEN_UNITS = (
    BatchUnit(
        name="apr", source="int main(void) { return 0; }\n", filename="apr.c"
    ),
    BatchUnit(
        name="rc",
        source="int start(void) { return 1; }\n",
        filename="pool.rc",
        entry="start",
    ),
)

GOLDEN_SETTINGS = {
    "defaults": {},
    "refine": dict(refine=True),
    "budget": dict(
        budget=ResourceBudget(wall_clock_seconds=30.0, max_contexts=5000),
        degrade=True,
    ),
    "validate": dict(validate=True, validate_steps=500),
    "options": dict(
        options=AnalysisOptions(context_sensitive=False, max_contexts=64)
    ),
    "default_registry": dict(registry=default_registry()),
}

#: ``(apr, rc)`` digests per setting.  A change here invalidates every
#: existing cache entry and journal record, so it needs an
#: ``ANALYSIS_VERSION`` or ``CACHE_SCHEMA_VERSION`` bump to go with it.
GOLDEN_KEYS = {
    "defaults": (
        "9fb5ed0ddac732fc934360af067410aa9b81cc0357ba58e8a0609c2fe87a5a4c",
        "df399c4a0c56145965c3258fa4304ec1e8b2bd1c68cad4ae6d41c1f4344d9388",
    ),
    "refine": (
        "89c7cf0df122c35725951192305037f09e30dbc81b8a4385653d0f0d94241279",
        "243acbcb9d505a0fd8a82814befc913bad6fec1daec46b0c049f3d00793467f2",
    ),
    "budget": (
        "abd541095ac5ef98aadee9af551c1d9a1a97b6f035ad537ba8d0138bd3d95416",
        "07156813331217187447ed83a0207d1c489def9c04c0b8f4e8bad96af3f14436",
    ),
    "validate": (
        "4bc54533cfa6ebb1cbbafb06b921b33e9468d2076c973bf6d2bc82f896e8a3d5",
        "a8f08aae8709d1eb295c434993617d4a61376444137b23b5947f610d695d4cdf",
    ),
    "options": (
        "073ea059c611e43e1b7a649b2bac302ee34024b10fec774f981ddff73aafa717",
        "9ee9521a25f1e2241bcb15acfec6481bf52d55e93350d9ae0a5d30620e9f2bd7",
    ),
    # The default registry is not key material: same digests as above.
    "default_registry": (
        "9fb5ed0ddac732fc934360af067410aa9b81cc0357ba58e8a0609c2fe87a5a4c",
        "df399c4a0c56145965c3258fa4304ec1e8b2bd1c68cad4ae6d41c1f4344d9388",
    ),
}


@pytest.mark.parametrize("setting", sorted(GOLDEN_SETTINGS))
def test_keys_match_the_golden_digests(setting, tmp_path):
    config = SweepConfig(**GOLDEN_SETTINGS[setting])
    cache = AnalysisCache(str(tmp_path))
    for unit, digest in zip(GOLDEN_UNITS, GOLDEN_KEYS[setting]):
        assert config.key(unit) == digest
        assert config.key(unit, cache) == digest


# ---------------------------------------------------------------------------
# The registry is key material
# ---------------------------------------------------------------------------

#: ``worker`` stores an object from a sibling pool into ``data``; only a
#: registry that knows ``my_spawn`` calls ``worker(data)`` sees it.
SPAWN_SOURCE = APR_HEADER + """
struct job { void *f; };
void my_spawn(void (*fn)(void *), void *data);
apr_pool_t *other;
void worker(void *arg) {
    struct job *j = arg;
    j->f = apr_palloc(other, 8);
}
int main(void) {
    apr_pool_t *pool;
    apr_pool_create(&pool, NULL);
    apr_pool_create(&other, NULL);
    struct job *data = apr_palloc(pool, sizeof(struct job));
    my_spawn(worker, data);
    return 0;
}
"""

SPAWN_UNIT = BatchUnit(name="spawn", source=SPAWN_SOURCE, filename="spawn.c")


def spawn_registry():
    registry = ImplicitCallRegistry()
    registry.register("my_spawn", ImplicitCallSpec(0, ((1, 0),)))
    return registry


def test_a_custom_registry_changes_the_key():
    custom = SweepConfig(registry=spawn_registry())
    assert custom.key(SPAWN_UNIT) != SweepConfig().key(SPAWN_UNIT)


def test_a_custom_registry_misses_a_default_registry_cache(tmp_path):
    uncached = run_batch([SPAWN_UNIT], registry=spawn_registry())
    assert uncached.outcome("spawn").high == 1
    cache = str(tmp_path / "cache")
    primed = run_batch([SPAWN_UNIT], cache=cache)
    assert primed.outcome("spawn").status == "clean"
    custom = run_batch([SPAWN_UNIT], cache=cache, registry=spawn_registry())
    outcome = custom.outcome("spawn")
    assert not outcome.cached
    assert outcome.warning_lines == uncached.outcome("spawn").warning_lines


def test_a_custom_registry_does_not_resume_a_default_registry_journal(
    tmp_path,
):
    uncached = run_batch([SPAWN_UNIT], registry=spawn_registry())
    journal = str(tmp_path / "run.jsonl")
    first = run_batch([SPAWN_UNIT], jobs=2, journal=journal)
    assert first.outcome("spawn").status == "clean"
    resumed = run_batch(
        [SPAWN_UNIT],
        jobs=2,
        journal=journal,
        resume=True,
        registry=spawn_registry(),
    )
    outcome = resumed.outcome("spawn")
    assert not outcome.resumed
    assert outcome.warning_lines == uncached.outcome("spawn").warning_lines


# ---------------------------------------------------------------------------
# One key computation per unit
# ---------------------------------------------------------------------------


@pytest.fixture
def key_calls(monkeypatch):
    calls = []
    original = AnalysisCache.key

    def counted(*args, **kwargs):
        calls.append(kwargs["source"])
        return original(*args, **kwargs)

    monkeypatch.setattr(AnalysisCache, "key", staticmethod(counted))
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_unit_is_keyed_once_per_sweep(jobs, key_calls, tmp_path):
    units = [unit for model in PACKAGES for unit in package_units(model)]
    assert len(units) == 22
    cache = str(tmp_path / "cache")
    cold = run_batch(units, keep_going=True, jobs=jobs, cache=cache)
    assert len(key_calls) == len(units)
    assert not any(o.cached for o in cold.outcomes)
    del key_calls[:]
    warm = run_batch(units, keep_going=True, jobs=jobs, cache=cache)
    assert len(key_calls) == len(units)
    assert all(o.cached for o in warm.outcomes)


def test_a_fully_cached_parallel_sweep_opens_no_journal(
    tmp_path, monkeypatch
):
    units = figure_units(["fig1", "fig2c"])
    cache = str(tmp_path / "cache")
    run_batch(units, keep_going=True, jobs=2, cache=cache)

    def no_journal(*args, **kwargs):
        raise AssertionError("a fully cached sweep opened a journal")

    monkeypatch.setattr(supervise, "RunJournal", no_journal)
    warm = run_batch(units, keep_going=True, jobs=2, cache=cache)
    assert all(o.cached for o in warm.outcomes)
