"""One content key per unit per sweep, derived from :class:`SweepConfig`.

The key addresses the persistent cache and identifies a unit in the run
journal, so it must cover every setting that can change an outcome (the
implicit-call registry included), stay byte-stable across releases that
do not change the analysis (warm caches and journals must keep hitting),
and be computed once per unit.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import __version__
from repro.callgraph import ImplicitCallRegistry, default_registry
from repro.callgraph.implicit import ImplicitCallSpec
from repro.interfaces import APR_HEADER
from repro.obs.validate import VALIDATION_SCHEMA_VERSION
from repro.pointer import AnalysisOptions
import repro.tool.supervise as supervise
from repro.tool.batch import BatchUnit, SweepConfig, run_batch
from repro.tool.cache import CACHE_SCHEMA_VERSION, AnalysisCache
from repro.tool.regionwiz import ANALYSIS_VERSION
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
        "e2b53085226f1b4ce3ad43933c6e8373a36a393bf22f46f3405d797be4b9512d",
        "d57279af8272b89558148ef634454e2745fa40092f0c7f9543769c7db22c2131",
    ),
    "refine": (
        "3be3b62b9a28b84a6caef3413f4e6315a95fc09fa9f2914a874886b9f2ace929",
        "ba751a6643705bb14f10d14fda2e320857fb575fd62e48be7afbecc0f141f4ef",
    ),
    "budget": (
        "0aae5ef5fd1dd6b0d0024b62021198e1dcfb5e823c7cda086aec6dabb877e454",
        "4f9be80e7e9768c048197e02e87112fba5ab07f3070a6bef0bee7b1388adea45",
    ),
    "validate": (
        "e2ccad68172732b17682e34274aed1cd55884509b22162edb2ea057985c29251",
        "b8e139ea35f7ec8aafb4a27e8f395f6e078d9ee1c5ce1f451fae9a8a38c2f251",
    ),
    "options": (
        "c8579c943dc5c2409743983e0b501a7fea0a8474fb9c564b177776ab0d6e242f",
        "90c05abec353c8bd726e08916584a29ef52cb8be407bb86dd3cc851be7ae868a",
    ),
    # The default registry is not key material: same digests as above.
    "default_registry": (
        "e2b53085226f1b4ce3ad43933c6e8373a36a393bf22f46f3405d797be4b9512d",
        "d57279af8272b89558148ef634454e2745fa40092f0c7f9543769c7db22c2131",
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
# The templated key equals the one-shot dump of the whole material
# ---------------------------------------------------------------------------

#: Every key setting: the golden ones plus the two that no golden digest
#: covers.
KEY_SETTINGS = sorted(GOLDEN_SETTINGS) + ["no_degrade", "custom_registry"]


def sweep_settings(setting):
    if setting == "no_degrade":
        return dict(degrade=False)
    if setting == "custom_registry":
        return dict(registry=spawn_registry())
    return GOLDEN_SETTINGS[setting]


def reference_key(config, unit):
    """The key as one ``json.dumps`` over the whole material."""
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "tool_version": __version__,
        "analysis_version": ANALYSIS_VERSION,
        "source": unit.source,
        "filename": unit.filename,
        "interface": unit.effective_interface,
        "entry": unit.entry,
        "options": dataclasses.asdict(config.options or AnalysisOptions()),
        "budget": (
            config.budget.to_dict() if config.budget is not None else None
        ),
        "degrade": config.degrade,
        "refine": config.refine,
        "solver_stats": False,
    }
    if config.validate:
        material["validate"] = {
            "schema": VALIDATION_SCHEMA_VERSION,
            "steps": config.validate_steps,
        }
    if config.registry is not None and config.registry != default_registry():
        material["registry"] = dataclasses.asdict(config.registry)
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


#: Text that ``json.dumps`` escapes: quotes, backslashes, NUL and the
#: other control characters, DEL, the JS line separators, non-ASCII
#: letters, astral characters (escaped as surrogate pairs) and lone
#: surrogates.
TRICKY = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            '"\\\x00\x01\x1f\x7f\n\r\t\b\f/\u2028\u2029'
            "\u00e9\u4e2d\U0001f600\ud800\udfff"
        ),
        st.characters(exclude_categories=()),
    ),
    max_size=40,
)


@pytest.mark.parametrize("setting", KEY_SETTINGS)
@settings(max_examples=40, deadline=None)
@given(
    source=TRICKY,
    filename=TRICKY,
    interface=st.one_of(st.sampled_from(["apr", "rc"]), TRICKY),
    entry=TRICKY,
)
def test_the_templated_key_equals_the_reference_dump(
    setting, source, filename, interface, entry
):
    config = SweepConfig(**sweep_settings(setting))
    unit = BatchUnit(
        name="u",
        source=source,
        filename=filename,
        interface=interface,
        entry=entry,
    )
    expected = reference_key(config, unit)
    assert config.key(unit) == expected
    assert config.key(unit, template=config.key_template()) == expected


@pytest.mark.parametrize("setting", KEY_SETTINGS)
def test_a_warm_sweep_hits_entries_stored_under_reference_keys(
    setting, tmp_path
):
    options = sweep_settings(setting)
    config = SweepConfig(**options)
    units = figure_units(["fig1", "fig2c"]) + [SPAWN_UNIT]
    cold = run_batch(units, keep_going=True, **options)
    cache = AnalysisCache(str(tmp_path))
    for unit, outcome in zip(units, cold.outcomes):
        assert outcome.ok
        cache.store(reference_key(config, unit), outcome.to_cache_payload())
    warm = run_batch(units, keep_going=True, cache=cache, **options)
    assert all(o.cached for o in warm.outcomes)
    assert warm.cache_counters == {"hits": len(units), "misses": 0}
    assert [o.warning_lines for o in warm.outcomes] == [
        o.warning_lines for o in cold.outcomes
    ]


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


def test_a_config_sweeps_like_its_settings():
    units = figure_units()[:3]
    settings = dict(keep_going=True, validate=True, max_retries=1)

    def verdicts(result):
        return [
            (o.status, o.warning_lines, o.fingerprints, o.validation)
            for o in result.outcomes
        ]

    by_settings = run_batch(units, **settings)
    by_config = run_batch(units, config=SweepConfig(**settings))
    assert verdicts(by_config) == verdicts(by_settings)
    with pytest.raises(TypeError):
        run_batch(units, config=SweepConfig(), keep_going=True)
