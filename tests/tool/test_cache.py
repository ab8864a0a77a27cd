"""Tests for the persistent content-addressed analysis cache."""

import json
import os

import pytest

from repro.interfaces import APR_HEADER
from repro.obs.history import diff_outcomes, entries_from_outcomes
from repro.pointer import AnalysisOptions
from repro.tool.batch import BatchUnit, run_batch
from repro.tool.cache import AnalysisCache
from repro.util import faults
from repro.workloads import figure_units


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def poison_unit(name):
    return BatchUnit(name=name, source="int main( {", filename=f"<{name}>")


def entry_files(root):
    return sorted(
        name for name in os.listdir(root) if name.endswith(".json")
    )


class TestCacheKey:
    def kwargs(self, **overrides):
        base = dict(
            source="int main(void) { return 0; }",
            filename="a.c",
            interface="apr",
            entry="main",
            options=AnalysisOptions(),
            budget=None,
            degrade=True,
            refine=False,
        )
        base.update(overrides)
        return base

    def test_key_is_stable(self):
        assert AnalysisCache.key(**self.kwargs()) == AnalysisCache.key(
            **self.kwargs()
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"source": "int main(void) { return 1; }"},
            {"filename": "b.c"},
            {"interface": "rc"},
            {"entry": "start"},
            {"options": AnalysisOptions(context_sensitive=False)},
            {"degrade": False},
            {"refine": True},
        ],
    )
    def test_key_changes_with_inputs(self, override):
        assert AnalysisCache.key(**self.kwargs()) != AnalysisCache.key(
            **self.kwargs(**override)
        )


class TestWarmRuns:
    def test_hit_after_warm(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1", "fig2c"])
        cold = run_batch(units, keep_going=True, cache=cache)
        assert cold.cache_counters == {"hits": 0, "misses": 2}
        assert not any(o.cached for o in cold.outcomes)

        warm = run_batch(units, keep_going=True, cache=cache)
        assert warm.cache_counters == {"hits": 2, "misses": 2}
        assert all(o.cached for o in warm.outcomes)
        # The replayed outcomes carry the full result, not just status.
        assert warm.outcome("fig2c").warnings == cold.outcome("fig2c").warnings
        assert warm.outcome("fig2c").high == cold.outcome("fig2c").high
        assert (
            warm.outcome("fig2c").warning_lines
            == cold.outcome("fig2c").warning_lines
        )
        assert warm.outcome("fig1").metrics is not None
        payload = json.loads(warm.to_json())
        assert payload["cache"]["hits"] == 2
        assert all(entry["cached"] for entry in payload["results"])

    def test_cache_accepts_directory_path(self, tmp_path):
        target = tmp_path / "cache"
        run_batch(figure_units(["fig1"]), cache=str(target))
        assert entry_files(target)
        warm = run_batch(figure_units(["fig1"]), cache=str(target))
        assert warm.outcome("fig1").cached

    def test_warm_parallel_run_reuses_serial_entries(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1", "fig2a", "fig2c"])
        run_batch(units, keep_going=True, cache=cache)
        warm = run_batch(units, keep_going=True, jobs=2, cache=cache)
        assert all(o.cached for o in warm.outcomes)
        # One shared cache object: 3 cold misses, then 3 warm hits.
        assert warm.cache_counters == {"hits": 3, "misses": 3}
        assert [o.unit for o in warm.outcomes] == [u.name for u in units]

    def test_batch_metrics_report_counters(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1"])
        run_batch(units, cache=cache)
        warm = run_batch(units, cache=cache)
        metrics = warm.batch_metrics().to_dict()
        assert metrics["cache.hits"] == 1
        assert metrics["batch.cached"] == 1
        assert "cache.hits" in warm.metrics_summary()


class TestInvalidation:
    def test_source_change_invalidates(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        base = figure_units(["fig1"])[0]
        run_batch([base], cache=cache)
        changed = BatchUnit(
            name=base.name,
            source=base.source + "\n// touched\n",
            filename=base.filename,
            interface=base.interface,
            entry=base.entry,
        )
        rerun = run_batch([changed], cache=cache)
        assert not rerun.outcome(base.name).cached
        assert rerun.cache_counters == {"hits": 0, "misses": 2}

    def test_options_change_invalidates(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1"])
        run_batch(units, cache=cache)
        rerun = run_batch(
            units,
            options=AnalysisOptions(context_sensitive=False),
            cache=cache,
        )
        assert not rerun.outcome("fig1").cached

    def test_failures_are_not_cached(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        run_batch([poison_unit("bad")], keep_going=True, cache=cache)
        assert entry_files(tmp_path) == []
        rerun = run_batch([poison_unit("bad")], keep_going=True, cache=cache)
        assert rerun.outcome("bad").status == "input-error"
        assert rerun.cache_counters == {"hits": 0, "misses": 2}

    def test_internal_errors_are_not_cached(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1"])
        with faults.injected("correlation", unit="fig1"):
            crashed = run_batch(units, keep_going=True, cache=cache)
        assert crashed.outcome("fig1").status == "internal-error"
        assert entry_files(tmp_path) == []
        # With the fault cleared the unit analyzes (and then caches).
        healed = run_batch(units, keep_going=True, cache=cache)
        assert healed.outcome("fig1").status == "clean"
        assert entry_files(tmp_path)


class TestCorruption:
    def corrupt_every_entry(self, root, text):
        for name in entry_files(root):
            (root / name).write_text(text)

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json at all {",
            '{"schema": 999, "outcome": {}}',
            '{"outcome": "not a dict", "schema": 1}',
            '[1, 2, 3]',
        ],
    )
    def test_corrupted_entry_falls_back_to_analysis(self, tmp_path, garbage):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1"])
        run_batch(units, cache=cache)
        self.corrupt_every_entry(tmp_path, garbage)
        rerun = run_batch(units, cache=AnalysisCache(str(tmp_path)))
        outcome = rerun.outcome("fig1")
        assert outcome.status == "clean"
        assert not outcome.cached
        assert rerun.cache_counters == {"hits": 0, "misses": 1}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[:1] + b'"\xff\xfe": 0, ' + blob[1:],
            lambda blob: b"",
            lambda blob: blob[: len(blob) // 2],
            lambda blob: b"[1, 2, 3]",
            lambda blob: json.dumps(
                dict(json.loads(blob), schema=1)
            ).encode("ascii"),
        ],
        ids=[
            "invalid-utf8",
            "empty",
            "truncated",
            "json-array",
            "wrong-schema",
        ],
    )
    def test_a_bad_entry_is_evicted_missed_and_reanalyzed(
        self, tmp_path, damage
    ):
        units = figure_units(["fig1"])
        run_batch(units, cache=AnalysisCache(str(tmp_path)))
        [name] = entry_files(tmp_path)
        path = tmp_path / name
        good = path.read_bytes()
        path.write_bytes(damage(good))

        key = name[: -len(".json")]
        probe = AnalysisCache(str(tmp_path))
        assert probe.lookup(key) is None
        assert probe.counters() == {"hits": 0, "misses": 1}
        assert not path.exists()

        path.write_bytes(damage(good))
        rerun = run_batch(units, cache=AnalysisCache(str(tmp_path)))
        outcome = rerun.outcome("fig1")
        assert outcome.status == "clean"
        assert not outcome.cached
        assert rerun.cache_counters == {"hits": 0, "misses": 1}
        # The re-analysis stored a good entry in the bad one's place.
        assert AnalysisCache(str(tmp_path)).lookup(key) is not None

    def test_wrong_unit_name_in_entry_is_a_miss(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        units = figure_units(["fig1"])
        run_batch(units, cache=cache)
        for name in entry_files(tmp_path):
            payload = json.loads((tmp_path / name).read_text())
            payload["outcome"]["unit"] = "someone-else"
            (tmp_path / name).write_text(json.dumps(payload))
        rerun = run_batch(units, cache=AnalysisCache(str(tmp_path)))
        assert not rerun.outcome("fig1").cached
        assert rerun.cache_counters == {"hits": 0, "misses": 1}

    def test_corrupted_entry_is_removed(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        run_batch(figure_units(["fig1"]), cache=cache)
        self.corrupt_every_entry(tmp_path, "oops")
        fresh = AnalysisCache(str(tmp_path))
        rerun = run_batch(figure_units(["fig1"]), cache=fresh)
        assert rerun.outcome("fig1").status == "clean"
        # The bad file was replaced by the freshly stored entry.
        warm = run_batch(figure_units(["fig1"]), cache=fresh)
        assert warm.outcome("fig1").cached


class TestEvictionRaces:
    """Eviction races under ``--jobs``: losing the unlink race is fine."""

    def test_evict_tolerates_missing_file(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        # Another worker already removed it: no exception, no counter.
        cache._evict(str(tmp_path / "gone.json"))

    def test_losing_the_unlink_race_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        # Both readers open the same corrupt entry; the winner unlinks
        # first, so the loser's unlink lands on a missing file.  The
        # loser must degrade to an ordinary miss, not crash the sweep.
        cache = AnalysisCache(str(tmp_path))
        path = cache._path("deadbeef")
        with open(path, "w") as handle:
            handle.write("{ not json")
        real_unlink = os.unlink

        def racing_unlink(target):
            real_unlink(target)  # the other worker wins the race...
            real_unlink(target)  # ...and our own attempt finds nothing

        monkeypatch.setattr(os, "unlink", racing_unlink)
        assert cache.lookup("deadbeef") is None
        assert cache.counters() == {"hits": 0, "misses": 1}
        assert not os.path.exists(path)

    def test_concurrent_readers_evict_same_corrupt_entries(self, tmp_path):
        # Many threads, each with its own cache handle, all race to
        # evict the same batch of corrupt entries -- the shape of a
        # warm --jobs sweep over a damaged cache directory.
        from concurrent.futures import ThreadPoolExecutor

        keys = [f"key{i:02d}" for i in range(8)]
        seed = AnalysisCache(str(tmp_path))
        for key in keys:
            with open(seed._path(key), "w") as handle:
                handle.write("torn{")

        def sweep(_):
            cache = AnalysisCache(str(tmp_path))
            return [cache.lookup(key) for key in keys]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(sweep, range(8)))
        assert all(all(hit is None for hit in row) for row in results)
        assert entry_files(tmp_path) == []


BUGGY_HELPER = """
void cross_link(apr_pool_t *parent) {
    apr_pool_t *r1;
    apr_pool_t *r2;
    apr_pool_create(&r1, parent);
    apr_pool_create(&r2, parent);
    void *o1 = apr_palloc(r1, 8);
    struct cell *o2 = apr_palloc(r2, sizeof(struct cell));
    o2->f = o1;
    apr_pool_destroy(r1);
    void *use = o2->f;
    apr_pool_destroy(r2);
}
"""

MAIN_WITH_BUG = """struct cell { void *f; };
%s
int main(void) {
    apr_pool_t *top;
    apr_pool_create(&top, NULL);
    cross_link(top);
    apr_pool_destroy(top);
    return 0;
}
"""

MAIN_WITHOUT_BUG = """struct cell { void *f; };
int main(void) {
    apr_pool_t *top;
    apr_pool_create(&top, NULL);
    apr_pool_destroy(top);
    return 0;
}
"""


class TestDeletedFunction:
    """Deleting the buggy function must read as fixed on a warm rerun.

    The cache primed with the buggy source must never serve its
    warnings for the fixed source: the edit is a miss, the fresh
    analysis reports the bug's warnings as ``fixed`` in a baseline diff,
    and the next run serves the fixed outcome from the cache.
    """

    def unit(self, source):
        return BatchUnit(name="prog", source=source, filename="<prog>")

    def sources(self):
        buggy = APR_HEADER + (MAIN_WITH_BUG % BUGGY_HELPER)
        fixed = APR_HEADER + MAIN_WITHOUT_BUG
        return buggy, fixed

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deleting_the_function_reads_as_fixed(self, tmp_path, jobs):
        buggy, fixed = self.sources()
        cache = str(tmp_path)
        cold = run_batch([self.unit(buggy)], cache=cache, jobs=jobs)
        outcome = cold.outcome("prog")
        assert outcome.status == "warnings" and outcome.fingerprints
        baseline = entries_from_outcomes(cold.outcomes)

        warm = run_batch([self.unit(fixed)], cache=cache, jobs=jobs)
        healed = warm.outcome("prog")
        assert not healed.cached
        assert warm.cache_counters == {"hits": 0, "misses": 1}
        assert healed.status == "clean"
        assert healed.fingerprints == []
        diff = diff_outcomes(warm.outcomes, baseline)["prog"]
        assert diff.counts() == {
            "new": 0,
            "persisting": 0,
            "fixed": len(baseline),
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deleted_function_stays_gone_on_the_next_warm_run(
        self, tmp_path, jobs
    ):
        buggy, fixed = self.sources()
        cache = str(tmp_path)
        run_batch([self.unit(buggy)], cache=cache, jobs=jobs)
        run_batch([self.unit(fixed)], cache=cache, jobs=jobs)
        # The third run is a cache hit on the fixed source: the served
        # outcome must be the fixed one, not the buggy original.
        again = run_batch([self.unit(fixed)], cache=cache, jobs=jobs)
        assert again.outcome("prog").cached
        assert again.outcome("prog").status == "clean"
