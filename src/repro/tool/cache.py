"""Persistent content-addressed cache for batch analysis outcomes.

A warm re-run of an unchanged corpus should skip analysis entirely: the
batch driver (:func:`repro.tool.batch.run_batch`) consults an
:class:`AnalysisCache` before analyzing each unit and stores every
successful outcome afterwards.  Entries are keyed by a SHA-256 over
*everything that can change the report*:

* the unit's source text, filename (it appears in warning locations),
  effective region interface, and entry function;
* the :class:`~repro.pointer.AnalysisOptions` precision knobs;
* the degradation settings (``degrade`` flag plus the
  :class:`~repro.util.budget.ResourceBudget` limits -- a different
  budget can land on a different ladder rung);
* the ``refine`` switch (it changes the warning set);
* the implicit-call registry, when it differs from
  :func:`~repro.callgraph.default_registry` (extra call edges change the
  warning set);
* the tool version (``repro.__version__``), the analysis-semantics stamp
  (:data:`repro.tool.regionwiz.ANALYSIS_VERSION`), and the cache schema
  version.

Only *successful* outcomes (``clean``/``warnings``) are cached: input
errors are cheap to rediscover and internal errors may be transient, so
re-serving either from a cache would mask fixes and retries.

Entries are one JSON file per key, written atomically (temp file +
``os.replace``) so concurrent writers -- parallel batch workers' parent
processes, or two sweeps sharing a cache directory -- can never leave a
torn file.  A corrupted or unreadable entry is treated as a miss (and
deleted best-effort), never an error: the cache is an accelerator, not a
source of truth.  Eviction itself races under ``--jobs`` -- two readers
can both detect the same corrupt entry and unlink it -- so
:meth:`AnalysisCache._evict` tolerates losing (``FileNotFoundError`` and
any other ``OSError`` are a successful eviction from the caller's point
of view: the entry is gone).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.callgraph import ImplicitCallRegistry, default_registry
from repro.pointer import AnalysisOptions
from repro.util.budget import ResourceBudget

__all__ = ["AnalysisCache", "CACHE_SCHEMA_VERSION"]

#: Bump when the on-disk entry layout changes (old entries become misses).
#: 2: outcome payloads carry warning ``fingerprints`` (baseline diffing
#: must work from cached outcomes, so pre-fingerprint entries are stale).
CACHE_SCHEMA_VERSION = 2


class AnalysisCache:
    """One cache directory: lookup/store plus hit/miss counters."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        os.makedirs(self.root, exist_ok=True)

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key(
        source: str,
        filename: str,
        interface: str,
        entry: str,
        options: Optional[AnalysisOptions],
        budget: Optional[ResourceBudget],
        degrade: bool,
        refine: bool,
        validate: Optional[Dict[str, Any]] = None,
        registry: Optional[ImplicitCallRegistry] = None,
    ) -> str:
        """The content hash addressing one unit's outcome.

        ``validate`` is the dynamic-validation configuration (schema
        version plus step budget) when ``--validate`` is on; it enters
        the key material only when set, so caches built before the
        validation feature keep their hashes.  ``registry`` enters it
        only when it is not the default registry, for the same reason.
        """
        from repro import __version__
        from repro.tool.regionwiz import ANALYSIS_VERSION

        material = {
            "schema": CACHE_SCHEMA_VERSION,
            "tool_version": __version__,
            "analysis_version": ANALYSIS_VERSION,
            "source": source,
            "filename": filename,
            "interface": interface,
            "entry": entry,
            "options": dataclasses.asdict(options or AnalysisOptions()),
            "budget": budget.to_dict() if budget is not None else None,
            "degrade": bool(degrade),
            "refine": bool(refine),
            # Retired option: constant, so existing entries and journals hit.
            "solver_stats": False,
        }
        if validate is not None:
            material["validate"] = validate
        if registry is not None and registry != default_registry():
            material["registry"] = dataclasses.asdict(registry)
        blob = json.dumps(material, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # -- lookup / store ----------------------------------------------------

    def _evict(self, path: str) -> None:
        """Best-effort removal of a corrupt entry.

        Under ``--jobs`` several workers can detect the same corruption
        concurrently; whoever unlinks second gets ``FileNotFoundError``.
        Losing that race *is* success -- the entry is gone either way --
        so every ``OSError`` is swallowed and the caller proceeds with
        its miss.
        """
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass  # another worker evicted first: same outcome
        except OSError:
            pass  # unremovable (permissions, ...): stale entry stays

    def _read_payload(self, path: str) -> Optional[Dict[str, Any]]:
        """Load one JSON payload; corruption evicts and returns None."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("bad cache entry shape")
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # ValueError covers JSONDecodeError
            self._evict(path)
            return None
        return payload

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored outcome payload, or ``None`` (counts a hit/miss).

        Any corruption -- unreadable file, bad JSON, wrong schema --
        degrades to a miss so the unit falls back to analysis.
        """
        path = self._path(key)
        payload = self._read_payload(path)
        if payload is not None and (
            payload.get("schema") != CACHE_SCHEMA_VERSION
            or not isinstance(payload.get("outcome"), dict)
        ):
            self._evict(path)
            payload = None
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload["outcome"]

    def store(self, key: str, outcome: Dict[str, Any]) -> None:
        """Atomically persist one outcome payload under ``key``."""
        payload = {"schema": CACHE_SCHEMA_VERSION, "outcome": outcome}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- telemetry ---------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """``{"hits": ..., "misses": ...}`` for this cache's lifetime."""
        return {"hits": self.hits, "misses": self.misses}

    def uncount(self, hit: bool) -> None:
        """Retract one counted lookup (a hit or a miss).

        The parallel batch scheduler probes the cache for every unit up
        front; when a ``keep_going=False`` sweep stops early, the probes
        past the failure point correspond to lookups a serial run never
        performs, and the scheduler retracts them so reported counters
        are mode-independent.
        """
        if hit:
            self.hits = max(0, self.hits - 1)
        else:
            self.misses = max(0, self.misses - 1)
