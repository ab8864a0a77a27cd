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

Everything but the four unit fields is the same for all units of a
sweep, so a sweep renders it once into a :class:`KeyTemplate` and each
key only escapes and hashes its unit's fields; the digests are the
same as a one-shot dump of the whole material.

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
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Optional

from repro.callgraph import ImplicitCallRegistry, default_registry
from repro.pointer import AnalysisOptions
from repro.util.budget import ResourceBudget

__all__ = ["AnalysisCache", "CACHE_SCHEMA_VERSION", "KeyTemplate"]

#: Bump when the on-disk entry layout changes (old entries become misses).
#: 2: outcome payloads carry warning ``fingerprints`` (baseline diffing
#: must work from cached outcomes, so pre-fingerprint entries are stale).
CACHE_SCHEMA_VERSION = 2


#: Bytes per ``os.read`` of an entry; entries are about 1 KB.
_READ_SIZE = 1 << 16

#: The per-unit slots of the key material, in ``sort_keys`` order.
_UNIT_SLOTS = ("entry", "filename", "interface", "source")

#: A string as :func:`json.dumps` renders it (its default escaping).
_render = encode_basestring_ascii


class KeyTemplate:
    """The settings part of the cache key, rendered once per sweep.

    The key is the SHA-256 of ``json.dumps(material, sort_keys=True)``
    over one flat dict; every entry except the four unit slots
    (``entry``, ``filename``, ``interface``, ``source``) is the same for
    every unit of a sweep.  The template dumps the material once, with a
    marker in each unit slot, and keeps the text between the markers;
    :meth:`digest` fills the slots with the string escaping
    ``json.dumps`` itself uses and hashes the result from a copy of the
    SHA-256 state primed with the text before the first slot.  So the
    hashed bytes are exactly those of the one-shot dump, and every
    digest equals the one a full render gives.
    """

    __slots__ = ("_prefix", "_gaps")

    def __init__(
        self,
        options: Optional[AnalysisOptions] = None,
        budget: Optional[ResourceBudget] = None,
        degrade: bool = True,
        refine: bool = False,
        validate: Optional[Dict[str, Any]] = None,
        registry: Optional[ImplicitCallRegistry] = None,
    ) -> None:
        # Function-local: the package root imports this module.
        from repro import __version__
        from repro.tool.regionwiz import ANALYSIS_VERSION

        markers = {slot: f"\0unit-slot:{slot}\0" for slot in _UNIT_SLOTS}
        material = {
            "schema": CACHE_SCHEMA_VERSION,
            "tool_version": __version__,
            "analysis_version": ANALYSIS_VERSION,
            **markers,
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
        text = json.dumps(material, sort_keys=True)
        pieces = []
        for slot in _UNIT_SLOTS:
            head, found, text = text.partition(
                f"{_render(slot)}: {_render(markers[slot])}"
            )
            if not found:
                raise RuntimeError(f"key slot {slot!r} was not rendered")
            pieces.append(f"{head}{_render(slot)}: ")
        pieces.append(text)
        self._prefix = hashlib.sha256(pieces[0].encode("ascii"))
        self._gaps = tuple(pieces[1:])

    def digest(
        self, source: str, filename: str, interface: str, entry: str
    ) -> str:
        """The hex key of one unit under these settings."""
        gaps = self._gaps
        state = self._prefix.copy()
        state.update(
            "".join(
                (
                    _render(entry),
                    gaps[0],
                    _render(filename),
                    gaps[1],
                    _render(interface),
                    gaps[2],
                    _render(source),
                    gaps[3],
                )
            ).encode("ascii")
        )
        return state.hexdigest()


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
        options: Optional[AnalysisOptions] = None,
        budget: Optional[ResourceBudget] = None,
        degrade: bool = True,
        refine: bool = False,
        validate: Optional[Dict[str, Any]] = None,
        registry: Optional[ImplicitCallRegistry] = None,
        template: Optional[KeyTemplate] = None,
    ) -> str:
        """The content hash addressing one unit's outcome.

        ``validate`` is the dynamic-validation configuration (schema
        version plus step budget) when ``--validate`` is on; it enters
        the key material only when set, so caches built before the
        validation feature keep their hashes.  ``registry`` enters it
        only when it is not the default registry, for the same reason.

        ``template`` is a :class:`KeyTemplate` already rendered from the
        settings; a sweep passes its own so that only the four unit
        fields are rendered here, and the settings arguments are then
        ignored.  Without one, a template is rendered from them.
        """
        if template is None:
            template = KeyTemplate(
                options, budget, degrade, refine, validate, registry
            )
        return template.digest(source, filename, interface, entry)

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
        """Load one JSON payload; corruption evicts and returns None.

        The entry is read as bytes straight from its descriptor and
        parsed by :func:`json.loads`, which decodes it itself: a file
        object would add a buffer and, in text mode, an incremental
        decoder per hit.  Invalid UTF-8 raises ``UnicodeDecodeError``, a
        ``ValueError``, so it is corruption like bad JSON.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                chunks = []
                while True:
                    chunk = os.read(fd, _READ_SIZE)
                    if not chunk:
                        break
                    chunks.append(chunk)
            finally:
                os.close(fd)
            payload = json.loads(b"".join(chunks))
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

    def present(self, key: str) -> bool:
        """Whether an entry file exists under ``key``: one ``stat``, no
        read, and not counted.

        The parallel sweep forks workers for the absent entries before
        it looks up the present ones; an entry that is present but does
        not decode is still a miss, counted by its :meth:`lookup`.
        """
        try:
            os.stat(self._path(key))
        except OSError:
            return False
        return True

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

        The parallel batch scheduler looks up every unit while its
        workers run; when a ``keep_going=False`` sweep stops early, the
        lookups past the failure point correspond to lookups a serial
        run never performs, and the scheduler retracts them so reported
        counters are mode-independent.
        """
        if hit:
            self.hits = max(0, self.hits - 1)
        else:
            self.misses = max(0, self.misses - 1)
