"""Content-stable fingerprints for RegionWiz warnings.

Differential reporting (``--baseline``/``--save-baseline``, see
:mod:`repro.obs.history`) needs a *stable identity* for each warning: a
finding reported today and the same finding reported tomorrow must hash
to the same value, or every run would look like a wall of "new"
warnings.  The fingerprint is a SHA-256 over exactly the content that
defines the finding:

* the region **interface** the program was checked against (``apr``/``rc``);
* the **rule kind** (currently always ``region-lifetime`` -- the
  eq. 4.12 objectPair query; other conditional-correlation
  instantiations get their own kind);
* the condensed instruction pair's **file:line spans** (the paper's
  §5.4 condensation already collapses contexts to allocation-site
  pairs; the *column* is excluded so formatting-only edits on the same
  line keep the identity);
* the **normalized owner/object descriptions** -- owner region names
  with their ``#<context>`` markers stripped and the resulting set
  deduplicated and sorted.

Deliberately **excluded** from the hash (DESIGN.md §11):

* context numbers and the per-warning context count -- they depend on
  the Whaley-Lam path numbering, which shifts with unrelated call-graph
  edits and with the ``--max-contexts`` clamp;
* the Datalog backend (``set``/``bdd``) and the ``--jobs`` sharding
  level -- pure evaluation strategy;
* the ranking score (``high``/``low``) -- re-ranking a known finding
  must not make it "new";
* the warning's position in the report -- ordering is presentation.

Two warnings that agree on all hashed components collapse to one
fingerprint by design: they are the same finding.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterable, Tuple

__all__ = [
    "FINGERPRINT_VERSION",
    "KIND_REGION_LIFETIME",
    "loc_span",
    "normalize_owner",
    "normalized_owners",
    "pair_fingerprint",
    "warning_fingerprint",
]

#: Bump when the hashed material changes shape -- old baselines then
#: diff as all-new/all-fixed instead of silently mismatching.
FINGERPRINT_VERSION = 1

#: The rule kind of every warning the region-lifetime instantiation
#: emits (the eq. 4.12 objectPair query condensed to I-pairs).
KIND_REGION_LIFETIME = "region-lifetime"

#: ``name#ctx`` context markers on abstract-object names (see
#: :meth:`repro.pointer.analysis.AbstractObject.__str__`).
_CONTEXT_MARKER = re.compile(r"#\d+")

#: The owner clause of a rendered warning description
#: (``... (owners: a, b vs c; 3 context(s))``).
_OWNERS_CLAUSE = re.compile(r"owners: (?P<source>[^;]*) vs (?P<target>[^;)]*)")


def loc_span(loc) -> str:
    """``file:line`` of a :class:`~repro.lang.SourceLocation`.

    The column is deliberately dropped: reindenting the allocation does
    not change the finding.
    """
    return f"{loc.filename}:{loc.line}"


def normalize_owner(name: str) -> str:
    """An owner/object name with its ``#<context>`` marker stripped."""
    return _CONTEXT_MARKER.sub("", name).strip()


def normalized_owners(
    description: str,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The (source, target) owner-name sets of a rendered description.

    Context markers are stripped and each side is deduplicated and
    sorted, so owner sets differing only in context numbering -- e.g.
    ``r#1, r#2`` vs ``r#3`` -- normalize identically.  Descriptions
    without an owner clause (refinement can strip every contributing
    object pair) yield two empty tuples.
    """
    match = _OWNERS_CLAUSE.search(description)
    if match is None:
        return (), ()

    def side(text: str) -> Tuple[str, ...]:
        return tuple(
            sorted(
                {
                    normalize_owner(part)
                    for part in text.split(",")
                    if part.strip()
                }
            )
        )

    return side(match.group("source")), side(match.group("target"))


def pair_fingerprint(
    interface: str,
    source_span: str,
    target_span: str,
    source_owners: Iterable[str] = (),
    target_owners: Iterable[str] = (),
    kind: str = KIND_REGION_LIFETIME,
) -> str:
    """The fingerprint of one condensed instruction pair.

    This is the ground-truth hash: :func:`warning_fingerprint` is a
    convenience wrapper that extracts these components from a rendered
    :class:`~repro.tool.regionwiz.Warning_`.  Owner names are normalized
    (context markers stripped), deduplicated, and sorted here too, so
    callers may pass raw ``AbstractObject`` renderings.
    """
    material = {
        "version": FINGERPRINT_VERSION,
        "interface": interface,
        "kind": kind,
        "source": source_span,
        "target": target_span,
        "source_owners": sorted({normalize_owner(o) for o in source_owners}),
        "target_owners": sorted({normalize_owner(o) for o in target_owners}),
    }
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def warning_fingerprint(
    warning, interface: str, kind: str = KIND_REGION_LIFETIME
) -> str:
    """The content-stable fingerprint of one rendered warning.

    ``warning`` is anything with ``source_loc``, ``target_loc``, and
    ``description`` attributes (a :class:`~repro.tool.regionwiz.Warning_`);
    ``interface`` is the region interface name (``apr``/``rc``).
    """
    source_owners, target_owners = normalized_owners(warning.description)
    return pair_fingerprint(
        interface,
        loc_span(warning.source_loc),
        loc_span(warning.target_loc),
        source_owners,
        target_owners,
        kind,
    )
