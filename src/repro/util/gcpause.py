"""Pausing Python's cyclic garbage collector around one unit's analysis.

Analyzing a unit allocates hundreds of thousands of AST nodes, source
locations, IR instructions and abstract objects, almost none of them in
reference cycles: reference counting frees them.  With the collector on,
those allocations trigger generation-2 passes that traverse everything
the unit still holds and find almost nothing to collect.  The only cycles a
unit leaves behind are its recursive struct types
(``StructType -> StructField -> PointerType -> StructType``), 0-15
objects that the next collection after the pause reclaims.
``tests/tool/test_gc_pause.py`` holds every shipped input to that.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block.

    On exit, exceptions included, the caller's state comes back: a
    collector that was already disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
