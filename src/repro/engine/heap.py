"""Heap policy: long-lived artifacts leave the cyclic garbage collector.

A world build, a gathered snapshot and a pipeline result are large,
acyclic and immutable once made, and they live for the whole run.  The
collector cannot know that: every full collection traverses all of them
again, and in a sweep those traversals cost as much as the work itself.

:func:`long_lived` marks where such artifacts are made.  The collector
is off inside the scope.  On leaving the outermost scope one collection
sweeps whatever cyclic garbage the scope made, then ``gc.freeze()``
moves every object then alive to the permanent generation, which later
collections skip.  Frozen objects are still freed by reference counting
when dropped; only cycles among them would outlive their last reference.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

# Process-wide, like the collector whose state they guard.
_lock = threading.RLock()
_depth = 0
_was_enabled = False


@contextmanager
def long_lived():
    """``with long_lived():`` (or ``@long_lived()``): freeze what survives.

    Re-entrant across threads: nested scopes only count, and the
    collect-then-freeze runs once, when the outermost scope exits (also
    on an exception).  The collector's prior enabled state is restored.
    """
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.collect()  # freezing garbage would keep it forever
                gc.freeze()
                if _was_enabled:
                    gc.enable()
