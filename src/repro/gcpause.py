"""Keep CPython's cyclic garbage collector out of the analysis.

The frontend, the linker and the solvers allocate hundreds of thousands
of containers that all stay alive until their stage ends.  Every 700
net allocations the collector walks the young generation, and every
so often the whole heap, finding nothing to free: on 557.xz, on a 2-CPU host, that was
0.91 s of a 2.83 s configuration sweep.  :func:`paused` turns automatic
collection off while a stage or a solve runs; reference counting still
frees every acyclic object the moment it dies.

The pause is re-entrant and thread-safe: while any caller, on any
thread, holds it, automatic collection is off, and when the last holder
leaves, the collector returns to the state the first holder found, so a
caller that disabled it itself keeps it disabled.  Hold it around
bounded work only, never around a server loop (a long-running process
must keep collecting between requests) and never around creating a
process pool (a forked worker would inherit a held pause).  This is the
only module that turns the collector off or on (internals §9, "The
cyclic collector").
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

# Module state, because the collector it guards is process-wide.
_lock = threading.Lock()
#: callers currently inside :func:`paused`, over all threads
_holders = 0
#: whether the collector was enabled when the first holder arrived
_was_enabled = False


@contextmanager
def paused() -> Iterator[None]:
    """Hold automatic collection off for the duration of the block."""
    global _holders, _was_enabled
    with _lock:
        if not _holders:
            _was_enabled = gc.isenabled()
            gc.disable()
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if not _holders and _was_enabled:
                gc.enable()


def holders() -> int:
    """How many callers hold the pause right now."""
    return _holders
