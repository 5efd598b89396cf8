"""Process-global persistent fork pool.

:class:`~repro.parallel.pool.SharedPool` keeps fork workers alive
across calls; it serves Monte-Carlo trial chunks
(:func:`repro.mc.runner.run_point`) and campaign unit shards, work that
holds the GIL, so separate processes are the only way it overlaps.
Netlist propagates never use it: every propagate runs serially in the
calling process.

Configured explicitly (CLI ``--pool-workers``, benches, tests).  The
accessor is fork-aware: a forked child sees ``None`` from
:func:`get_pool`, because it must never talk over its parent's pipes.
"""

from __future__ import annotations

import atexit
import os

from repro.parallel.pool import (
    PoolError,
    SharedPool,
    fork_available,
    pool_task,
)

__all__ = [
    "PoolError",
    "SharedPool",
    "configure_pool",
    "fork_available",
    "get_pool",
    "pool_task",
    "shutdown_pool",
]

_POOL: SharedPool | None = None


def configure_pool(workers: int | None) -> SharedPool | None:
    """Install (or clear) the process-global pool.

    ``workers`` of None/0/1 -- or an environment without fork --
    clears the pool: every consumer falls back to its serial path.
    Workers spawn lazily on first use, so configuring is free until
    something actually runs on the pool.
    """
    global _POOL
    shutdown_pool()
    if workers and workers >= 2 and fork_available():
        _POOL = SharedPool(workers)
    return _POOL


def get_pool() -> SharedPool | None:
    """The process-global pool, or None (also for forked children)."""
    pool = _POOL
    if pool is None or pool.owner_pid != os.getpid():
        return None
    return pool


def shutdown_pool() -> None:
    """Stop and drop the process-global pool, if this process owns it."""
    global _POOL
    if _POOL is not None and _POOL.owner_pid == os.getpid():
        _POOL.shutdown()
    _POOL = None


atexit.register(shutdown_pool)
