"""Persistent fork pool: spawn once, execute many.

The historical parallel paths (``run_point(n_jobs=...)``, the campaign
orchestrator) created a ``multiprocessing.Pool`` per call: every call
paid a fork per worker plus the inheritance of whatever happened to be
in the parent at that moment.  :class:`SharedPool` inverts that:

* **Workers are spawned once** (per registration generation, see
  below) and stay alive across calls; each holds the objects the
  parent registered -- Monte-Carlo kernels and injector factories,
  campaign unit lists and the store -- so the per-call message is a
  task name plus a few ints.  No closure is ever pickled per call.
* **Two transports** feed the workers.  Picklable objects
  (:meth:`SharedPool.push_if_new` -- seed lists, injector arguments)
  are broadcast over the worker pipes once, when they change.
  Unpicklable objects (:meth:`SharedPool.register` -- closures over
  injector factories and compiled kernels) ride fork inheritance:
  registering one after the workers exist marks the pool *stale*, and
  the next :meth:`SharedPool.run` respawns the workers so they fork
  with the new state in memory.  Spawn cost is therefore amortized:
  registrations happen when a sweep or campaign is first seen, and
  every hot-path call after that reuses the same workers.

Tasks are module-level functions declared with :func:`pool_task` at
import time (workers inherit the registry via fork); they receive the
worker's object registry plus the per-call arguments and must return
something picklable.

Failure semantics: a worker exception travels back as a formatted
traceback and re-raises as :class:`PoolError` in the parent after all
workers of the call have been drained (no worker is left mid-task) --
task-level bugs are deterministic, so they are never retried.  Worker
*loss* is different: each worker sends a heartbeat every
``heartbeat_s / 4`` while idle or computing, and the parent treats a
worker as lost when its pipe hits EOF, its process exits, or no beat
arrives within ``heartbeat_s`` (hung: the process is killed).  Lost
workers trigger **one respawn-and-reassign cycle** for their in-flight
calls; if workers keep dying, the pool logs a fallback and runs the
remaining calls **serially in the parent** -- tasks are deterministic
and idempotent (trial chunks, store puts), so results are
bit-identical either way.  Workers ignore SIGINT (the parent
handles it) and exit on pipe EOF, so they cannot outlive a killed
parent; an ``atexit`` hook additionally reaps every live pool of the
owning process, and ``shutdown`` is idempotent, so a parent exception
mid-dispatch leaves no zombie children behind.
"""

from __future__ import annotations

import atexit
import logging
import os
import signal
import threading
import time
import traceback
import weakref
import multiprocessing
from typing import Callable

from repro import faults, obs

_LOG = logging.getLogger("repro.parallel")

#: Default worker staleness timeout (seconds); 0 disables hung-worker
#: detection (dead-worker detection via pipe EOF stays on).
DEFAULT_HEARTBEAT_S = 30.0


def default_heartbeat_s() -> float:
    env = os.environ.get("REPRO_POOL_HEARTBEAT_S")
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return DEFAULT_HEARTBEAT_S

#: Task-name -> function registry, populated at import time by
#: :func:`pool_task`; forked workers inherit it.
_TASKS: dict[str, Callable] = {}


def pool_task(name: str) -> Callable:
    """Register a module-level function as a pool task.

    The function runs inside workers as ``fn(registry, *args)``.  It
    must be declared at import time (before the pool spawns) so fork
    inheritance carries it into every worker.
    """
    def decorate(fn: Callable) -> Callable:
        existing = _TASKS.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"pool task {name!r} already registered")
        _TASKS[name] = fn
        return fn
    return decorate


class PoolError(RuntimeError):
    """A pool task failed or the pool is unusable in this process."""


#: Distinguishes "key absent" from "key holds None" in the registry
#: (``None`` is a legitimate registered value, e.g. a default config).
_MISSING = object()


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods() \
        and hasattr(os, "fork")


def _worker_main(conn, registry: dict, stale_parent_ends: list,
                 heartbeat_s: float = 0.0) -> None:
    """Worker loop: serve ``set``/``run`` messages until EOF or exit.

    ``stale_parent_ends`` are the parent-side pipe ends this worker
    inherited through fork (its own included); closing them here makes
    parent death observable as EOF on ``conn`` -- otherwise sibling
    workers would keep each other's pipes open forever.

    With ``heartbeat_s > 0`` a daemon thread sends ``("hb",)`` every
    quarter-timeout (under a lock shared with result sends, so beats
    never interleave into a result frame); the parent declares the
    worker hung when no message arrives for a full timeout.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in stale_parent_ends:
        try:
            end.close()
        except OSError:  # pragma: no cover - already closed
            pass
    send_lock = threading.Lock()
    stop_beat = threading.Event()
    if heartbeat_s > 0:
        def beat() -> None:
            while not stop_beat.wait(heartbeat_s / 4.0):
                try:
                    with send_lock:
                        conn.send(("hb",))
                except OSError:  # pragma: no cover - parent gone
                    return
        threading.Thread(target=beat, daemon=True,
                         name="repro-pool-heartbeat").start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone
        recv_mono = time.monotonic()
        mode = faults.fire("pool.worker_heartbeat")
        if mode == "hang":
            # A genuine hang stops making progress *and* stops
            # beating; sleeping with the beat thread alive would look
            # like a slow-but-healthy worker to the parent.
            stop_beat.set()
            time.sleep(600.0)
        kind = message[0]
        if kind == "set":
            registry[message[1]] = message[2]
        elif kind == "run":
            _, name, calls, t_sent = message
            try:
                fn = _TASKS[name]
                # Queue wait = send-to-receive on the shared monotonic
                # clock; compute = the span's own duration.  Together
                # they split each shard's latency into transport vs
                # work in `repro stats`.
                with obs.span("pool.task", task=name, calls=len(calls),
                              queue_wait_us=max(
                                  (recv_mono - t_sent) * 1e6, 0.0)):
                    results = [fn(registry, *args) for args in calls]
                faults.fire("pool.result_return")
                with send_lock:
                    conn.send(("ok", results))
            except BaseException:
                with send_lock:
                    conn.send(("err", traceback.format_exc()))
            # Workers exit via os._exit and never run atexit hooks, so
            # counter snapshots must flush at this barrier.
            obs.flush()
        elif kind == "exit":
            break
    stop_beat.set()
    conn.close()


class SharedPool:
    """Persistent fork-worker pool with a fork-inherited object registry.

    Args:
        workers: worker process count (>= 1; callers dispatch to the
            pool only at >= 2).
        heartbeat_s: worker staleness timeout; a worker whose last
            heartbeat is older than this mid-call is killed as hung.
            ``None`` reads ``REPRO_POOL_HEARTBEAT_S`` (default 30);
            0 disables hung detection (EOF detection stays).
    """

    def __init__(self, workers: int, heartbeat_s: float | None = None):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = int(workers)
        self.heartbeat_s = default_heartbeat_s() if heartbeat_s is None \
            else float(heartbeat_s)
        self.owner_pid = os.getpid()
        #: Forks performed so far; benches assert it stays flat across
        #: hot-path calls (spawn cost amortized).
        self.spawn_count = 0
        self._registry: dict = {}
        self._procs: list = []
        self._conns: list = []
        self._stale = True

    # -- state distribution ----------------------------------------------

    def register(self, key, obj) -> None:
        """Make ``obj`` visible to workers via fork inheritance.

        For objects that cannot travel a pipe, such as closures.
        Re-registering the same object is free; registering a new
        object under a live pool marks it stale, and the next
        :meth:`run` respawns the workers.
        """
        if self._registry.get(key, _MISSING) is obj:
            return
        self._registry[key] = obj
        if self._alive():
            self._stale = True

    def push_if_new(self, key, obj) -> None:
        """Send a picklable object to the workers, once per change.

        Pipe sends are ordered, so a ``run`` issued after a push is
        guaranteed to see the object -- no acknowledgement needed.
        """
        if self._registry.get(key, _MISSING) is obj:
            return
        self._registry[key] = obj
        if self._alive() and not self._stale:
            for conn in self._conns:
                try:
                    conn.send(("set", key, obj))
                except OSError:
                    # The worker died mid-broadcast (SIGKILL races the
                    # send).  The object is already in the registry, so
                    # marking the pool stale makes the next `run`
                    # respawn workers that inherit it by fork.
                    self._stale = True

    # -- execution --------------------------------------------------------

    def run(self, task: str, calls: list[tuple]) -> list:
        """Execute ``task`` once per argument tuple; results in order.

        Calls are dealt round-robin across workers; the parent blocks
        until every worker involved has replied.  Calls whose worker is
        lost (dead, hung, or unreachable) survive one
        respawn-and-reassign cycle; if workers keep dying the leftover
        calls run serially in the parent -- same tasks, same registry,
        bit-identical results.
        """
        if task not in _TASKS:
            raise PoolError(f"unknown pool task {task!r}")
        calls = list(calls)
        if not calls:
            return []
        faults.trip("pool.shard_dispatch")
        with obs.span("pool.dispatch", task=task, calls=len(calls)):
            self._ensure()
            results: list = [None] * len(calls)
            leftover, task_error = self._run_round(
                task, results, list(enumerate(calls)))
            if leftover and task_error is None:
                _LOG.warning(
                    "pool lost worker(s) running %r; respawning and "
                    "reassigning %d call(s)", task, len(leftover))
                self._stale = True
                self._ensure()
                leftover, task_error = self._run_round(task, results,
                                                       leftover)
                if leftover and task_error is None:
                    _LOG.warning(
                        "pool workers keep dying; running %d call(s) of "
                        "%r serially in the parent", len(leftover), task)
                    self._stale = True
                    for index, args in leftover:
                        try:
                            results[index] = _TASKS[task](self._registry,
                                                          *args)
                        except Exception:
                            task_error = traceback.format_exc()
                            break
        if task_error is not None:
            raise PoolError(
                f"pool task {task!r} failed in a worker:\n{task_error}")
        return results

    def _run_round(self, task: str, results: list,
                   indexed_calls: list) -> tuple[list, str | None]:
        """Dispatch indexed calls and collect; returns what is left.

        Returns (lost calls needing another round, task error).  A
        task error -- the function itself raised -- is deterministic
        and is reported, never retried; the remaining workers are
        still drained first so none is left mid-task.
        """
        buckets: list[list] = [[] for _ in self._conns]
        for n, item in enumerate(indexed_calls):
            buckets[n % len(buckets)].append(item)
        pending: list[tuple[int, list]] = []
        lost: list = []
        for worker, bucket in enumerate(buckets):
            if not bucket:
                continue
            try:
                self._conns[worker].send(
                    ("run", task, [tuple(args) for _, args in bucket],
                     time.monotonic()))
            except (BrokenPipeError, OSError):
                lost.extend(bucket)
                continue
            pending.append((worker, bucket))
        task_error = None
        for worker, bucket in pending:
            status, payload = self._recv_result(worker)
            if status == "lost":
                lost.extend(bucket)
            elif status == "err":
                task_error = payload
            else:
                for (index, _), value in zip(bucket, payload):
                    results[index] = value
        return lost, task_error

    def _recv_result(self, worker: int) -> tuple[str, object]:
        """Await one result frame, skipping heartbeats.

        Returns ("ok", values) / ("err", traceback) / ("lost", reason).
        A worker is lost on pipe EOF, on process exit (a buffered
        result still in the pipe is served first -- poll precedes the
        liveness check), or when no message of any kind arrives within
        the heartbeat timeout (hung; the process is killed so a later
        wakeup cannot corrupt a respawned successor's shared state).
        """
        conn = self._conns[worker]
        proc = self._procs[worker]
        last_message = time.monotonic()
        while True:
            try:
                if conn.poll(0.05):
                    message = conn.recv()
                    if message[0] == "hb":
                        obs.counter("pool.heartbeat")
                        last_message = time.monotonic()
                        continue
                    return message[0], message[1]
            except (EOFError, OSError):
                return "lost", f"worker {worker} pipe EOF"
            if not proc.is_alive():
                return "lost", f"worker {worker} exited"
            if self.heartbeat_s > 0 \
                    and time.monotonic() - last_message > self.heartbeat_s:
                _LOG.warning("pool worker %d hung (no heartbeat for "
                             "%.1fs); killing it", worker,
                             self.heartbeat_s)
                try:
                    proc.kill()
                except (OSError, AttributeError):  # pragma: no cover
                    proc.terminate()
                proc.join(timeout=1.0)
                return "lost", f"worker {worker} hung"

    # -- lifecycle --------------------------------------------------------

    def _alive(self) -> bool:
        return bool(self._procs) \
            and all(proc.is_alive() for proc in self._procs)

    def _ensure(self) -> None:
        if os.getpid() != self.owner_pid:
            raise PoolError(
                "SharedPool used from a process that does not own it "
                "(pools do not survive fork; use repro.parallel.get_pool)")
        if not fork_available():  # pragma: no cover - posix containers
            raise PoolError("SharedPool needs the fork start method")
        if self._alive() and not self._stale:
            return
        self._teardown()
        if self.spawn_count:
            obs.counter("pool.respawn")
        context = multiprocessing.get_context("fork")
        with obs.span("pool.spawn", workers=self.workers):
            for index in range(self.workers):
                parent_end, child_end = context.Pipe(duplex=True)
                # The child inherits every parent end created so far
                # (its own included); the worker closes them all first
                # thing.
                proc = context.Process(
                    target=_worker_main,
                    args=(child_end, self._registry,
                          [*self._conns, parent_end], self.heartbeat_s),
                    daemon=True, name=f"repro-pool-{index}")
                proc.start()
                child_end.close()
                self._conns.append(parent_end)
                self._procs.append(proc)
        self._stale = False
        self.spawn_count += 1
        _LIVE_POOLS.add(self)

    def _teardown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._conns = []
        self._procs = []

    def shutdown(self) -> None:
        """Stop the workers (the registry survives for a respawn)."""
        if os.getpid() != self.owner_pid:
            return  # a forked child must not reap its parent's workers
        self._teardown()
        self._stale = True

    def __enter__(self) -> "SharedPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False


#: Every pool that ever spawned workers, reaped at interpreter exit so
#: a parent exception outside a ``with`` block cannot leak children.
#: Weak references: a collected pool's daemon workers are torn down by
#: their pipes' EOF, so holding it alive here would only delay that.
_LIVE_POOLS: "weakref.WeakSet[SharedPool]" = weakref.WeakSet()


@atexit.register
def _atexit_reap_pools() -> None:  # pragma: no cover - exit path
    for pool in list(_LIVE_POOLS):
        try:
            pool.shutdown()
        except Exception:
            pass
