"""Per-layer tracing of the ``repro`` package, installed from outside it.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public callables of each traced ``repro`` module:

* methods are patched on their class (``Cpu.run``, ``ResultStore.put``,
  ``Circuit.propagate``, every fault injector's ``__init__``, ...);
* module functions are patched at every ``repro.*`` binding site, since
  callers import ``run_point``, ``run_dta`` or ``build_kernel`` by name;
* each ``WorkUnit.compute`` and each plan's ``render`` is wrapped after
  ``plan_campaign`` returns.

Every wrapped call is a span on a per-process stack.  A layer's self
time is its wrapped time minus the wrapped children inside it.  Forked
workers inherit the wrappers; ``os.register_at_fork`` gives each worker
a fresh :class:`Recorder`, and the worker writes its records whenever
the program calls ``repro.obs.flush`` -- the barrier the orchestrator
already runs at the end of every shard, because shard workers leave
through ``os._exit``.  :func:`merge` folds the per-process files into
the ``<module>.<metric>`` numbers the benchmark reports.

All times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so records of different processes share
one time axis.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import pkgutil
import sys
import time
from collections import defaultdict

#: Layers that only contain other layers.  Their self time is the part
#: of the wall no leaf layer explains, so it counts against coverage.
CONTAINERS = ("campaign.run", "campaign.unit")

#: Time the parent spends blocked on pool workers; it is neither
#: attributed nor unattributed, because the workers' own records cover
#: that interval.
WAITING = "parallel.wait"


class Recorder:
    """Span stack and totals of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stack: list[list] = []  # [layer, t0, child seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.unit_s: list[float] = []
        self.store_events: list[list] = []  # [t, "put"|"get", sha, hit]
        self.start("parent")

    def start(self, role: str) -> None:
        """Start this process's records from zero.

        Containers are cleared in place: the wrappers hold references
        to them.
        """
        self.role = role
        self.pid = os.getpid()
        self.t_start = self.t_end = time.perf_counter()
        self.busy_s = 0.0  # time inside outermost wrapped calls
        for container in (self.stack, self.layers, self.counts,
                          self.unit_s, self.store_events):
            container.clear()

    def after_fork(self) -> None:
        """Give a forked worker its own records (runs in the child)."""
        self.start("worker")

    def close_frame(self, frame: list, t1: float) -> float:
        duration = t1 - frame[1]
        totals = self.layers[frame[0]]
        totals[0] += duration
        totals[1] += duration - frame[2]
        totals[2] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.busy_s += duration
        return duration

    def dump(self) -> None:
        """Write this process's cumulative records (atomic replace)."""
        self.t_end = time.perf_counter()
        record = {
            "pid": self.pid, "role": self.role,
            "t_start": self.t_start, "t_end": self.t_end,
            "busy_s": self.busy_s,
            "layers": {name: list(v) for name, v in self.layers.items()},
            "counts": dict(self.counts),
            "unit_s": self.unit_s,
            "store_events": self.store_events,
        }
        path = os.path.join(self.out_dir, f"proc-{self.pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path)


def _wrap(rec: Recorder, layer: str, func, on_exit=None):
    """Time ``func`` as a span of ``layer``.

    A call made while the same layer is already the innermost span
    (a subclass ``__init__`` calling its base, ``calibrated_alu``
    calling ``AluNetlist.__init__``) passes straight through, so it is
    neither counted twice nor split.  ``on_exit(args, kwargs, result,
    seconds)`` records counts after a successful call.
    """
    clock = time.perf_counter

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if stack and stack[-1][0] == layer:
            return func(*args, **kwargs)
        frame = [layer, clock(), 0.0]
        stack.append(frame)
        try:
            result = func(*args, **kwargs)
        finally:
            stack.pop()
            duration = rec.close_frame(frame, clock())
        if on_exit is not None:
            on_exit(args, kwargs, result, duration)
        return result
    return wrapper


def _patch_method(rec, cls, name, layer, on_exit=None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name,
                classmethod(_wrap(rec, layer, raw.__func__, on_exit)))
    else:
        setattr(cls, name, _wrap(rec, layer, raw, on_exit))


def _patch_function(module, name, replacement_of) -> None:
    """Replace ``module.name`` at every ``repro.*`` binding site."""
    original = getattr(module, name)
    replacement = replacement_of(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _import_all_repro() -> None:
    """Import every ``repro`` module so each binding site exists now."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # the CLI entry point runs on import
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # optional dependency missing: not on this path


def install(out_dir: str) -> Recorder:
    """Wrap the traced ``repro`` callables; returns the parent recorder."""
    import multiprocessing.pool

    _import_all_repro()
    from repro import obs
    from repro.bench import suite
    from repro.campaign import orchestrator
    from repro.fi.base import FaultInjector
    from repro.mc import runner
    from repro.netlist import calibrate
    from repro.netlist.alu import AluNetlist
    from repro.netlist.circuit import Circuit
    from repro.sim.cpu import Cpu
    from repro.store.store import ResultStore
    from repro.timing import dta, sta
    from repro.timing.characterize import AluCharacterization

    rec = Recorder(out_dir)
    os.register_at_fork(after_in_child=rec.after_fork)
    counts = rec.counts

    def count(name, value=1):
        counts[name] += value

    # sim: CPU construction (image decode + compile) and runs.
    _patch_method(rec, Cpu, "__init__", "sim.cpu_init")

    def on_run(args, kwargs, result, seconds):
        count("sim.cycles", result.cycles)
        count("fi.alu_cycles", result.alu_cycles)
        count("fi.faults", result.fault_count)
        count("fi.faulty_cycles", result.faulty_cycles)
    _patch_method(rec, Cpu, "run", "sim.run", on_run)

    # fi: every injector model's constructor.
    pending = [FaultInjector]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "__init__" in cls.__dict__:
            _patch_method(rec, cls, "__init__", "fi.injector_init")

    # mc, bench, timing, netlist: functions imported by name elsewhere.
    def wrap_fn(layer, on_exit=None):
        return lambda func: _wrap(rec, layer, func, on_exit)

    _patch_function(runner, "run_point", wrap_fn(
        "mc.run_point",
        lambda a, k, point, s: count("mc.trials", point.n_trials)))
    _patch_function(suite, "build_kernel", wrap_fn("bench.build_kernel"))
    _patch_function(sta, "static_arrivals", wrap_fn("timing.sta"))
    _patch_function(dta, "run_dta", wrap_fn(
        "timing.run_dta",
        lambda a, k, result, s: count("timing.dta_cycles",
                                      result.n_cycles)))
    _patch_method(rec, AluCharacterization, "run", "timing.characterize")
    _patch_method(rec, AluNetlist, "__init__", "netlist.alu_build")
    _patch_function(calibrate, "calibrate_alu",
                    wrap_fn("netlist.alu_build"))

    def on_propagate(args, kwargs, result, seconds):
        circuit = args[0]
        new_inputs = args[2] if len(args) > 2 else kwargs["new_inputs"]
        columns = len(next(iter(new_inputs.values())))
        count("netlist.gate_evals", circuit.n_gates * columns)
    _patch_method(rec, Circuit, "propagate", "netlist.propagate",
                  on_propagate)

    # store: every get is classified at merge time (hit, readback of a
    # key this run put, or miss) from these events.
    key_of = ResultStore.key_of
    events = rec.store_events

    def on_get(args, kwargs, artifact, seconds):
        events.append([time.perf_counter(), "get", key_of(args[1]),
                       artifact is not None])

    def on_put(args, kwargs, sha, seconds):
        events.append([time.perf_counter(), "put", sha, True])
    _patch_method(rec, ResultStore, "get", "store.get", on_get)
    _patch_method(rec, ResultStore, "put", "store.put", on_put)
    _patch_method(rec, ResultStore, "contains", "store.contains")
    _patch_method(rec, ResultStore, "delete", "store.delete")

    def counter_of(original):
        # The store reports each envelope's size through the (disabled
        # by default) telemetry counter; read it on the way through.
        def counter(name, value=1):
            if name == "store.put_bytes":
                counts["store.put_bytes"] += value
            return original(name, value)
        return counter
    _patch_function(obs, "counter", counter_of)

    def flush_of(original):
        def flush():
            original()
            if rec.role == "worker":
                rec.dump()
        return flush
    _patch_function(obs, "flush", flush_of)

    # campaign: planning, the orchestrator itself, units and renders.
    def on_plan(args, kwargs, plan, seconds):
        def on_unit(a, k, artifact, unit_seconds):
            rec.unit_s.append(unit_seconds)
        for unit in plan.units:
            unit.compute = _wrap(rec, "campaign.unit", unit.compute,
                                 on_unit)
        plan.render = _wrap(rec, "campaign.render", plan.render)
    _patch_function(orchestrator, "plan_campaign",
                    wrap_fn("campaign.plan", on_plan))
    _patch_function(orchestrator, "run_campaign",
                    wrap_fn("campaign.run"))

    # parallel: fork-pool management in the parent, and its waits.
    _patch_method(rec, multiprocessing.pool.Pool, "__init__",
                  "parallel.pool")
    _patch_method(rec, multiprocessing.pool.Pool, "terminate",
                  "parallel.pool")
    _patch_method(rec, multiprocessing.pool.IMapIterator, "__next__",
                  WAITING)
    return rec


# -- merging -----------------------------------------------------------

def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _classify_gets(records: list[dict]) -> dict[str, int]:
    """Split every ``store.get`` into hit, readback and miss.

    A get that returned an artifact is a *readback* when any process
    of the run put that key before the get returned, else a *hit*.
    """
    events = sorted((event for record in records
                     for event in record["store_events"]),
                    key=lambda event: event[0])
    put_keys: set[str] = set()
    tally = {"store.hits": 0, "store.readbacks": 0, "store.misses": 0}
    for _, op, sha, found in events:
        if op == "put":
            put_keys.add(sha)
        elif not found:
            tally["store.misses"] += 1
        elif sha in put_keys:
            tally["store.readbacks"] += 1
        else:
            tally["store.hits"] += 1
    return tally


def merge(out_dir: str) -> dict:
    """Fold the per-process records of one traced repetition.

    Returns ``{"metrics": {name: value}, "unattributed": [(name, s)],
    "layers": {layer: [total_s, self_s, calls]}}``.
    """
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("proc-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                records.append(json.load(handle))
    layers: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    counts: dict[str, float] = defaultdict(int)
    unit_s: list[float] = []
    for record in records:
        for layer, (total, self_s, calls) in record["layers"].items():
            layers[layer][0] += total
            layers[layer][1] += self_s
            layers[layer][2] += calls
        for name, value in record["counts"].items():
            counts[name] += value
        unit_s.extend(record["unit_s"])
    unit_s.sort()

    def self_s(layer):
        return layers[layer][1] if layer in layers else 0.0

    def calls(layer):
        return layers[layer][2] if layer in layers else 0

    workers = [r for r in records if r["role"] == "worker"]
    if workers:
        window = (max(r["t_end"] for r in workers)
                  - min(r["t_start"] for r in workers))
        busy = [r["busy_s"] for r in workers]
        busy_frac = sum(busy) / (len(busy) * window)
        imbalance = max(busy) / (sum(busy) / len(busy))
    else:
        busy_frac = imbalance = 0.0

    # Coverage: leaf-layer self time over the time every process was
    # recorded -- the parent from install to the end of the workload,
    # minus its waits on workers, and each worker from fork to its last
    # flush.
    accounted = sum(r["t_end"] - r["t_start"] for r in records) \
        - self_s(WAITING)
    attributed = sum(v[1] for layer, v in layers.items()
                     if layer not in CONTAINERS and layer != WAITING)
    unattributed = [(layer, self_s(layer)) for layer in CONTAINERS
                    if layer in layers]
    for role in ("parent", "worker"):
        unattributed.append((f"(outside any layer, {role})", sum(
            r["t_end"] - r["t_start"] - r["busy_s"]
            for r in records if r["role"] == role)))
    unattributed.sort(key=lambda item: -item[1])

    run_s = self_s("sim.run")
    metrics = {
        "sim.cpu_init_s": self_s("sim.cpu_init"),
        "sim.cpu_inits": calls("sim.cpu_init"),
        "sim.run_s": run_s,
        "sim.runs": calls("sim.run"),
        "sim.cycles": counts["sim.cycles"],
        "sim.mcycles_per_s": (counts["sim.cycles"] / run_s / 1e6
                              if run_s else 0.0),
        "fi.injector_init_s": self_s("fi.injector_init"),
        "fi.alu_cycles": counts["fi.alu_cycles"],
        "fi.faults": counts["fi.faults"],
        "fi.faulty_cycles": counts["fi.faulty_cycles"],
        "mc.run_point_self_s": self_s("mc.run_point"),
        "mc.trials": counts["mc.trials"],
        "bench.build_kernel_s": self_s("bench.build_kernel"),
        "timing.sta_s": self_s("timing.sta"),
        "timing.sta_calls": calls("timing.sta"),
        "timing.characterize_self_s": self_s("timing.characterize"),
        "timing.characterizations": calls("timing.characterize"),
        "timing.run_dta_self_s": self_s("timing.run_dta"),
        "timing.dta_cycles": counts["timing.dta_cycles"],
        "netlist.alu_build_s": self_s("netlist.alu_build"),
        "netlist.propagate_s": self_s("netlist.propagate"),
        "netlist.propagate_calls": calls("netlist.propagate"),
        "netlist.gate_evals": counts["netlist.gate_evals"],
        "store.put_s": self_s("store.put"),
        "store.puts": calls("store.put"),
        "store.put_bytes": counts["store.put_bytes"],
        "store.get_s": self_s("store.get"),
        "store.gets": calls("store.get"),
        **_classify_gets(records),
        "store.contains_s": self_s("store.contains"),
        "store.deletes": calls("store.delete"),
        "campaign.plan_s": self_s("campaign.plan"),
        "campaign.render_s": self_s("campaign.render"),
        "campaign.units": len(unit_s),
        "campaign.unit_p50_s": _quantile(unit_s, 0.5),
        "campaign.unit_p90_s": _quantile(unit_s, 0.9),
        "parallel.busy_frac": busy_frac,
        "parallel.imbalance": imbalance,
        "trace.coverage": attributed / accounted if accounted else 0.0,
    }
    return {"metrics": metrics, "unattributed": unattributed,
            "layers": {k: list(v) for k, v in sorted(layers.items())}}
