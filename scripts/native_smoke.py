#!/usr/bin/env python
"""End-to-end smoke of the native kernel backend (``make native-smoke``).

Proves, in a throwaway cache directory, the backend's whole lifecycle:

1. **Build**: a cold cache compiles the f64 kernel library exactly
   once (``BuildResult.built`` is True, the .so lands under the cache
   dir with its source hash in the name).
2. **Run**: ``engine="compiled-native"`` produces bit-identical
   values/arrivals to ``engine="compiled"`` on a real ALU propagate,
   both glitch models.
3. **Cache hit**: a second ensure serves the library without invoking
   the compiler, a second Circuit reuses it, and a *fresh process*
   pointed at the same cache dir also reuses it (the cross-invocation
   story).
4. **Mask**: a subprocess with ``REPRO_NO_CC=1`` reports the backend
   unavailable and still runs the numpy engines -- the toolchain-free
   fallback that tier-1 relies on.
5. **ISS library**: the native ISS kernel builds into the same cache,
   runs a benchmark kernel to the Python ISS's exact result, is a
   cache hit in a fresh process, and ``REPRO_NO_CC=1`` runs the
   Python ISS instead.

Where this machine has no working C compiler at all, the smoke prints
the probe's reason and exits 0 -- the backend is optional by contract,
and ``repro engines`` is the diagnostic that makes that visible.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import native  # noqa: E402
from repro.native import build as build_mod  # noqa: E402


def _propagate(engine: str):
    from repro.netlist.calibrate import calibrated_alu
    alu = calibrated_alu()
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << 32, 129, dtype=np.uint64)
    b = rng.integers(0, 1 << 32, 129, dtype=np.uint64)
    outs = []
    for glitch_model in ("sensitized", "value-change"):
        outs.append(alu.propagate("l.add", (a[:128], b[:128]),
                                  (a[1:], b[1:]), 0.7, glitch_model,
                                  engine=engine))
    return outs


def _subprocess(code: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, **env,
             "PYTHONPATH": str(REPO / "src")
             + (os.pathsep + os.environ["PYTHONPATH"]
                if os.environ.get("PYTHONPATH") else "")},
        cwd=REPO)


def _iss_lifecycle() -> None:
    """Step 5: build, run, cache hit and mask of the ISS library."""
    from repro.bench.suite import quick_kernel
    from repro.sim import native_iss
    from repro.sim.cpu import Cpu

    built = build_mod.ensure_library(native.ISS_LIBRARY)
    assert built.built and built.path.name.startswith("isskern-")
    kernel = quick_kernel("median")
    cpu = Cpu(kernel.program)
    assert native_iss.fallback_reason(cpu) is None
    fast = cpu.run(kernel.entry)
    os.environ["REPRO_NO_CC"] = "1"
    try:
        spec_cpu = Cpu(kernel.program)
        spec = spec_cpu.run(kernel.entry)
    finally:
        del os.environ["REPRO_NO_CC"]
    assert fast == spec and cpu.regs == spec_cpu.regs
    assert "_native_image" not in spec_cpu.__dict__
    print(f"native-smoke: built {built.path.name}; the native ISS "
          f"matches the Python ISS ({fast.cycles} cycles)")
    hit = _subprocess(
        "from repro import native;"
        "from repro.native import build;"
        "assert native.iss_unavailable_reason() is None;"
        "raise SystemExit(build.build_count)")
    assert hit.returncode == 0, \
        "a fresh process must load the cached ISS library, not rebuild"
    masked = _subprocess(
        "from repro.bench.suite import quick_kernel;"
        "from repro.sim import native_iss;"
        "from repro.sim.cpu import Cpu;"
        "k = quick_kernel('median'); cpu = Cpu(k.program);"
        "assert native_iss.fallback_reason(cpu) == 'masked';"
        "assert cpu.run(k.entry).finished;"
        "assert '_native_image' not in cpu.__dict__",
        REPRO_NO_CC="1")
    assert masked.returncode == 0, \
        "REPRO_NO_CC must run the Python ISS"
    print("native-smoke: ISS library is a cache hit in a fresh process; "
          "REPRO_NO_CC runs the Python ISS")


def main() -> int:
    reason = native.unavailable_reason()
    if reason is not None:
        print(f"native-smoke: SKIPPED -- backend unavailable: {reason}")
        return 0

    with tempfile.TemporaryDirectory(prefix="native-smoke-") as tmp:
        os.environ["REPRO_NATIVE_CACHE"] = tmp

        # 1. cold build
        first = build_mod.ensure_library("float64")
        assert first.built, "cold cache must compile"
        assert first.path.exists() and first.sha256[:16] in first.path.name
        print(f"native-smoke: built {first.path.name} "
              f"({native.probe_compiler().version})")

        # 2. bit-identical run
        native_out = _propagate("compiled-native")
        numpy_out = _propagate("compiled")
        for (values_n, arr_n), (values_c, arr_c) in zip(native_out,
                                                        numpy_out):
            assert np.array_equal(values_n, values_c)
            assert np.array_equal(arr_n, arr_c)
        print("native-smoke: propagate bit-identical to compiled-f64 "
              "(both glitch models)")

        # 3. cache hits: same process, second circuit, fresh process
        count = build_mod.build_count
        again = build_mod.ensure_library("float64")
        assert not again.built and again.path == first.path
        _propagate("compiled-native")  # a second ALU instance
        assert build_mod.build_count == count, \
            "second circuit must reuse the cached library"
        fresh = subprocess.run(
            [sys.executable, "-c",
             "from repro.native import build;"
             "r = build.ensure_library('float64');"
             "raise SystemExit(1 if r.built else 0)"],
            env={**os.environ,
                 "PYTHONPATH": str(REPO / "src")
                 + (os.pathsep + os.environ["PYTHONPATH"]
                    if os.environ.get("PYTHONPATH") else "")},
            cwd=REPO)
        assert fresh.returncode == 0, \
            "a fresh process must hit the cache, not rebuild"
        print("native-smoke: cache hit in-process, across circuits and "
              "across processes")

        # 4. masked toolchain falls back cleanly
        masked = subprocess.run(
            [sys.executable, "-c",
             "from repro import native;"
             "from repro.netlist.circuit import Circuit;"
             "import numpy as np;"
             "assert not native.native_available();"
             "assert native.engine_for('float64', 'native') "
             "== 'compiled';"
             "c = Circuit('m'); a = c.input_bus('a', 1)[0];"
             "c.output_bus('y', [c.gate('INV', a)]);"
             "c.propagate({'a': [0]}, {'a': [1]}, np.array([1.0]),"
             " engine=native.engine_for('float64', 'native'))"],
            env={**os.environ, "REPRO_NO_CC": "1",
                 "PYTHONPATH": str(REPO / "src")
                 + (os.pathsep + os.environ["PYTHONPATH"]
                    if os.environ.get("PYTHONPATH") else "")},
            cwd=REPO)
        assert masked.returncode == 0, \
            "REPRO_NO_CC must fall back to the numpy engines"
        print("native-smoke: REPRO_NO_CC masks the backend and numpy "
              "serves the request")

        _iss_lifecycle()

    print("native-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
