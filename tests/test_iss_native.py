"""Differential suite: the native ISS + FI kernel against the Python ISS.

The Python ISS in :mod:`repro.sim.cpu` is the executable spec.  Every
case here runs twice -- once with the toolchain masked
(``REPRO_NO_CC=1``, the Python loop) and once on the native kernel --
and requires the two to agree on everything observable: the
:class:`ExecutionResult`, the registers, the full data-memory image,
the injector's counters, its random-stream state and its noise-stream
cursor.  Programs come from hypothesis through the in-repo assembler
(ALU/compare/branch/jump/load/store mixes with delay-slot branches,
misaligned and out-of-range accesses, misaligned ``l.jr`` targets,
self-jumps, budget exhaustion and fetched undecodable words), plus the
five benchmark kernels under every injector variant.

Everything that needs the kernel skips with the compiler probe's
reason where no C compiler works.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import faults, native
from repro.bench.suite import BENCHMARK_NAMES, quick_kernel
from repro.cli import main
from repro.fi import (
    FixedProbabilityInjector,
    NullInjector,
    StaInjector,
    StaNoiseInjector,
    StatisticalInjector,
)
from repro.fi.streams import EffectivePeriodStream
from repro.isa.assembler import assemble
from repro.mc.runner import run_point
from repro.sim import native_iss
from repro.sim.cpu import Cpu
from repro.sim.machine import MachineConfig
from repro.sim.tracing import Tracer
from repro.timing.noise import VoltageNoise

needs_cc = pytest.mark.skipif(
    not native.native_available(),
    reason=f"native ISS unavailable ({native.unavailable_reason()})")

pytestmark = needs_cc

NOISE = VoltageNoise(0.01)
VARIANTS = ("none", "null", "A", "B", "B+", "C-flip", "C-stale")


@pytest.fixture(autouse=True)
def _fresh_iss(monkeypatch):
    """Each test resolves the ISS library itself, fault-plane free."""
    monkeypatch.delenv("REPRO_NO_CC", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    native.clear_iss_state()
    yield
    faults.reset()
    native.clear_iss_state()


def _small_block(injector, block: int = 7):
    """Swap in a tiny noise block so short runs cross refills."""
    old = injector._stream
    injector._stream = EffectivePeriodStream(
        period_ps=old.period_ps, vdd_operating=old.vdd_operating,
        vdd_characterized=old.vdd_characterized,
        vdd_model=old._vdd_model, noise=old._noise, rng=old._rng,
        block=block)
    return injector


def make_injector(variant, alu, characterization, vdd_model, seed,
                  frequency_hz=None, block=None):
    """A fresh injector of one variant (None for ``"none"``)."""
    rng = np.random.default_rng(seed)
    limit = alu.sta_limit_hz(0.7)
    if variant == "none":
        return None
    if variant == "null":
        return NullInjector()
    if variant == "A":
        return FixedProbabilityInjector(0.01, rng)
    if variant == "B":
        return StaInjector(alu, limit * 1.03)
    if variant == "B+":
        injector = StaNoiseInjector(alu, frequency_hz or limit * 0.99,
                                    NOISE, vdd_model=vdd_model, rng=rng)
    else:
        injector = StatisticalInjector(
            characterization, frequency_hz or 1.15e9, NOISE,
            vdd_model=vdd_model, rng=rng,
            semantics="stale" if variant == "C-stale" else "flip")
    return _small_block(injector, block) if block else injector


def observe(cpu, result):
    """Everything a run leaves behind that the two paths must share."""
    injector = cpu.injector
    record = {
        "result": result,
        "regs": list(cpu.regs),
        "memory": bytes(cpu.dmem._bytes),
        "flag": cpu._state.flag,
        "fi_window": cpu._state.fi_window,
    }
    if injector is not None:
        record["counters"] = (injector.alu_cycles, injector.faulty_cycles,
                              injector.fault_count,
                              injector._last_latched)
        stream = getattr(injector, "_stream", None)
        rng = getattr(injector, "_rng", None) or getattr(stream, "_rng",
                                                          None)
        if rng is not None:
            record["rng"] = rng.bit_generator.state
        if stream is not None and stream._constant is None:
            record["cursor"] = stream._cursor
            record["values"] = stream._values.tobytes()
    return record


def run_both(monkeypatch, build, entry, max_cycles=None, runs=1):
    """Run ``build()`` -> (program, injector) on both ISS paths."""
    observed = {}
    for path in ("python", "native"):
        with monkeypatch.context() as patch:
            if path == "python":
                patch.setenv("REPRO_NO_CC", "1")
            program, injector, config = build()
            cpu = Cpu(program, config=config, injector=injector)
            records = []
            for _ in range(runs):
                result = cpu.run(entry, max_cycles=max_cycles)
                records.append(observe(cpu, result))
            used_native = cpu.__dict__.get("_native_image") is not None
            assert used_native == (path == "native")
            observed[path] = records
    assert observed["native"] == observed["python"]
    return observed["native"]


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------

REGS = [f"r{i}" for i in range(1, 10)]
ALU_RRR = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl", "sra")
SF_KINDS = ("eq", "ne", "gtu", "geu", "ltu", "leu", "gts", "ges", "lts",
            "les")

reg = st.sampled_from(REGS)
any_reg = st.sampled_from(["r0"] + REGS)
simm16 = st.integers(-32768, 32767)
uimm16 = st.integers(0, 0xFFFF)


def _instruction(n_labels: int):
    label = st.integers(0, n_labels - 1).map(lambda i: f"L{i}")
    offset = st.sampled_from([-8, -4, -2, -1, 0, 1, 2, 3, 4, 5, 6, 8, 60,
                              64, 4096])
    base = st.sampled_from(["r10", "r10", "r11", "r11"] + REGS)
    return st.one_of(
        st.builds("l.{} {}, {}, {}".format,
                  st.sampled_from(ALU_RRR), any_reg, reg, reg),
        st.builds("l.{} {}, {}, {}".format,
                  st.sampled_from(("addi", "muli", "xori")), any_reg,
                  reg, simm16),
        st.builds("l.{} {}, {}, {}".format,
                  st.sampled_from(("andi", "ori")), any_reg, reg, uimm16),
        st.builds("l.{} {}, {}, {}".format,
                  st.sampled_from(("slli", "srli", "srai")), any_reg, reg,
                  st.integers(0, 31)),
        st.builds("l.sf{} {}, {}".format,
                  st.sampled_from(SF_KINDS), reg, reg),
        st.builds("l.sf{}i {}, {}".format,
                  st.sampled_from(SF_KINDS), reg, simm16),
        st.builds("l.movhi {}, {}".format, any_reg, uimm16),
        st.builds("l.{} {}, {}({})".format,
                  st.sampled_from(("lwz", "lhz", "lbz")), any_reg, offset,
                  base),
        st.builds("l.{} {}({}), {}".format,
                  st.sampled_from(("sw", "sh", "sb")), offset, base, reg),
        st.builds("l.{} {}".format,
                  st.sampled_from(("bf", "bnf", "j", "jal")), label),
        st.builds("l.{} {}".format, st.sampled_from(("jr", "jalr")), reg),
        st.sampled_from(["l.nop 0x2", "l.nop 0x10", "l.nop 0x11",
                         "l.nop 0x0", "l.j bad"]),
    )


@st.composite
def programs(draw):
    """Assembly source of one random program (entry ``start``)."""
    n = draw(st.integers(4, 28))
    body = draw(st.lists(_instruction(n), min_size=n, max_size=n))
    if draw(st.booleans()):
        spot = draw(st.integers(0, n - 1))
        body[spot] = f"l.j L{spot}"  # an unconditional self-jump
    inits = draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=9,
                          max_size=9))
    data = draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=8,
                         max_size=8))
    # r10: the data base; r11: the last word of the 4 KB data memory.
    lines = ["start:", "    l.movhi r10, 1", "    l.ori r11, r10, 0xffc"]
    for name, value in zip(REGS, inits):
        if draw(st.booleans()):
            value = 0x10000 + 4 * draw(st.integers(0, 7))
        lines += [f"    l.movhi {name}, {value >> 16}",
                  f"    l.ori {name}, {name}, {value & 0xFFFF}"]
    if draw(st.booleans()):
        lines.append("    l.nop 0x10")
    lines += [f"L{i}: {text}" for i, text in enumerate(body)]
    lines += ["    l.nop 0x2", "    l.nop 0x1",
              "bad: .word 0xfc000000",
              ".org 0x10000", "data:"]
    lines += [f"    .word {value}" for value in data]
    return "\n".join(lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(source=programs(), variant=st.sampled_from(VARIANTS),
       seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([5, 40, 300]),
       runs=st.integers(1, 2))
def test_generated_programs_agree(monkeypatch, alu, characterization,
                                  vdd_model, source, variant, seed,
                                  budget, runs):
    config = MachineConfig(dmem_size=0x1000)
    program = assemble(source)

    def build():
        return program, make_injector(variant, alu, characterization,
                                      vdd_model, seed, block=7), config
    run_both(monkeypatch, build, "start", max_cycles=budget, runs=runs)


def test_edge_programs_cover_every_abort(monkeypatch):
    """Hand-written programs hit each abort reason on both paths."""
    cases = {
        "misaligned-access": "l.movhi r1, 1\nl.lwz r2, 2(r1)",
        "memory-fault": "l.sw 0(r0), r1",
        "pc-out-of-range": "l.addi r1, r0, 2\nl.jr r1\nl.nop",
        "infinite-loop": "loop: l.j loop\nl.nop",
        "illegal-instruction": "l.j bad\nl.nop",
    }
    # The last byte/half/word of memory, and one past it.
    top = "l.movhi r1, 1\nl.ori r1, r1, 0xffc\n"
    for load, last in (("lbz", 3), ("lhz", 2), ("lwz", 0)):
        cases[f"{load}-last"] = top + f"l.{load} r2, {last}(r1)"
        cases[f"{load}-past"] = top + f"l.{load} r2, 4(r1)"
    for store, last in (("sb", 3), ("sh", 2), ("sw", 0)):
        cases[f"{store}-last"] = top + f"l.{store} {last}(r1), r1"
        cases[f"{store}-past"] = top + f"l.{store} 4(r1), r1"
    config = MachineConfig(dmem_size=0x1000)
    for reason, body in cases.items():
        source = (f"start:\n{body}\nl.nop 0x1\n"
                  f"bad: .word 0xfc000000\n")
        program = assemble(source)
        records = run_both(monkeypatch, lambda: (program, None, config),
                           "start", max_cycles=50)
        expected = {"last": None, "past": "memory-fault"}.get(
            reason.rpartition("-")[2], reason)
        assert records[0]["result"].abort_reason == expected, source
    delay = assemble("start:\nl.j a\nl.j a\na: l.nop 0x1\n")
    records = run_both(monkeypatch, lambda: (delay, None, MachineConfig()),
                       "start")
    assert records[0]["result"].abort_reason == "illegal-instruction"
    budget = assemble("start:\nloop: l.bnf loop\nl.nop\n")
    records = run_both(monkeypatch,
                       lambda: (budget, None, MachineConfig()), "start",
                       max_cycles=33)
    assert records[0]["result"].abort_reason == "infinite-loop"
    assert records[0]["result"].cycles == 33


# ---------------------------------------------------------------------------
# Benchmark kernels under every injector variant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_kernels_agree_under_every_injector(monkeypatch, alu,
                                            characterization, vdd_model,
                                            name):
    kernel = quick_kernel(name)
    faulted = {}
    for variant in VARIANTS:
        frequency = 0.76e9 if variant.startswith("C") else None

        def build():
            return kernel.program, make_injector(
                variant, alu, characterization, vdd_model, 11,
                frequency_hz=frequency), MachineConfig()
        records = run_both(monkeypatch, build, kernel.entry,
                           max_cycles=400_000, runs=2)
        faulted[variant] = sum(record["result"].fault_count
                               for record in records)
    # The frequencies do inject.
    assert all(faulted[variant] for variant in ("A", "B", "C-flip",
                                                "C-stale")), faulted


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("n_jobs", [None, 1])
def test_run_point_trials_agree(monkeypatch, characterization, vdd_model,
                                name, n_jobs):
    kernel = quick_kernel(name)

    def factory(frequency, rng):
        return StatisticalInjector(characterization, frequency, NOISE,
                                   vdd_model=vdd_model, rng=rng)
    points = {}
    for path in ("python", "native"):
        with monkeypatch.context() as patch:
            if path == "python":
                patch.setenv("REPRO_NO_CC", "1")
            points[path] = run_point(kernel, factory, 20, seed=5,
                                     n_jobs=n_jobs, injector_args=(0.75e9,))
    assert points["native"].trials == points["python"].trials
    assert sum(t.fault_count for t in points["native"].trials) > 0


# ---------------------------------------------------------------------------
# PCG64 stream
# ---------------------------------------------------------------------------

def test_pcg64_doubles_match_numpy_across_handoffs():
    """Kernel doubles equal ``rng.random`` through Python->C->Python
    handoffs, including after a ``normal()`` draw (a noise refill)."""
    kernels = native.load_kernels(native.ISS_LIBRARY)
    draw = kernels._lib.repro_iss_random
    draw.restype = None
    draw.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    rng = np.random.default_rng(2016)
    twin = np.random.default_rng(2016)
    state = native_iss.IssState()
    for count in (1, 5, 64, 3):
        assert rng.random(2).tolist() == twin.random(2).tolist()
        rng.normal(0.0, 1.0, 9)
        twin.normal(0.0, 1.0, 9)
        saved = native_iss._rng_in(state, rng)
        out = np.zeros(count)
        draw(ctypes.addressof(state), out.ctypes.data, count)
        native_iss._rng_out(state, rng, saved)
        assert out.tolist() == twin.random(count).tolist()
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# Fallbacks
# ---------------------------------------------------------------------------

def _fig6_unit():
    from repro.campaign import plan_campaign
    from repro.experiments.context import ExperimentContext
    from repro.experiments.scale import Scale
    scale = Scale(name="tiny", trials=3, freq_points=3,
                  kernel_scale="quick", char_cycles=128,
                  fig4_samples=128, voltage_points=3)
    ctx = ExperimentContext.create(scale, seed=2016)
    plan = plan_campaign("fig6", ctx, 2016)
    return [unit for unit in plan.units
            if unit.key["kind"] == "mc_point"][-1]


@pytest.mark.parametrize("schedule", [
    "native.compile:fail@after=1",
    "native.dlopen:corrupt@after=1;native.compile:fail@after=2",
])
def test_latched_build_failure_runs_python_iss(monkeypatch, tmp_path,
                                               capsys, schedule):
    unit = _fig6_unit()
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "clean"))
    truth = unit.compute()
    assert native.iss_failure() is None
    native.clear_iss_state()
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "faulted"))
    faults.configure(schedule)
    assert repr(unit.compute()) == repr(truth)
    assert "injected fail fault at native.compile" in native.iss_failure()
    assert native_iss.fallback_reason(
        Cpu(quick_kernel("median").program)) == "build-failed"
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "iss-kernel" in out and "DEGRADED" in out


def test_corrupt_library_heals_and_stays_native(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    faults.configure("native.dlopen:corrupt@after=1")
    assert native.iss_unavailable_reason() is None
    assert list(tmp_path.glob("isskern-*.corrupt"))


def test_overriding_injector_takes_python_path(monkeypatch, alu,
                                               characterization,
                                               vdd_model):
    calls = []

    class Watched(StatisticalInjector):
        def on_alu(self, mnemonic, result):
            calls.append(mnemonic)
            return super().on_alu(mnemonic, result)
    kernel = quick_kernel("median")
    injector = Watched(characterization, 0.76e9, NOISE,
                       vdd_model=vdd_model, rng=np.random.default_rng(3))
    cpu = Cpu(kernel.program, injector=injector)
    assert native_iss.fallback_reason(cpu) == "injector"
    result = cpu.run(kernel.entry)
    assert len(calls) == result.alu_cycles > 0
    assert "_native_image" not in cpu.__dict__


@pytest.mark.parametrize("kwargs", [{"profile": True},
                                    {"trace_hook": Tracer()}])
def test_profile_and_trace_take_python_path(kwargs):
    kernel = quick_kernel("median")
    cpu = Cpu(kernel.program, **kwargs)
    assert native_iss.fallback_reason(cpu) in ("profile", "trace-hook")
    result = cpu.run(kernel.entry)
    assert result.finished and "_native_image" not in cpu.__dict__
    # The exit hook is fetched (and counted) but never retires.
    if "profile" in kwargs:
        assert sum(result.class_counts.values()) == result.cycles + 1
    else:
        assert len(kwargs["trace_hook"].entries) == result.cycles + 1


def test_joint_correlation_takes_python_path(characterization, vdd_model):
    injector = StatisticalInjector(characterization, 0.76e9, NOISE,
                                   vdd_model=vdd_model,
                                   correlation="joint")
    cpu = Cpu(quick_kernel("median").program, injector=injector)
    assert native_iss.fallback_reason(cpu) == "joint"


def test_runs_are_counted_per_path(monkeypatch):
    from repro import obs
    counted = []
    monkeypatch.setattr(obs, "counter",
                        lambda name, value=1: counted.append(name))
    kernel = quick_kernel("median")
    Cpu(kernel.program).run(kernel.entry)
    monkeypatch.setenv("REPRO_NO_CC", "1")
    Cpu(kernel.program).run(kernel.entry)
    assert counted == ["iss.native_runs", "iss.python_runs",
                       "iss.python_runs[masked]"]
