"""Dispatch of :meth:`Cpu.run` onto the native ISS + FI kernel.

The C kernel (:mod:`repro.native.iss_source`) executes the same
instruction semantics as the Python run loop in :mod:`repro.sim.cpu`,
fused with the ALU hook of the exactly-typed built-in injectors.  It is
not an engine choice: wherever it can run it gives the same registers,
memory, counters and random-stream position as the Python ISS, so
:meth:`Cpu.run` uses it whenever :func:`fallback_reason` says nothing
stands in the way.  The Python ISS stays the executable spec and the
fallback for everything the kernel does not cover:

* a masked or missing toolchain, or a compile/dlopen failure latched
  for the rest of the process (``repro engines`` shows the reason);
* ``profile`` and ``trace_hook`` CPUs;
* model C in ``joint`` correlation mode, and any injector that is not
  exactly one of the built-in types (subclasses, instance overrides).

This module owns the Python half of the handshake: it encodes decoded
words into the kernel's instruction records, mirrors the injector's
tables and random state into the run-state struct, services the
kernel's returns (decode, noise refill, sampler build, report) and
writes every piece of state back when the run ends.
"""

from __future__ import annotations

import ctypes
import itertools

import numpy as np

from repro import native, obs
from repro.fi import (
    FixedProbabilityInjector,
    NullInjector,
    StaInjector,
    StaNoiseInjector,
    StatisticalInjector,
)
from repro.fi.sampling import BitSampler
from repro.isa.encoding import decode
from repro.isa.instructions import ALU_MNEMONICS, NOP_EXIT, NOP_REPORT
from repro.native import iss_source as K
from repro.sim.exceptions import (
    IllegalInstruction,
    InfiniteLoop,
    MemoryFault,
    MisalignedAccess,
    PcOutOfRange,
)
from repro.sim.machine import NOP_FI_OFF, NOP_FI_ON

MASK32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1

_i32, _i64, _u64, _ptr = (ctypes.c_int32, ctypes.c_int64, ctypes.c_uint64,
                          ctypes.c_void_p)


class IssState(ctypes.Structure):
    """Mirror of the kernel's ``iss_state`` struct (same field order)."""

    _fields_ = [
        ("regs", ctypes.c_uint32 * 32),
        ("pc", _i64), ("pending", _i64), ("cycles", _i64),
        ("kernel_cycles", _i64), ("budget", _i64),
        ("flag", _i32), ("fi_window", _i32), ("report_ack", _i32),
        ("hook", _i32),
        ("code", _ptr), ("n_code", _i64),
        ("mem", _ptr), ("mem_base", _i64), ("mem_size", _i64),
        ("fi_kind", _i32), ("stale", _i32),
        ("rng", _u64 * 4),
        ("alu_cycles", _i64), ("faulty_cycles", _i64),
        ("fault_count", _i64),
        ("last_latched", _u64), ("const_mask", _u64),
        ("values", _ptr), ("block", _i64), ("cursor", _i64),
        ("const_stream", _i32), ("n_sorted", _i32),
        ("constant", ctypes.c_double),
        ("sorted_crit", _ptr), ("masks_by_count", _ptr),
        ("grid_periods", _ptr), ("grid_len", _ptr),
        ("grid_origin", _ptr), ("grid_inv_step", _ptr),
        ("grid_rows", _ptr),
        ("pool_p_any", _ptr), ("pool_n", _ptr),
        ("pool_first_cdf", _ptr), ("pool_p_bits", _ptr),
        ("req_index", _i32), ("req_row", _i32),
    ]


#: Terminal kernel statuses -> the exception the Python loop raises.
_ABORTS = {
    K.ST_ILLEGAL: IllegalInstruction,
    K.ST_PC_RANGE: PcOutOfRange,
    K.ST_MEMORY: MemoryFault,
    K.ST_MISALIGNED: MisalignedAccess,
    K.ST_INFINITE: InfiniteLoop,
}

_FI_INDEX = {mnemonic: index for index, mnemonic in enumerate(ALU_MNEMONICS)}

#: ALU mnemonic -> (kernel op, immediate mask or None for rB).
_ALU_RULES = {
    "l.add": ("add", None), "l.addi": ("add", MASK32),
    "l.sub": ("sub", None),
    "l.mul": ("mul", None), "l.muli": ("mul", MASK32),
    "l.and": ("and", None), "l.andi": ("and", 0xFFFF),
    "l.or": ("or", None), "l.ori": ("or", 0xFFFF),
    "l.xor": ("xor", None), "l.xori": ("xor", MASK32),
    "l.sll": ("sll", None), "l.slli": ("sll", 31),
    "l.srl": ("srl", None), "l.srli": ("srl", 31),
    "l.sra": ("sra", None), "l.srai": ("sra", 31),
}

_SIMPLE_OPS = {
    "l.lwz": K.OP_LWZ, "l.lhz": K.OP_LHZ, "l.lbz": K.OP_LBZ,
    "l.sw": K.OP_SW, "l.sh": K.OP_SH, "l.sb": K.OP_SB,
    "l.bf": K.OP_BF, "l.bnf": K.OP_BNF,
    "l.jr": K.OP_JR, "l.jalr": K.OP_JALR,
}

_NOP_OPS = {NOP_EXIT: K.OP_EXIT, NOP_REPORT: K.OP_REPORT,
            NOP_FI_ON: K.OP_FI_ON, NOP_FI_OFF: K.OP_FI_OFF}


def _i32_bits(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


def encode(decoded, address: int, config) -> tuple[int, int, int, int]:
    """The kernel's instruction record for one decoded word.

    Mirrors :meth:`Cpu._compile_body`: immediates are pre-masked the
    way the Python closures mask them, and jump targets are resolved
    to word indices.
    """
    mnemonic = decoded.spec.mnemonic
    rd, ra, rb, imm = decoded.rd, decoded.ra, decoded.rb, decoded.imm
    fields = rd | ra << 8 | rb << 16
    const = 0
    aux = 0
    if mnemonic in _ALU_RULES:
        kind, imm_mask = _ALU_RULES[mnemonic]
        if imm_mask is not None:
            fields |= 1 << 24
            const = imm & imm_mask
        fields |= _FI_INDEX[mnemonic] << 25
        op, aux = K.OP_ALU, K.ALU_OPS.index(kind)
    elif decoded.spec.is_compare:
        immediate = mnemonic.endswith("i")
        kind = mnemonic[4:-1] if immediate else mnemonic[4:]
        if immediate:
            fields |= 1 << 24
            const = imm & MASK32
        op, aux = K.OP_SF, K.SF_KINDS.index(kind)
    elif mnemonic in ("l.j", "l.jal"):
        target = address + 4 * imm
        aux = (target - config.imem_base) // 4
        if mnemonic == "l.jal":
            op, const = K.OP_JAL, (address + 8) & MASK32
        elif target == address and config.detect_self_jump:
            op = K.OP_SELF_JUMP
        else:
            op = K.OP_J
    elif mnemonic == "l.nop":
        op = _NOP_OPS.get(imm, K.OP_NOP)
    elif mnemonic == "l.movhi":
        op, const = K.OP_MOVHI, (imm << 16) & MASK32
    else:
        op = _SIMPLE_OPS[mnemonic]
        if op in (K.OP_BF, K.OP_BNF):
            aux = (address + 4 * imm - config.imem_base) // 4
        elif op in (K.OP_JR, K.OP_JALR):
            const, aux = (address + 8) & MASK32, config.imem_base
        else:
            const = imm & MASK32
    return op, fields, _i32_bits(const), aux


# ---------------------------------------------------------------------
# Injector mirrors
# ---------------------------------------------------------------------


class _SamplerPool:
    """Flat copies of :class:`~repro.fi.sampling.BitSampler` tables."""

    def __init__(self, capacity: int = 256):
        self.used = 0
        self._allocate(capacity)

    def _allocate(self, capacity: int) -> None:
        old = getattr(self, "p_any", None)
        width = K.SAMPLER_WIDTH
        p_any = np.zeros(capacity)
        n = np.zeros(capacity, dtype=np.int64)
        first_cdf = np.zeros((capacity, width))
        p_bits = np.zeros((capacity, width))
        if old is not None:
            used = self.used
            p_any[:used] = self.p_any[:used]
            n[:used] = self.n[:used]
            first_cdf[:used] = self.first_cdf[:used]
            p_bits[:used] = self.p_bits[:used]
        self.p_any, self.n = p_any, n
        self.first_cdf, self.p_bits = first_cdf, p_bits

    def add(self, sampler) -> int:
        if self.used == len(self.p_any):
            self._allocate(2 * len(self.p_any))
        slot = self.used
        size = sampler.p_bits.size
        self.p_any[slot] = sampler.p_any
        self.n[slot] = size
        self.first_cdf[slot, :size] = sampler.first_cdf
        self.p_bits[slot, :size] = sampler.p_bits
        self.used += 1
        return slot

    def bind(self, st: IssState) -> None:
        st.pool_p_any = self.p_any.ctypes.data
        st.pool_n = self.n.ctypes.data
        st.pool_first_cdf = self.first_cdf.ctypes.data
        st.pool_p_bits = self.p_bits.ctypes.data


class _GridTables:
    """Kernel view of one model-C :class:`~repro.timing.cdf.CdfGrid`.

    Cached on the grid itself: every injector of a characterization
    shares its grids, so the per-injector cost is one row-table copy.
    """

    def __init__(self, grid):
        periods = np.ascontiguousarray(grid.periods, dtype=np.float64)
        self.periods = periods
        self.supported = (grid.probs.shape[1] <= K.SAMPLER_WIDTH
                          and not np.any(np.diff(periods) < 0))
        self.origin = float(periods[0])
        self.inv_step = 0.0
        if len(periods) > 1 and periods[-1] > periods[0]:
            self.inv_step = (len(periods) - 1) / float(
                periods[-1] - periods[0])
        # A row whose endpoint probabilities are all zero needs no
        # sampler: the hook's p_any test fails without a draw.  (The
        # kernel therefore never asks for one, so the injector's
        # sampler cache may hold fewer entries than after a Python
        # run; no result depends on the cache.)
        rows = np.full(len(periods), K.NO_SAMPLER, dtype=np.int32)
        rows[~np.any(grid.probs, axis=1)] = K.INERT_ROW
        self.row_template = rows


def _grid_tables(grid) -> _GridTables:
    tables = grid.__dict__.get("_native_iss")
    if tables is None:
        tables = grid._native_iss = _GridTables(grid)
    return tables


class _FiPlan:
    """An injector's tables in kernel form (cached on the injector).

    Only model C's sampler table changes after construction; it grows
    as :meth:`sync` copies samplers the injector built in Python and
    as the kernel asks for new ones.
    """

    def __init__(self, injector, kind: int):
        self.kind = kind
        self.stream = getattr(injector, "_stream", None)
        self.rng = injector._rng if kind in (K.FI_A, K.FI_C) else (
            self.stream._rng if kind == K.FI_BPLUS else None)
        self.pool = _SamplerPool()
        self.const_mask = injector._mask if kind == K.FI_B else 0
        if kind == K.FI_A:
            self.pool.add(injector._sampler)
        if kind == K.FI_BPLUS:
            self.sorted_crit = np.asarray(injector._sorted_critical,
                                          dtype=np.float64)
            self.masks = np.asarray(injector._masks_by_count,
                                    dtype=np.uint64)
        if kind == K.FI_C:
            n_fi = len(ALU_MNEMONICS)
            self.periods = np.zeros(n_fi, dtype=np.int64)
            self.lens = np.zeros(n_fi, dtype=np.int64)
            self.origin = np.zeros(n_fi)
            self.inv_step = np.zeros(n_fi)
            self.rows_ptrs = np.zeros(n_fi, dtype=np.int64)
            self.row_tables: dict[int, np.ndarray] = {}
            for index, mnemonic in enumerate(ALU_MNEMONICS):
                tables = _grid_tables(injector._grids[mnemonic])
                rows = tables.row_template.copy()
                self.row_tables[index] = rows
                self.periods[index] = tables.periods.ctypes.data
                self.lens[index] = len(tables.periods)
                self.origin[index] = tables.origin
                self.inv_step[index] = tables.inv_step
                self.rows_ptrs[index] = rows.ctypes.data
            self.synced = 0

    def sync(self, injector) -> None:
        """Mirror samplers the injector built since the last sync."""
        samplers = injector._samplers
        if len(samplers) == self.synced:
            return
        for (mnemonic, row), sampler in itertools.islice(
                samplers.items(), self.synced, None):
            self.row_tables[_FI_INDEX[mnemonic]][row] = \
                self.pool.add(sampler)
        self.synced = len(samplers)

    def bind(self, st: IssState, injector) -> None:
        st.fi_kind = self.kind
        st.stale = injector.semantics == "stale"
        st.alu_cycles = injector.alu_cycles
        st.faulty_cycles = injector.faulty_cycles
        st.fault_count = injector.fault_count
        st.last_latched = injector._last_latched
        st.const_mask = self.const_mask
        self.pool.bind(st)
        stream = self.stream
        if stream is not None:
            if stream._constant is not None:
                st.const_stream = 1
                st.constant = stream._constant
            else:
                st.const_stream = 0
                st.values = stream._values.ctypes.data
                st.block = stream._block
                st.cursor = stream._cursor
        if self.kind == K.FI_BPLUS:
            st.sorted_crit = self.sorted_crit.ctypes.data
            st.masks_by_count = self.masks.ctypes.data
            st.n_sorted = len(self.sorted_crit)
        if self.kind == K.FI_C:
            self.sync(injector)
            st.grid_periods = self.periods.ctypes.data
            st.grid_len = self.lens.ctypes.data
            st.grid_origin = self.origin.ctypes.data
            st.grid_inv_step = self.inv_step.ctypes.data
            st.grid_rows = self.rows_ptrs.ctypes.data


def _rng_in(st: IssState, rng) -> dict:
    state = rng.bit_generator.state
    inner = state["state"]
    value, inc = inner["state"], inner["inc"]
    st.rng[0], st.rng[1] = value >> 64, value & _M64
    st.rng[2], st.rng[3] = inc >> 64, inc & _M64
    return state


def _rng_out(st: IssState, rng, state: dict) -> None:
    state["state"] = {"state": (st.rng[0] << 64) | st.rng[1],
                      "inc": (st.rng[2] << 64) | st.rng[3]}
    rng.bit_generator.state = state


# ---------------------------------------------------------------------
# Eligibility and the kernel handle
# ---------------------------------------------------------------------

#: The injector types the kernel models, by exact type.
_KINDS = {NullInjector: K.FI_NULL,
          FixedProbabilityInjector: K.FI_A,
          StaInjector: K.FI_B,
          StaNoiseInjector: K.FI_BPLUS,
          StatisticalInjector: K.FI_C}


def _fi_plan(injector):
    """The injector's kernel plan, or a fallback reason string."""
    plan = injector.__dict__.get("_native_fi")
    if plan is not None:
        return plan
    kind = _KINDS.get(type(injector))
    if kind is None or "on_alu" in vars(injector) \
            or "fault_mask" in vars(injector):
        return "injector"
    if kind == K.FI_C:
        if injector.correlation != "independent":
            return "joint"
        grids = injector._grids
        if not all(mnemonic in grids and _grid_tables(grids[mnemonic])
                   .supported for mnemonic in ALU_MNEMONICS):
            return "injector"
    if kind == K.FI_A and injector._sampler.p_bits.size > K.SAMPLER_WIDTH:
        return "injector"
    plan = _FiPlan(injector, kind)
    injector.__dict__["_native_fi"] = plan
    return plan


def fallback_reason(cpu) -> str | None:
    """Why ``cpu``'s next run takes the Python ISS (None: native).

    Configuration checks come first, so a CPU that cannot run natively
    never probes for, builds or loads the library.
    """
    if cpu.profile:
        return "profile"
    if cpu.trace_hook is not None:
        return "trace-hook"
    if native.masked_reason():
        return "masked"
    state = cpu._state
    injector = state.injector
    if injector is not None:
        plan = _fi_plan(injector)
        if isinstance(plan, str):
            return plan
        hook = state.hook
        if hook is not None and getattr(hook, "__self__", None) \
                is not injector:
            return "injector"
    elif state.hook is not None:
        return "injector"
    return native.iss_unavailable_reason()


# ---------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------


class NativeImage:
    """Per-CPU kernel image: instruction records plus run state."""

    def __init__(self, cpu):
        self.records = np.zeros((len(cpu._imem_words), 4), dtype=np.int32)
        self.state = IssState()
        self.address = ctypes.addressof(self.state)
        st = self.state
        st.code = self.records.ctypes.data
        st.n_code = len(self.records)
        st.mem_base = cpu.dmem.base
        st.mem_size = cpu.dmem.size


def execute(cpu, pc_index: int, budget: int) -> bool:
    """Run ``cpu`` natively from ``pc_index``; True when it exited.

    Aborts raise the same :class:`SimulationFault` subclasses the
    Python loop raises, after all state has been written back.
    """
    run = native.iss_kernels().run
    image = cpu.__dict__.get("_native_image")
    if image is None:
        image = cpu._native_image = NativeImage(cpu)
    st = image.state
    records = image.records
    state = cpu._state
    injector = state.injector
    st.regs[:] = cpu.regs
    st.pc = pc_index
    st.pending = -1
    st.cycles = cpu.cycles
    st.kernel_cycles = cpu.kernel_cycles
    st.budget = budget
    st.flag = state.flag
    st.fi_window = state.fi_window
    st.hook = state.hook is not None
    st.report_ack = 0
    plan = rng = rng_state = None
    if injector is None:
        st.fi_kind = K.FI_NONE
    else:
        plan = injector._native_fi
        plan.bind(st, injector)
        rng = plan.rng
        if rng is not None:
            rng_state = _rng_in(st, rng)
    memory = (ctypes.c_uint8 * cpu.dmem.size).from_buffer(cpu.dmem._bytes)
    st.mem = ctypes.addressof(memory)
    address = image.address
    try:
        while True:
            status = run(address)
            if status == K.ST_DECODE:
                # The Python closure is compiled too (raising the same
                # IllegalInstruction), so both paths share one
                # compiled-on-fetch text and a CPU may switch paths.
                index = st.pc
                if cpu._code[index] is None:
                    cpu._compile_at(index)
                records[index] = encode(
                    decode(cpu._imem_words[index]),
                    cpu.config.imem_base + 4 * index, cpu.config)
            elif status == K.ST_REFILL:
                stream = plan.stream
                _rng_out(st, rng, rng_state)
                stream._values = stream._refill()
                stream._cursor = 0
                rng_state = _rng_in(st, rng)
                st.values = stream._values.ctypes.data
                st.cursor = 0
            elif status == K.ST_SAMPLER:
                _build_sampler(injector, plan, st)
            elif status == K.ST_REPORT:
                cpu.reports.append(st.regs[3])
                st.report_ack = 1
            elif status == K.ST_EXIT:
                return True
            else:
                raise _ABORTS[status](f"native ISS status {status}")
    finally:
        del memory
        st.mem = None
        _write_back(cpu, st, plan, rng, rng_state)


def _build_sampler(injector, plan: _FiPlan, st: IssState) -> None:
    """Build the sampler the kernel asked for, as the Python hook would.

    The kernel only asks for rows without a slot, and :meth:`_FiPlan.
    bind` mirrored every sampler the injector had, so this one is new.
    """
    index, row = st.req_index, st.req_row
    mnemonic = ALU_MNEMONICS[index]
    sampler = BitSampler.from_probs(injector._grids[mnemonic].probs[row])
    injector._samplers[(mnemonic, row)] = sampler
    pool = plan.pool
    capacity = len(pool.p_any)
    plan.row_tables[index][row] = pool.add(sampler)
    plan.synced += 1
    if len(pool.p_any) != capacity:
        pool.bind(st)


def _write_back(cpu, st: IssState, plan, rng, rng_state) -> None:
    cpu.regs[:] = st.regs
    cpu.cycles = st.cycles
    cpu.kernel_cycles = st.kernel_cycles
    state = cpu._state
    state.flag = bool(st.flag)
    state.fi_window = bool(st.fi_window)
    injector = state.injector
    state.hook = injector.on_alu if st.hook else None
    if plan is None:
        return
    injector.alu_cycles = st.alu_cycles
    injector.faulty_cycles = st.faulty_cycles
    injector.fault_count = st.fault_count
    injector._last_latched = st.last_latched
    stream = plan.stream
    if stream is not None and stream._constant is None:
        stream._cursor = st.cursor
    if rng is not None:
        _rng_out(st, rng, rng_state)


def count_run(reason: str | None) -> None:
    """Telemetry: one ISS run on the native or the Python path."""
    if reason is None:
        obs.counter("iss.native_runs")
    else:
        obs.counter("iss.python_runs")
        obs.counter(f"iss.python_runs[{reason}]")
