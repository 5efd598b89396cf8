"""Cycle-accurate instruction set simulator for the OR1K-subset core.

The simulated micro-architecture mirrors the paper's case study: a
6-stage in-order pipeline that sustains one instruction per cycle,
including single-cycle 32-bit multiplies, fed by single-cycle
instruction/data SRAMs.  With IPC = 1 and no stall sources, the cycle
in which an instruction occupies the execute (EX) stage is simply its
retire index, so the simulator advances one instruction per cycle and
exposes the EX stage to the fault-injection framework at that point.

For speed, each instruction word is compiled on its first fetch into a
Python closure specialized on its decoded operands (jump targets
resolved to absolute indices, r0 writes elided, ...) and cached for
every later fetch.  The hot loop then only dispatches closures and
manages the branch delay slot.  Compiling lazily keeps construction
cost proportional to the program text: an image is 64 KB of mostly
zero padding below the data base, of which a kernel fetches only a
few dozen words.  An undecodable word therefore only aborts a run
that actually fetches it.

The closures share mutable run state (compare flag, FI window, active
hook, injector) through a small :class:`_RunState` object rather than
through the :class:`Cpu`, so no reference cycle ties a CPU to its own
code and a dropped CPU is freed by reference counting at once.

This Python ISS is the executable spec.  :meth:`Cpu.run` hands a run
to the native ISS + FI kernel (:mod:`repro.sim.native_iss`) whenever
that kernel can reproduce it bit for bit -- same registers, memory,
counters and random-stream position -- and runs the loop below
otherwise (no toolchain, ``profile``/``trace_hook``, an injector the
kernel does not model).  The kernel is not an engine preference:
``--engine`` does not select it, and no result depends on which path
ran; the ``iss.native_runs`` / ``iss.python_runs`` counters say which
did.

Fault injection contract: while the FI window is open (between the
``l.nop NOP_FI_ON`` / ``NOP_FI_OFF`` kernel markers) every FI-eligible
(ALU-class) instruction passes its 32-bit result through the injector's
``on_alu(mnemonic, result) -> result`` hook before write-back, modeling
timing faults captured in the EX-stage ALU endpoint flip-flops.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.encoding import Decoded, EncodingError, decode
from repro.isa.instructions import NOP_EXIT, NOP_REPORT
from repro.isa.program import Program
from repro.sim.exceptions import (
    IllegalInstruction,
    InfiniteLoop,
    MemoryFault,
    MisalignedAccess,
    PcOutOfRange,
)
from repro.sim.machine import MachineConfig, NOP_FI_OFF, NOP_FI_ON
from repro.sim import native_iss
from repro.sim.memory import DataMemory
from repro.sim.result import ExecutionResult

MASK32 = 0xFFFFFFFF
_SIGN_BIT = 0x80000000


class _Exit(Exception):
    """Internal: program reached the exit hook."""


def _signed(value: int) -> int:
    """Interpret a 32-bit value as signed."""
    return value - 0x100000000 if value & _SIGN_BIT else value


class _RunState:
    """Run state the compiled instruction closures read and write.

    ``flag`` is the compare flag, ``fi_window`` whether the FI window
    is open, ``hook`` the injector's ``on_alu`` while it is, and
    ``injector`` the armed fault injector.
    """

    __slots__ = ("flag", "hook", "fi_window", "injector")

    def __init__(self, injector) -> None:
        self.flag = False
        self.hook: Callable[[str, int], int] | None = None
        self.fi_window = False
        self.injector = injector


class Cpu:
    """The instruction set simulator.

    Args:
        program: assembled program image (instructions below the data
            base, initial data at/above it).
        config: machine configuration.
        injector: optional fault injector with an
            ``on_alu(mnemonic, result) -> result`` hook plus
            ``begin_run()`` and fault counters (see
            :class:`repro.fi.base.FaultInjector`).
        profile: when True, count retired instructions per timing class
            (slower; used for benchmark characterization, Table 1).
    """

    def __init__(self, program: Program, config: MachineConfig | None = None,
                 injector=None, profile: bool = False, trace_hook=None):
        self.config = config or MachineConfig()
        self.program = program
        self.profile = profile
        self.trace_hook = trace_hook
        self.regs: list[int] = [0] * 32
        self._state = _RunState(injector)
        self.dmem = DataMemory(self.config.dmem_base, self.config.dmem_size)
        self.reports: list[int] = []
        self.cycles = 0
        self.kernel_cycles = 0
        self._class_counts: dict[str, int] = {}
        self._code: list[Callable[[], int | None] | None] = []
        self._imem_words: list[int] = []
        self._load_program()
        # Snapshot the loaded data image once: reset() restores it
        # instead of re-splitting the program image, and the closures
        # compiled so far stay cached (the Monte-Carlo trial-reuse
        # fast path).
        self._dmem_image = self.dmem.snapshot()

    @property
    def injector(self):
        """The armed fault injector (``None`` runs fault-free)."""
        return self._state.injector

    @injector.setter
    def injector(self, injector) -> None:
        self._state.injector = injector

    # ------------------------------------------------------------------
    # Program loading and compilation on first fetch
    # ------------------------------------------------------------------

    def _load_program(self) -> None:
        """Split the image at the data base: text below, data above.

        Only the split happens here; instruction words are compiled
        when first fetched (:meth:`_compile_at`).
        """
        program = self.program
        words = program.words
        below = -(-(self.config.dmem_base - program.base_address) // 4)
        split = min(len(words), max(0, below))
        self._imem_words = words[:split]
        if split < len(words):
            self.dmem.write_words(program.base_address + 4 * split,
                                  words[split:])
        self._code = [None] * split

    def _compile_at(self, index: int) -> Callable[[], int | None]:
        """Compile and cache the instruction word at ``index``."""
        address = self.config.imem_base + 4 * index
        try:
            decoded = decode(self._imem_words[index])
        except EncodingError:
            raise IllegalInstruction(f"at {address:#x}") from None
        op = self._code[index] = self._compile(decoded, address)
        return op

    def reset(self) -> None:
        """Restore architectural state for a fresh run.

        Restores from the construction-time snapshot; the instruction
        closures compiled so far stay cached.  All state containers
        are mutated in place -- the compiled instruction closures hold
        references to ``regs``, ``reports``, ``dmem``,
        ``_class_counts`` and the run state, so rebinding any of them
        would silently disconnect the compiled code from the
        architectural state.
        """
        self.regs[:] = [0] * 32
        self.reports.clear()
        self.cycles = 0
        self.kernel_cycles = 0
        state = self._state
        state.flag = False
        state.fi_window = False
        state.hook = None
        self._class_counts.clear()
        self.dmem.restore(self._dmem_image)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: int | str = 0,
            max_cycles: int | None = None) -> ExecutionResult:
        """Execute from ``entry`` until exit or a fatal condition.

        Args:
            entry: byte address or symbol name to start at.
            max_cycles: overrides the configured cycle budget.

        Returns:
            An :class:`ExecutionResult`; fatal conditions are reported
            through ``finished=False`` / ``abort_reason`` rather than
            raised, since fault-injected runs fail routinely.
        """
        if isinstance(entry, str):
            entry = self.program.symbol(entry)
        budget = max_cycles if max_cycles is not None else \
            self.config.max_cycles
        if self.injector is not None:
            self.injector.begin_run()
        finished = False
        abort_reason: str | None = None
        exit_code: int | None = None
        fallback = native_iss.fallback_reason(self)
        native_iss.count_run(fallback)
        try:
            if fallback is not None:
                self._run_loop(entry, budget)
            elif native_iss.execute(self, self._entry_index(entry),
                                    budget):
                raise _Exit()
        except _Exit:
            finished = True
            exit_code = self.regs[3]
        except (IllegalInstruction, PcOutOfRange, MemoryFault,
                MisalignedAccess, InfiniteLoop) as fault:
            abort_reason = fault.reason
        injector = self.injector
        return ExecutionResult(
            finished=finished,
            abort_reason=abort_reason,
            cycles=self.cycles,
            kernel_cycles=self.kernel_cycles,
            fault_count=injector.fault_count if injector else 0,
            faulty_cycles=injector.faulty_cycles if injector else 0,
            alu_cycles=injector.alu_cycles if injector else 0,
            reports=list(self.reports),
            exit_code=exit_code,
            class_counts=dict(self._class_counts),
        )

    def _entry_index(self, entry: int) -> int:
        if entry % 4:
            raise PcOutOfRange(f"entry {entry:#x} not word aligned")
        return (entry - self.config.imem_base) // 4

    def _run_loop(self, entry: int, budget: int) -> None:
        pc_index = self._entry_index(entry)
        code = self._code
        state = self._state
        size = len(code)
        pending = -1
        cycles = self.cycles
        kernel_cycles = self.kernel_cycles
        try:
            while True:
                if cycles >= budget:
                    raise InfiniteLoop(
                        f"cycle budget of {budget} exhausted")
                if not 0 <= pc_index < size:
                    raise PcOutOfRange(
                        f"pc {self.config.imem_base + 4 * pc_index:#x}")
                op = code[pc_index]
                if op is None:
                    op = self._compile_at(pc_index)
                target = op()
                cycles += 1
                if state.fi_window:
                    kernel_cycles += 1
                if pending >= 0:
                    if target is not None:
                        raise IllegalInstruction("branch in delay slot")
                    pc_index = pending
                    pending = -1
                elif target is not None:
                    pending = target
                    pc_index += 1
                else:
                    pc_index += 1
        finally:
            self.cycles = cycles
            self.kernel_cycles = kernel_cycles

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------

    def _compile(self, decoded: Decoded,
                 address: int) -> Callable[[], int | None]:
        op = self._compile_body(decoded, address)
        if self.profile:
            counts = self._class_counts
            name = decoded.spec.timing_class.value
            inner = op

            def profiled():
                counts[name] = counts.get(name, 0) + 1
                return inner()
            op = profiled
        if self.trace_hook is not None:
            hook = self.trace_hook
            body = op

            def traced():
                hook(address, decoded)
                return body()
            op = traced
        return op

    def _compile_body(self, decoded: Decoded,
                      address: int) -> Callable[[], int | None]:
        spec = decoded.spec
        mnemonic = spec.mnemonic
        regs = self.regs
        dmem = self.dmem
        state = self._state
        rd, ra, rb, imm = decoded.rd, decoded.ra, decoded.rb, decoded.imm

        def write(value: int) -> None:
            if rd:
                regs[rd] = value & MASK32

        # --- ALU class: result passes through the FI hook ------------
        if spec.is_alu:
            compute = self._alu_compute(mnemonic, ra, rb, imm)
            if rd == 0:
                # Result discarded architecturally, but the instruction
                # still occupies EX and is still counted by the hook.
                def op_alu_r0():
                    hook = state.hook
                    result = compute()
                    if hook is not None:
                        hook(mnemonic, result)
                    return None
                return op_alu_r0

            def op_alu():
                hook = state.hook
                result = compute()
                if hook is not None:
                    result = hook(mnemonic, result)
                regs[rd] = result & MASK32
                return None
            return op_alu

        # --- control flow --------------------------------------------
        if mnemonic in ("l.j", "l.jal"):
            target = address + 4 * imm
            target_index = (target - self.config.imem_base) // 4
            if mnemonic == "l.j":
                if target == address and self.config.detect_self_jump:
                    def op_self_jump():
                        raise InfiniteLoop(
                            f"unconditional self-jump at {address:#x}")
                    return op_self_jump

                def op_j():
                    return target_index
                return op_j
            link = (address + 8) & MASK32

            def op_jal():
                regs[9] = link
                return target_index
            return op_jal
        if mnemonic in ("l.jr", "l.jalr"):
            imem_base = self.config.imem_base
            is_link = mnemonic == "l.jalr"
            link = (address + 8) & MASK32

            def op_jr():
                target = regs[rb]
                if target & 3:
                    raise PcOutOfRange(
                        f"jump register target {target:#x} misaligned")
                if is_link:
                    regs[9] = link
                return (target - imem_base) >> 2
            return op_jr
        if mnemonic in ("l.bf", "l.bnf"):
            target_index = (address + 4 * imm - self.config.imem_base) // 4
            wanted = mnemonic == "l.bf"

            def op_branch():
                if state.flag == wanted:
                    return target_index
                return None
            return op_branch
        if mnemonic == "l.nop":
            if imm == NOP_EXIT:
                def op_exit():
                    raise _Exit()
                return op_exit
            if imm == NOP_REPORT:
                reports = self.reports

                def op_report():
                    reports.append(regs[3])
                    return None
                return op_report
            if imm == NOP_FI_ON:
                def op_fi_on():
                    state.fi_window = True
                    if state.injector is not None:
                        state.hook = state.injector.on_alu
                    return None
                return op_fi_on
            if imm == NOP_FI_OFF:
                def op_fi_off():
                    state.fi_window = False
                    state.hook = None
                    return None
                return op_fi_off

            def op_nop():
                return None
            return op_nop
        if mnemonic == "l.movhi":
            value = (imm << 16) & MASK32

            def op_movhi():
                write(value)
                return None
            return op_movhi

        # --- memory ----------------------------------------------------
        if mnemonic == "l.lwz":
            def op_lwz():
                write(dmem.load_word((regs[ra] + imm) & MASK32))
                return None
            return op_lwz
        if mnemonic == "l.lhz":
            def op_lhz():
                write(dmem.load_half((regs[ra] + imm) & MASK32))
                return None
            return op_lhz
        if mnemonic == "l.lbz":
            def op_lbz():
                write(dmem.load_byte((regs[ra] + imm) & MASK32))
                return None
            return op_lbz
        if mnemonic == "l.sw":
            def op_sw():
                dmem.store_word((regs[ra] + imm) & MASK32, regs[rb])
                return None
            return op_sw
        if mnemonic == "l.sh":
            def op_sh():
                dmem.store_half((regs[ra] + imm) & MASK32, regs[rb])
                return None
            return op_sh
        if mnemonic == "l.sb":
            def op_sb():
                dmem.store_byte((regs[ra] + imm) & MASK32, regs[rb])
                return None
            return op_sb

        # --- set-flag compares ------------------------------------------
        if spec.is_compare:
            return self._compile_compare(mnemonic, ra, rb, imm)

        raise AssertionError(
            f"no compilation rule for {mnemonic}")  # pragma: no cover

    def _alu_compute(self, mnemonic: str, ra: int, rb: int,
                     imm: int) -> Callable[[], int]:
        """Build the pure computation closure for an ALU instruction."""
        regs = self.regs
        if mnemonic == "l.add":
            return lambda: (regs[ra] + regs[rb]) & MASK32
        if mnemonic == "l.addi":
            return lambda: (regs[ra] + imm) & MASK32
        if mnemonic == "l.sub":
            return lambda: (regs[ra] - regs[rb]) & MASK32
        if mnemonic == "l.mul":
            return lambda: (_signed(regs[ra]) * _signed(regs[rb])) & MASK32
        if mnemonic == "l.muli":
            return lambda: (_signed(regs[ra]) * imm) & MASK32
        if mnemonic == "l.and":
            return lambda: regs[ra] & regs[rb]
        if mnemonic == "l.andi":
            return lambda: regs[ra] & (imm & 0xFFFF)
        if mnemonic == "l.or":
            return lambda: regs[ra] | regs[rb]
        if mnemonic == "l.ori":
            return lambda: regs[ra] | (imm & 0xFFFF)
        if mnemonic == "l.xor":
            return lambda: regs[ra] ^ regs[rb]
        if mnemonic == "l.xori":
            return lambda: (regs[ra] ^ imm) & MASK32
        if mnemonic == "l.sll":
            return lambda: (regs[ra] << (regs[rb] & 31)) & MASK32
        if mnemonic == "l.slli":
            shift = imm & 31
            return lambda: (regs[ra] << shift) & MASK32
        if mnemonic == "l.srl":
            return lambda: regs[ra] >> (regs[rb] & 31)
        if mnemonic == "l.srli":
            shift = imm & 31
            return lambda: regs[ra] >> shift
        if mnemonic == "l.sra":
            return lambda: (_signed(regs[ra]) >> (regs[rb] & 31)) & MASK32
        if mnemonic == "l.srai":
            shift = imm & 31
            return lambda: (_signed(regs[ra]) >> shift) & MASK32
        raise AssertionError(
            f"no ALU rule for {mnemonic}")  # pragma: no cover

    def _compile_compare(self, mnemonic: str, ra: int, rb: int,
                         imm: int) -> Callable[[], None]:
        regs = self.regs
        state = self._state
        immediate = mnemonic.endswith("i")
        kind = mnemonic[4:-1] if immediate else mnemonic[4:]

        def operands_unsigned() -> tuple[int, int]:
            if immediate:
                return regs[ra], imm & MASK32
            return regs[ra], regs[rb]

        def operands_signed() -> tuple[int, int]:
            if immediate:
                return _signed(regs[ra]), imm
            return _signed(regs[ra]), _signed(regs[rb])

        comparators = {
            "eq": (operands_unsigned, lambda a, b: a == b),
            "ne": (operands_unsigned, lambda a, b: a != b),
            "gtu": (operands_unsigned, lambda a, b: a > b),
            "geu": (operands_unsigned, lambda a, b: a >= b),
            "ltu": (operands_unsigned, lambda a, b: a < b),
            "leu": (operands_unsigned, lambda a, b: a <= b),
            "gts": (operands_signed, lambda a, b: a > b),
            "ges": (operands_signed, lambda a, b: a >= b),
            "lts": (operands_signed, lambda a, b: a < b),
            "les": (operands_signed, lambda a, b: a <= b),
        }
        get_operands, test = comparators[kind]

        def op_compare():
            a, b = get_operands()
            state.flag = test(a, b)
            return None
        return op_compare
