"""C source of the native instruction-set simulator and FI kernel.

One C function, ``repro_iss_run``, executes the OR1K subset exactly as
:class:`repro.sim.cpu.Cpu`'s Python run loop does, fused with the
per-ALU-op hook of the built-in fault injectors (models none/null, A,
B, B+ and C ``independent``, each with ``flip`` or ``stale``
semantics).  The Python ISS is the executable spec; this kernel is
bit-exact against it by construction:

* **Decoding stays in Python.**  Instruction records start out zero
  (``OP_UNDECODED``); fetching one returns ``ST_DECODE`` and Python
  fills it from :func:`repro.isa.encoding.decode`, so an illegal word
  still faults only when fetched.
* **Random draws are numpy's.**  The kernel advances numpy's ``PCG64``
  (128-bit LCG, XSL-RR output) itself and forms doubles as
  ``(next64 >> 11) * 2**-53`` -- what ``Generator.random`` does.  The
  state travels in and out through the run-state struct.
* **Everything else returns to Python before the instruction runs**,
  having consumed nothing: a noise-block refill (``ST_REFILL``), a
  model-C sampler not built yet (``ST_SAMPLER``) and a report hook
  (``ST_REPORT``).  Python does the work and calls again; the kernel
  resumes at the same instruction.

Every field of the run-state struct is mirrored by
:class:`repro.sim.native_iss.IssState`; the two must change together
(``ISS_ABI`` is part of the source text, so it rotates the cache key).
"""

from __future__ import annotations

#: Bumped whenever the run-state layout or the status codes change.
ISS_ABI = 1

#: Return codes of ``repro_iss_run``.  The first six end a run and map
#: onto :class:`~repro.sim.exceptions.SimulationFault` reason tags.
ST_EXIT = 0
ST_ILLEGAL = 1
ST_PC_RANGE = 2
ST_MEMORY = 3
ST_MISALIGNED = 4
ST_INFINITE = 5
ST_DECODE = 6
ST_REFILL = 7
ST_SAMPLER = 8
ST_REPORT = 9

#: Instruction record opcodes (``insn[0]``).  ALU and compare records
#: carry their operation in ``insn[3]``.
OP_UNDECODED = 0
OP_ALU = 1
OP_SF = 2
OP_J = 3
OP_JAL = 4
OP_SELF_JUMP = 5
OP_JR = 6
OP_JALR = 7
OP_BF = 8
OP_BNF = 9
OP_NOP = 10
OP_EXIT = 11
OP_REPORT = 12
OP_FI_ON = 13
OP_FI_OFF = 14
OP_MOVHI = 15
OP_LWZ = 16
OP_LHZ = 17
OP_LBZ = 18
OP_SW = 19
OP_SH = 20
OP_SB = 21

#: ALU operations (``insn[3]`` of an ``OP_ALU`` record).
ALU_OPS = ("add", "sub", "mul", "and", "or", "xor", "sll", "srl", "sra")
#: Compare kinds (``insn[3]`` of an ``OP_SF`` record).
SF_KINDS = ("eq", "ne", "gtu", "geu", "ltu", "leu", "gts", "ges", "lts",
            "les")

#: Fault-injector kinds of the run state (``fi_kind``).
FI_NONE = 0
FI_NULL = 1
FI_A = 2
FI_B = 3
FI_BPLUS = 4
FI_C = 5

#: Doubles per sampler slot in the sampler pool (endpoint capacity).
SAMPLER_WIDTH = 64

#: Model-C row-table entries that are not sampler slots: the sampler
#: is not built yet, or the row is inert (every endpoint probability
#: is zero, so the Python hook returns no fault and draws nothing).
NO_SAMPLER = -1
INERT_ROW = -2

_SOURCE = r"""
/* Native OR1K-subset ISS fused with the built-in FI models.
 * Generated by repro.native.iss_source (ISS ABI %(abi)d).
 *
 * Instruction record (4 x int32 per text word):
 *   [0] opcode (0 = not decoded yet)
 *   [1] rd | ra << 8 | rb << 16 | use_imm << 24 | fi_index << 25
 *   [2] constant: immediate operand, link address or load/store offset
 *   [3] ALU op / compare kind, or the jump/branch target word index
 */
#include <stdint.h>

typedef unsigned __int128 u128;

typedef struct {
    uint32_t regs[32];
    int64_t pc;
    int64_t pending;
    int64_t cycles;
    int64_t kernel_cycles;
    int64_t budget;
    int32_t flag;
    int32_t fi_window;
    int32_t report_ack;
    int32_t hook;
    const int32_t *code;
    int64_t n_code;
    uint8_t *mem;
    int64_t mem_base;
    int64_t mem_size;
    /* fault injector */
    int32_t fi_kind;
    int32_t stale;
    uint64_t rng[4];              /* state hi, state lo, inc hi, inc lo */
    int64_t alu_cycles;
    int64_t faulty_cycles;
    int64_t fault_count;
    uint64_t last_latched;
    uint64_t const_mask;          /* model B */
    const double *values;         /* noise stream block (B+, C) */
    int64_t block;
    int64_t cursor;
    int32_t const_stream;
    int32_t n_sorted;
    double constant;
    const double *sorted_crit;    /* model B+ */
    const uint64_t *masks_by_count;
    const int64_t *grid_periods;  /* model C, per FI index: double* */
    const int64_t *grid_len;
    const double *grid_origin;    /* periods[0] and 1 / step: a guess */
    const double *grid_inv_step;  /* the exact search then corrects */
    const int64_t *grid_rows;     /* per FI index: int32* row -> slot */
    const double *pool_p_any;
    const int64_t *pool_n;
    const double *pool_first_cdf;
    const double *pool_p_bits;
    int32_t req_index;
    int32_t req_row;
} iss_state;

int repro_iss_abi(void) { return %(abi)d; }

#define PCG_MULT ((((u128)0x2360ED051FC65DA4ULL) << 64) \
                  | (u128)0x4385DF649FCCF645ULL)

static inline double next_double(iss_state *st) {
    u128 s = (((u128)st->rng[0]) << 64) | st->rng[1];
    u128 inc = (((u128)st->rng[2]) << 64) | st->rng[3];
    s = s * PCG_MULT + inc;
    st->rng[0] = (uint64_t)(s >> 64);
    st->rng[1] = (uint64_t)s;
    uint64_t x = st->rng[0] ^ st->rng[1];
    unsigned rot = (unsigned)(s >> 122);
    uint64_t out = (x >> rot) | (x << ((64u - rot) & 63u));
    return (double)(out >> 11) * (1.0 / 9007199254740992.0);
}

/* n doubles of Generator.random() from the state's stream (a probe
 * for the differential tests; the run loop draws inline). */
void repro_iss_random(iss_state *st, double *out, int64_t n) {
    for (int64_t i = 0; i < n; i++)
        out[i] = next_double(st);
}

/* BitSampler: the any-endpoint draw, then sample_mask. */
static uint64_t sample(iss_state *st, int64_t slot) {
    double p_any = st->pool_p_any[slot];
    if (p_any <= 0.0 || next_double(st) >= p_any)
        return 0;
    int64_t n = st->pool_n[slot];
    const double *cdf = st->pool_first_cdf + slot * %(width)d;
    const double *p_bits = st->pool_p_bits + slot * %(width)d;
    double u = next_double(st);
    int64_t lo = 0, hi = n;           /* searchsorted(side="right") */
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (u < cdf[mid]) hi = mid; else lo = mid + 1;
    }
    int64_t first = lo < n - 1 ? lo : n - 1;
    uint64_t mask = 1ULL << first;
    for (int64_t bit = first + 1; bit < n; bit++)
        if (next_double(st) < p_bits[bit])
            mask |= 1ULL << bit;
    return mask;
}

/* FaultInjector.on_alu.  Returns 0 with *result updated, or a status
 * asking Python to act first (nothing consumed). */
static int on_alu(iss_state *st, int fi_index, uint32_t *result) {
    uint64_t mask = 0;
    int kind = st->fi_kind;
    if (kind == %(FI_A)d) {
        mask = sample(st, 0);             /* model A: the one slot */
    } else if (kind == %(FI_B)d) {
        mask = st->const_mask;
    } else if (kind == %(FI_BPLUS)d || kind == %(FI_C)d) {
        double p;                         /* EffectivePeriodStream.next */
        if (st->const_stream) {
            p = st->constant;
        } else {
            if (st->cursor >= st->block)
                return %(ST_REFILL)d;
            p = st->values[st->cursor];
        }
        if (kind == %(FI_BPLUS)d) {
            int64_t lo = 0, hi = st->n_sorted;    /* bisect_right */
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (p < st->sorted_crit[mid]) hi = mid; else lo = mid + 1;
            }
            mask = st->masks_by_count[st->n_sorted - lo];
        } else {
            const double *periods =
                (const double *)(intptr_t)st->grid_periods[fi_index];
            int64_t g = st->grid_len[fi_index];
            if (p < periods[g - 1]) {             /* CdfGrid.row_index */
                /* bisect_left on the (non-decreasing) grid: start from
                 * the evenly spaced guess, then walk to the unique
                 * index with periods[lo - 1] < p <= periods[lo]. */
                double x = (p - st->grid_origin[fi_index])
                    * st->grid_inv_step[fi_index];
                int64_t lo = x <= 0.0 ? 0 : x >= (double)(g - 1) ? g - 1
                    : (int64_t)x + 1;
                while (lo > 0 && periods[lo - 1] >= p) lo--;
                while (lo < g && periods[lo] < p) lo++;
                int64_t row = lo > 0 ? lo - 1 : 0;
                const int32_t *rows =
                    (const int32_t *)(intptr_t)st->grid_rows[fi_index];
                int64_t slot = rows[row];
                if (slot == %(NO_SAMPLER)d) {
                    st->req_index = fi_index;
                    st->req_row = (int32_t)row;
                    return %(ST_SAMPLER)d;
                }
                if (slot != %(INERT_ROW)d)    /* inert: no draw */
                    mask = sample(st, slot);
            }
        }
        if (!st->const_stream)
            st->cursor++;
    }
    st->alu_cycles++;
    uint64_t value = *result;
    if (mask) {
        st->faulty_cycles++;
        st->fault_count += __builtin_popcountll(mask);
        if (st->stale)
            value = (value & ~mask) | (st->last_latched & mask);
        else
            value ^= mask;
        value &= 0xFFFFFFFFULL;
    }
    st->last_latched = value;
    *result = (uint32_t)value;
    return 0;
}

static inline int mem_offset(const iss_state *st, uint32_t address,
                             int64_t width, int64_t *off) {
    int64_t o = (int64_t)address - st->mem_base;
    if (o < 0 || o + width > st->mem_size)
        return 0;
    *off = o;
    return 1;
}

int repro_iss_run(iss_state *st) {
    uint32_t *regs = st->regs;
    const int32_t *code = st->code;
    uint8_t *mem = st->mem;
    int64_t pc = st->pc, pending = st->pending;
    int64_t cycles = st->cycles, kernel_cycles = st->kernel_cycles;
    int64_t budget = st->budget, n_code = st->n_code;
    int status;
    for (;;) {
        if (cycles >= budget) { status = %(ST_INFINITE)d; break; }
        if (pc < 0 || pc >= n_code) { status = %(ST_PC_RANGE)d; break; }
        const int32_t *in = code + 4 * pc;
        int32_t fields = in[1];
        unsigned rd = fields & 31, ra = (fields >> 8) & 31,
                 rb = (fields >> 16) & 31;
        uint32_t c = (uint32_t)in[2];
        int64_t target = 0;
        int branch = 0;
        switch (in[0]) {
        case %(OP_ALU)d: {
            uint32_t a = regs[ra];
            uint32_t b = ((fields >> 24) & 1) ? c : regs[rb];
            uint32_t r;
            switch (in[3]) {
            case 0: r = a + b; break;
            case 1: r = a - b; break;
            case 2: r = (uint32_t)((uint64_t)a * (uint64_t)b); break;
            case 3: r = a & b; break;
            case 4: r = a | b; break;
            case 5: r = a ^ b; break;
            case 6: r = a << (b & 31); break;
            case 7: r = a >> (b & 31); break;
            default: r = (uint32_t)((int32_t)a >> (b & 31)); break;
            }
            if (st->hook) {
                status = on_alu(st, (fields >> 25) & 63, &r);
                if (status) goto out;
            }
            if (rd) regs[rd] = r;
            break;
        }
        case %(OP_SF)d: {
            uint32_t a = regs[ra];
            uint32_t b = ((fields >> 24) & 1) ? c : regs[rb];
            int32_t sa = (int32_t)a, sb = (int32_t)b;
            int f;
            switch (in[3]) {
            case 0: f = a == b; break;
            case 1: f = a != b; break;
            case 2: f = a > b; break;
            case 3: f = a >= b; break;
            case 4: f = a < b; break;
            case 5: f = a <= b; break;
            case 6: f = sa > sb; break;
            case 7: f = sa >= sb; break;
            case 8: f = sa < sb; break;
            default: f = sa <= sb; break;
            }
            st->flag = f;
            break;
        }
        case %(OP_J)d:
            target = in[3]; branch = 1; break;
        case %(OP_JAL)d:
            regs[9] = c; target = in[3]; branch = 1; break;
        case %(OP_SELF_JUMP)d:
            status = %(ST_INFINITE)d; goto out;
        case %(OP_JR)d:
        case %(OP_JALR)d: {
            uint32_t t = regs[rb];
            if (t & 3) { status = %(ST_PC_RANGE)d; goto out; }
            if (in[0] == %(OP_JALR)d) regs[9] = c;
            target = ((int64_t)t - (int64_t)in[3]) >> 2;
            branch = 1;
            break;
        }
        case %(OP_BF)d:
            if (st->flag) { target = in[3]; branch = 1; }
            break;
        case %(OP_BNF)d:
            if (!st->flag) { target = in[3]; branch = 1; }
            break;
        case %(OP_NOP)d:
            break;
        case %(OP_EXIT)d:
            status = %(ST_EXIT)d; goto out;
        case %(OP_REPORT)d:
            if (!st->report_ack) { status = %(ST_REPORT)d; goto out; }
            st->report_ack = 0;
            break;
        case %(OP_FI_ON)d:
            st->fi_window = 1;
            st->hook = st->fi_kind != %(FI_NONE)d;
            break;
        case %(OP_FI_OFF)d:
            st->fi_window = 0;
            st->hook = 0;
            break;
        case %(OP_MOVHI)d:
            if (rd) regs[rd] = c;
            break;
        case %(OP_LWZ)d: case %(OP_LHZ)d: case %(OP_LBZ)d:
        case %(OP_SW)d: case %(OP_SH)d: case %(OP_SB)d: {
            uint32_t address = regs[ra] + c;
            int op = in[0];
            int64_t width = (op == %(OP_LWZ)d || op == %(OP_SW)d) ? 4
                : (op == %(OP_LHZ)d || op == %(OP_SH)d) ? 2 : 1;
            if (address & (uint32_t)(width - 1)) {
                status = %(ST_MISALIGNED)d; goto out;
            }
            int64_t off;
            if (!mem_offset(st, address, width, &off)) {
                status = %(ST_MEMORY)d; goto out;
            }
            uint8_t *p = mem + off;
            if (op == %(OP_LWZ)d || op == %(OP_LHZ)d || op == %(OP_LBZ)d) {
                uint32_t v = width == 4
                    ? ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
                      | ((uint32_t)p[2] << 8) | p[3]
                    : width == 2 ? ((uint32_t)p[0] << 8) | p[1] : p[0];
                if (rd) regs[rd] = v;
            } else {
                uint32_t v = regs[rb];
                if (width == 4) {
                    p[0] = (uint8_t)(v >> 24); p[1] = (uint8_t)(v >> 16);
                    p[2] = (uint8_t)(v >> 8); p[3] = (uint8_t)v;
                } else if (width == 2) {
                    p[0] = (uint8_t)(v >> 8); p[1] = (uint8_t)v;
                } else {
                    p[0] = (uint8_t)v;
                }
            }
            break;
        }
        default:
            status = %(ST_DECODE)d; goto out;
        }
        cycles++;
        if (st->fi_window) kernel_cycles++;
        if (pending >= 0) {
            if (branch) { status = %(ST_ILLEGAL)d; goto out; }
            pc = pending;
            pending = -1;
        } else if (branch) {
            pending = target;
            pc++;
        } else {
            pc++;
        }
    }
out:
    st->pc = pc;
    st->pending = pending;
    st->cycles = cycles;
    st->kernel_cycles = kernel_cycles;
    return status;
}
"""


def render_iss_source() -> str:
    """The ISS kernel's C source (deterministic; hashed for the cache)."""
    names = {name: value for name, value in globals().items()
             if name.startswith(("ST_", "OP_", "FI_", "NO_", "INERT_"))}
    return _SOURCE % dict(names, abi=ISS_ABI, width=SAMPLER_WIDTH)
