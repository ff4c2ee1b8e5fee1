"""Trace-replay execution engine for straight-line programs.

Every generated kernel is branch-free straight-line code with
data-independent timing: the dynamic instruction sequence — and hence
the pipeline schedule — is identical on every invocation, only the
operand values differ.  The interpreter in :mod:`repro.rv64.machine`
nevertheless re-fetches, re-dispatches and re-times the same program on
each run.  This module removes that overhead with a decode-once /
replay-many model:

* :func:`compile_trace` walks the loaded program *statically* from the
  entry point (possible exactly because the code is straight-line),
  binds each instruction to a compact Python closure operating directly
  on the register list and memory pages, and pre-computes the cycle
  cost once by running the instruction sequence through a fresh
  :class:`~repro.rv64.pipeline.PipelineModel`;
* replaying the compiled trace executes only the bound closures — no
  fetch, no decode, no per-instruction timing walk — while producing
  bit-identical architectural state and the identical cycle count.

Compilation *refuses* (raising :class:`ReplayError`) whenever exactness
cannot be guaranteed statically: any control flow other than the final
``ret``/``ebreak``, a write to ``ra`` (which would redirect the final
``ret``), or a cache-enabled timing configuration (miss patterns are
history-dependent, so the cycle count is not a static property of the
trace).  Callers fall back to the interpreter in that case; the
differential suite under ``tests/differential/`` proves the two paths
equivalent wherever replay is accepted.

Instruction semantics are *not* re-implemented here: closures for base
ALU instructions are built from the same ``op`` lambdas that power the
interpreter (extracted from the :func:`~repro.rv64.isa._alu_reg` /
``_alu_imm`` closures), and extension packages register their own
compilers via :func:`register_compiler` (mirroring
:func:`~repro.rv64.isa.register_global_spec`).  Anything without a
specialised compiler falls back to calling ``spec.execute`` — slower,
never wrong.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.errors import SimulationError
from repro.rv64.bits import MASK64, s32, u64
from repro.rv64.isa import (
    FMT_I,
    FMT_I_SHIFT,
    FMT_R,
    Instruction,
    InstrSpec,
    KIND_BRANCH,
    KIND_JUMP,
)
from repro.rv64.memory import PAGE_BITS, PAGE_MASK
from repro.rv64.pipeline import PipelineModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rv64.machine import Machine, MachineState

#: One replayed instruction: a zero-argument closure over machine state.
TraceStep = Callable[[], None]

#: A compiler factory: ``(state, ins, pc) -> step``.  Returning ``None``
#: means the instruction is a statically-known no-op (e.g. a pure write
#: to ``x0``) and is dropped from the step sequence — it still counts
#: toward the retired-instruction total, histogram and cycle cost.
CompilerFn = Callable[["MachineState", Instruction, int], TraceStep | None]


class ReplayError(SimulationError):
    """The program cannot be compiled to an exact replay trace.

    ``reason`` is a short machine-readable code (``control_flow``,
    ``ra_write``, ``cache_timing``, ``unmapped``, ``step_limit``) used
    by telemetry's ``engine_rejects_total{engine="replay", reason}``
    counter.
    """

    code = "replay"

    #: Every reason `compile_trace` can refuse with (mirrored by the
    #: exhaustive fallback tests in ``tests/test_replay_fallback.py``).
    REASONS = ("control_flow", "ra_write", "cache_timing", "unmapped",
               "step_limit")

    def __init__(self, message: str, *, reason: str = "other") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class CompiledTrace:
    """A program decoded once into a replayable closure sequence.

    ``cycles`` is the *from-reset* cost of one complete execution under
    the machine's pipeline configuration (``None`` when the machine has
    no timing model); ``histogram`` is the static mnemonic count of the
    trace, which equals the dynamic histogram because the code is
    straight-line.

    ``step_instructions`` records, aligned 1:1 with ``steps``, the
    ``(pc, instruction, spec)`` that produced each step (dropped no-ops
    are absent from both).  The aot tier (:mod:`repro.rv64.aot`)
    symbolically executes this sequence to fuse the whole kernel.
    """

    entry: int
    steps: tuple[TraceStep, ...]
    instructions_retired: int
    cycles: int | None
    histogram: Counter
    halts: bool       # ends in ebreak (vs. ret to the halt sentinel)
    exit_pc: int      # pc the interpreter would be left at
    step_instructions: tuple[
        tuple[int, Instruction, InstrSpec], ...
    ] = ()


# ---------------------------------------------------------------------------
# Compiler registry
# ---------------------------------------------------------------------------

_COMPILERS: dict[str, CompilerFn] = {}


def register_compiler(mnemonic: str, factory: CompilerFn) -> None:
    """Register a specialised step compiler for *mnemonic* (idempotent).

    Extension packages (e.g. :mod:`repro.core.ise`) use this to give
    their custom instructions fast replay closures; unregistered
    mnemonics transparently fall back to the generic ``spec.execute``
    path, so registration is purely a performance optimisation.
    """
    _COMPILERS.setdefault(mnemonic, factory)


# -- constant-producing instructions ----------------------------------------

def _compile_lui(state: MachineState, ins: Instruction, pc: int):
    if ins.rd == 0:
        return None
    regs = state.regs._regs
    rd = ins.rd
    value = u64(s32(ins.imm << 12))

    def step() -> None:
        regs[rd] = value

    return step


def _compile_auipc(state: MachineState, ins: Instruction, pc: int):
    # pc is a static property of the trace, so auipc folds to a constant
    if ins.rd == 0:
        return None
    regs = state.regs._regs
    rd = ins.rd
    value = u64(pc + s32(ins.imm << 12))

    def step() -> None:
        regs[rd] = value

    return step


# -- loads and stores --------------------------------------------------------

def _compile_ld(state: MachineState, ins: Instruction, pc: int):
    regs = state.regs._regs
    mem = state.mem
    pages = mem._pages
    load = mem.load
    rd, rs1, imm = ins.rd, ins.rs1, ins.imm
    if rd == 0:
        def discard() -> None:
            load((regs[rs1] + imm) & MASK64, 8)  # may still trap

        return discard

    def step() -> None:
        address = (regs[rs1] + imm) & MASK64
        page = pages.get(address >> PAGE_BITS)
        if page is None or address & 7:
            regs[rd] = load(address, 8)  # slow path: alloc/align/trap
        else:
            offset = address & PAGE_MASK
            regs[rd] = int.from_bytes(page[offset:offset + 8], "little")

    return step


def _compile_sd(state: MachineState, ins: Instruction, pc: int):
    regs = state.regs._regs
    mem = state.mem
    pages = mem._pages
    store = mem.store
    rs1, rs2, imm = ins.rs1, ins.rs2, ins.imm

    def step() -> None:
        address = (regs[rs1] + imm) & MASK64
        page = pages.get(address >> PAGE_BITS)
        if page is None or address & 7:
            store(address, regs[rs2], 8)
        else:
            offset = address & PAGE_MASK
            page[offset:offset + 8] = regs[rs2].to_bytes(8, "little")

    return step


def _make_load_compiler(size: int, signed: bool) -> CompilerFn:
    def compile_(state: MachineState, ins: Instruction, pc: int):
        regs = state.regs._regs
        load = state.mem.load
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        if rd == 0:
            def discard() -> None:
                load((regs[rs1] + imm) & MASK64, size, signed=signed)

            return discard

        def step() -> None:
            regs[rd] = u64(load((regs[rs1] + imm) & MASK64, size,
                                signed=signed))

        return step

    return compile_


def _make_store_compiler(size: int) -> CompilerFn:
    def compile_(state: MachineState, ins: Instruction, pc: int):
        regs = state.regs._regs
        store = state.mem.store
        rs1, rs2, imm = ins.rs1, ins.rs2, ins.imm

        def step() -> None:
            store((regs[rs1] + imm) & MASK64, regs[rs2], size)

        return step

    return compile_


def _compile_fence(state: MachineState, ins: Instruction, pc: int):
    return None  # architecturally a no-op on this memory model


_COMPILERS.update({
    "lui": _compile_lui,
    "auipc": _compile_auipc,
    "ld": _compile_ld,
    "sd": _compile_sd,
    "lb": _make_load_compiler(1, True),
    "lbu": _make_load_compiler(1, False),
    "lh": _make_load_compiler(2, True),
    "lhu": _make_load_compiler(2, False),
    "lw": _make_load_compiler(4, True),
    "lwu": _make_load_compiler(4, False),
    "sb": _make_store_compiler(1),
    "sh": _make_store_compiler(2),
    "sw": _make_store_compiler(4),
    "fence": _compile_fence,
})


# -- ALU instructions: reuse the interpreter's own semantics ----------------

def _extract_alu_op(spec: InstrSpec):
    """Recover the pure ``op`` lambda inside an ``_alu_reg``/``_alu_imm``
    execute closure, guaranteeing replay semantics are *the same object*
    as interpreter semantics (no re-implementation to drift)."""
    fn = spec.execute
    code = getattr(fn, "__code__", None)
    if code is not None and code.co_freevars == ("op",):
        return fn.__closure__[0].cell_contents  # type: ignore[index]
    return None


def _compile_alu(state: MachineState, spec: InstrSpec,
                 ins: Instruction, pc: int):
    op = _extract_alu_op(spec)
    if op is None:
        return _MISSING
    if ins.rd == 0:
        return None  # pure computation into x0: statically a no-op
    regs = state.regs._regs
    rd = ins.rd
    if spec.fmt == FMT_R:
        rs1, rs2 = ins.rs1, ins.rs2

        def step() -> None:
            regs[rd] = op(regs[rs1], regs[rs2])

        return step
    if spec.fmt in (FMT_I, FMT_I_SHIFT):
        rs1, imm = ins.rs1, ins.imm

        def step() -> None:
            regs[rd] = op(regs[rs1], imm)

        return step
    return _MISSING


#: Sentinel: no specialised compiler applies, use the generic fallback.
_MISSING = object()


def _compile_generic(state: MachineState, spec: InstrSpec,
                     ins: Instruction, pc: int) -> TraceStep:
    """Fallback: drive the interpreter's execute function directly.

    Skips fetch/dispatch/timing but keeps exact semantics for any
    instruction without a specialised compiler.  ``pc``/``next_pc`` are
    restored per step so pc-relative semantics stay correct."""
    execute = spec.execute
    next_pc = pc + 4

    def step() -> None:
        state.pc = pc
        state.next_pc = next_pc
        execute(state, ins)

    return step


# ---------------------------------------------------------------------------
# Trace compilation
# ---------------------------------------------------------------------------

def _is_terminal_ret(ins: Instruction) -> bool:
    """The ``ret`` idiom (``jalr x0, ra, 0``) closing every kernel."""
    return (ins.mnemonic == "jalr" and ins.rd == 0 and ins.rs1 == 1
            and ins.imm == 0)


def _static_cycles(
    sequence: list[tuple[int, Instruction, InstrSpec]],
    pipeline: PipelineModel | None,
) -> int | None:
    """Pre-compute the from-reset cycle cost of one trace execution.

    Exact because the instruction sequence, the register dependence
    graph, and the (cache-free) per-instruction latencies are all static
    properties of straight-line code; only operand *values* vary between
    runs, and the scoreboard never consults them.
    """
    if pipeline is None:
        return None
    config = pipeline.config
    if config.icache is not None or config.dcache is not None:
        raise ReplayError(
            "cache timing is history-dependent; replay cannot "
            "precompute a static cycle count",
            reason="cache_timing",
        )
    model = PipelineModel(config)
    for pc, ins, spec in sequence:
        model.issue(spec, ins, pc=pc, mem_address=None, branch_taken=False)
    return model.cycles


def compile_trace(machine: Machine, entry: int) -> CompiledTrace:
    """Decode the straight-line program at *entry* into a replay trace.

    Raises :class:`ReplayError` if the program is not replayable; the
    caller should fall back to the interpreter.
    """
    program = machine._program
    state = machine.state
    sequence: list[tuple[int, Instruction, InstrSpec]] = []
    pc = entry
    limit = machine.max_steps
    while True:
        pair = program.get(pc)
        if pair is None:
            raise ReplayError(
                f"straight-line walk fell off the program image at "
                f"{pc:#x}",
                reason="unmapped",
            )
        ins, spec = pair
        sequence.append((pc, ins, spec))
        if len(sequence) > limit:
            raise ReplayError(f"trace exceeds step limit {limit}",
                              reason="step_limit")
        if _is_terminal_ret(ins) or ins.mnemonic == "ebreak":
            break  # retired by the interpreter too, then execution halts
        if spec.kind in (KIND_BRANCH, KIND_JUMP):
            raise ReplayError(
                f"control flow at {pc:#x} ({ins.mnemonic}): not "
                f"straight-line code",
                reason="control_flow",
            )
        if spec.writes_rd and ins.rd == 1:
            raise ReplayError(
                f"write to ra at {pc:#x} would redirect the final ret",
                reason="ra_write",
            )
        pc += 4

    cycles = _static_cycles(sequence, machine.pipeline)

    steps: list[TraceStep] = []
    step_instructions: list[tuple[int, Instruction, InstrSpec]] = []
    histogram: Counter[str] = Counter()
    for pc, ins, spec in sequence[:-1]:  # terminal ret/ebreak: no effect
        histogram[ins.mnemonic] += 1
        factory = _COMPILERS.get(ins.mnemonic)
        if factory is not None:
            step = factory(state, ins, pc)
        else:
            step = _compile_alu(state, spec, ins, pc)
            if step is _MISSING:
                step = _compile_generic(state, spec, ins, pc)
        if step is not None:
            steps.append(step)
            step_instructions.append((pc, ins, spec))
    final_pc, final_ins, _ = sequence[-1]
    histogram[final_ins.mnemonic] += 1
    halts = final_ins.mnemonic == "ebreak"

    from repro.rv64.machine import HALT_ADDRESS

    return CompiledTrace(
        entry=entry,
        steps=tuple(steps),
        instructions_retired=len(sequence),
        cycles=cycles,
        histogram=histogram,
        halts=halts,
        exit_pc=final_pc + 4 if halts else HALT_ADDRESS,
        step_instructions=tuple(step_instructions),
    )


# ---------------------------------------------------------------------------
# Batch thunk: fused marshal / replay / read-out for KernelRunner.run_batch
# ---------------------------------------------------------------------------

def _pack_expr(var: str, bits: int, limbs: int) -> str:
    """Expression packing *var* into ``limbs`` little-endian 64-bit
    words as one integer (``to_limbs`` then byte-concatenation, fused;
    the caller guards ``0 <= var < 2^(bits*limbs)``)."""
    if bits == 64:
        return var
    mask = (1 << bits) - 1
    parts = [f"({var} & {mask})"]
    for i in range(1, limbs):
        parts.append(f"((({var} >> {bits * i}) & {mask}) << {64 * i})")
    return " | ".join(parts)


def compile_batch_thunk(
    machine: Machine,
    entry: int,
    *,
    arg_plan,
    result_reg: int,
    result_addr: int,
    out_limbs: int,
    radix,
    stack_top: int,
):
    """Generate a fused replay entry thunk for one runner, or ``None``.

    Looping ``Machine.run`` per item pays per-call Python overhead
    around the replayed steps: limb decomposition (``Radix.to_limbs``),
    ``Memory.write_bytes`` per operand, register zeroing, the read-out
    and ``Radix.from_limbs``.  Those are all *static* per kernel — the
    operand addresses, limb widths and counts never change — so
    :meth:`~repro.kernels.runner.KernelRunner.run_batch` bakes them into
    one function::

        thunk(a, b) -> (value, limbs, cycles, instructions) | None

    with the argument/result buffers resolved to ``(page, offset)``
    pairs at build time (sparse-memory pages are allocated on first
    touch and then stable, see :mod:`repro.rv64.memory`).

    The trace is re-fetched from the machine's cache **on every call**,
    so trace invalidation and fault-campaign poisoning keep their exact
    semantics; the thunk returns ``None`` (caller falls back to the
    generic path) when the cache is empty or an operand is out of
    representable range (where ``to_limbs`` would raise).  Returns
    ``None`` at build time when the layout cannot be specialised
    (page-crossing or misaligned buffers).
    """
    from repro.rv64.machine import HALT_ADDRESS

    mem = machine.state.mem
    bits = radix.bits
    spans = []
    for address, limbs, reg_index in arg_plan:
        nbytes = 8 * limbs
        if address % 8 or (address & PAGE_MASK) + nbytes > PAGE_MASK + 1:
            return None
        spans.append((mem._page_for(address), address & PAGE_MASK,
                      limbs, reg_index, address))
    result_bytes = 8 * out_limbs
    if (result_addr % 8
            or (result_addr & PAGE_MASK) + result_bytes > PAGE_MASK + 1):
        return None

    args = ", ".join(f"v{i}" for i in range(len(spans)))
    lines = [
        f"def __replay_entry({args}):",
        f"    _tr = _cache.get({entry})",
        "    if _tr is None:",
        "        return None",
    ]
    namespace: dict = {
        "_cache": machine._trace_cache,
        "_regs": machine.state.regs._regs,
        "_zero": [0] * len(machine.state.regs._regs),
        "_st": machine.state,
        "_pgR": mem._page_for(result_addr),
    }
    for i, (page, offset, limbs, reg_index, address) in enumerate(spans):
        namespace[f"_pg{i}"] = page
        lines += [
            f"    if v{i} < 0 or (v{i} >> {bits * limbs}):",
            "        return None",  # out of range: generic path raises
            f"    _pg{i}[{offset}:{offset + 8 * limbs}] = "
            f"({_pack_expr(f'v{i}', bits, limbs)})"
            f".to_bytes({8 * limbs}, 'little')",
        ]
    lines.append("    _regs[:] = _zero")
    for _page, _offset, _limbs, reg_index, address in spans:
        lines.append(f"    _regs[{reg_index}] = {address}")
    lines += [
        f"    _regs[{result_reg}] = {result_addr}",
        # exactly Machine._replay's loop, with the ra/sp setup the
        # trace expects
        f"    _regs[1] = {HALT_ADDRESS}",
        f"    _regs[2] = {stack_top}",
        "    for _s in _tr.steps:",
        "        _s()",
        "    _st.pc = _tr.exit_pc",
        "    _st.halted = _tr.halts",
        f"    _raw = _pgR[{result_addr & PAGE_MASK}:"
        f"{(result_addr & PAGE_MASK) + result_bytes}]",
    ]
    for i in range(out_limbs):
        lines.append(
            f"    _w{i} = int.from_bytes(_raw[{8 * i}:{8 * i + 8}], "
            f"'little')"
        )
    # from_limbs uses addition, not OR: read-out limbs may be
    # non-canonical (delayed carries) and overlap bit ranges
    value_expr = " + ".join(
        f"_w{i}" if i == 0 else f"(_w{i} << {bits * i})"
        for i in range(out_limbs)
    )
    limbs_expr = ("(" + ", ".join(f"_w{i}" for i in range(out_limbs))
                  + ("," if out_limbs == 1 else "") + ")")
    lines.append(
        f"    return ({value_expr}), {limbs_expr}, "
        f"_tr.cycles, _tr.instructions_retired"
    )
    source = "\n".join(lines) + "\n"
    try:
        code = compile(source, f"<replay:{entry:#x}|batch>", "exec")
        scope = dict(namespace)
        exec(code, scope)
        return scope["__replay_entry"]
    except Exception:  # pragma: no cover - thunks are optional
        return None    # the generic path is always available
