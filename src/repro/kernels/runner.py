"""Execute generated kernels on the RV64 simulator and verify results.

:class:`KernelRunner` assembles a kernel once, plants the field
constants, and then runs it on arbitrary operand values, returning the
architectural result together with the timing-model cycle count.  With
``check=True`` every run is compared against the kernel's golden
reference — the paper's correctness story ("constant-time Assembler
functions, which we wrote from scratch") reduced to machine-checked
equivalence.

Because every generated kernel is branch-free straight-line code, a
runner can execute it through the fast execution tiers: ``engine=
"replay"`` decodes the kernel once into a compiled closure trace
(:mod:`repro.rv64.replay`); ``engine="aot"`` fuses the whole kernel
into one entry thunk of limb-level wide-int arithmetic
(:mod:`repro.rv64.aot`) that the runner calls directly — no
per-instruction dispatch of any kind — and can warm-start from the
persistent on-disk artifact cache (:mod:`repro.rv64.artifacts`)
without re-tracing at all.  The runner is the aot tier's only host:
fusion needs the operand layout it owns.  Every tier returns
bit-identical limbs and the identical cycle count
(``tests/differential/`` proves the three-way equivalence for every
kernel variant), and all demote down the aot → replay → interpreter
ladder whenever their preconditions fail
(:class:`~repro.rv64.aot.AotError` refusals, evicted thunks,
non-replayable programs, cache-enabled timing, attached trace hooks).

:meth:`KernelRunner.run` and :meth:`KernelRunner.run_batch` resolve the
engine once and then share one per-item path: the thunk if there is
one (the aot entry thunk, or in batches the replay batch thunk),
otherwise the replay lean path or the interpreter; then the hardening
step (fault hook, sampled verification) for every engine alike.
Hooked items always run on the interpreter from a reset machine.
``run_batch`` amortises the per-call setup (engine resolution, thunk
lookup) for server-style throughput workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import telemetry
from repro.errors import FaultDetectedError, KernelError
from repro.kernels.layout import (
    ARG_A_ADDR,
    ARG_B_ADDR,
    CODE_BASE,
    CONST_BASE,
    ConstPoolLayout,
    RESULT_ADDR,
)
from repro.kernels.spec import Kernel
from repro.rv64.assembler import assemble
from repro.rv64.machine import DEFAULT_STACK_TOP, ENGINES, Machine
from repro.rv64.pipeline import PipelineConfig, PipelineModel, ROCKET_CONFIG
from repro.rv64.registers import NUM_REGISTERS, register_index


@dataclass(frozen=True)
class KernelRun:
    """Result of one kernel execution."""

    value: int
    limbs: tuple[int, ...]
    instructions: int
    cycles: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


_ARG_ADDRESSES = (ARG_A_ADDR, ARG_B_ADDR)
_ARG_REGISTERS = ("a1", "a2")
_ZERO_REGS = [0] * NUM_REGISTERS

#: Seed for the deterministic sample operands used when a kernel's
#: cycle count cannot be read off a compiled trace (cache-enabled
#: timing): every caller measures the same, reproducible execution.
STATIC_SAMPLE_SEED = 0

#: Default sampling interval of ``checked`` mode: one in this many runs
#: is cross-validated against the kernel's pure-Python reference (and
#: its cycle count against the straight-line baseline).
DEFAULT_CHECK_INTERVAL = 8


def _validate_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise KernelError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


class _Hardening:
    """State of a runner's checked mode and fault-injection seam.

    Kept on a single nullable slot so the per-item path of
    :class:`KernelRunner` pays exactly one ``is None`` test while
    the whole feature is off (the same disabled-cost contract as
    telemetry; guarded by ``benchmarks/test_checked_overhead.py``).
    """

    __slots__ = ("enabled", "interval", "clock", "cycle_baseline",
                 "fault_hook")

    def __init__(self) -> None:
        self.enabled = False
        self.interval = DEFAULT_CHECK_INTERVAL
        self.clock = 0
        self.cycle_baseline: int | None = None
        self.fault_hook = None

    @property
    def active(self) -> bool:
        return self.enabled or self.fault_hook is not None


class KernelRunner:
    """Reusable executor for one kernel."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        pipeline_config: PipelineConfig = ROCKET_CONFIG,
        schedule: bool = False,
        engine: str = "interpreter",
        checked: bool = False,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ) -> None:
        _validate_engine(engine)
        self.kernel = kernel
        self.engine = engine
        self._pipeline_config = pipeline_config
        # hardening state (checked mode + fault-injection seam); None
        # keeps the disabled hot path at a single boolean test
        self._hardening: _Hardening | None = None
        program = assemble(kernel.source, kernel.isa)
        if schedule:
            # list-schedule the straight-line body (E10 ablation): the
            # paper's hand assembly interleaves independent MACs; this
            # pass approximates that optimisation mechanically
            from repro.analysis.schedule import schedule as _schedule

            program = _schedule(program.instructions, kernel.isa)
        self._static_size = 4 * len(program)
        self.machine = Machine(
            kernel.isa, pipeline=PipelineModel(pipeline_config)
        )
        self.entry = self.machine.load_program(program, CODE_BASE)
        self._write_const_pool()
        # fast-path plumbing: resolve argument registers once so replay
        # runs bypass name lookup and per-word memory stores
        self._arg_plan = tuple(
            (address, limbs, register_index(reg))
            for limbs, address, reg in zip(
                kernel.input_limbs, _ARG_ADDRESSES, _ARG_REGISTERS
            )
        )
        self._result_reg = register_index("a0")
        # fused entry thunks (marshal/call/read-out in one generated
        # function): the aot entry thunk (None on non-aot runners and
        # refused kernels) and the replay-tier batch thunk, built
        # lazily on first run_batch (False = build attempted, layout
        # unspecialisable).
        self._replay_thunk = None
        self._aot_thunk = None
        if engine == "aot":
            # warm-start if the artifact cache has this kernel; only
            # then fall back to trace + fuse (and persist the result).
            # The replay rung compiles its trace lazily, on demotion.
            self._init_aot(schedule=schedule)
        if checked:
            self.enable_checked(check_interval)

    def _init_aot(self, *, schedule: bool) -> None:
        """Bind or build the fused aot entry thunk (constructor helper).

        Resolution order: validated on-disk artifact (no re-tracing) →
        whole-kernel fusion of a fresh trace (persisted for the next
        process, when the source is artifact-safe) → rejection (the
        entry demotes to the replay rung on first run).  List-scheduled
        runners execute a *different* program than the kernel source
        hashes to, so they bypass the disk cache entirely.
        """
        from time import perf_counter

        from repro.rv64.aot import AotError, bind_entry_source, \
            compile_aot_entry
        from repro.rv64.artifacts import (
            invalidate_artifact,
            load_artifact,
            make_key,
            store_artifact,
        )

        kernel = self.kernel
        machine = self.machine
        entry = self.entry
        key = None if schedule else make_key(
            kernel, self._pipeline_config)
        aot = None
        if key is not None:
            payload = load_artifact(key)
            if payload is not None and payload["entry"] == entry:
                try:
                    aot = bind_entry_source(
                        machine, entry, payload["source"],
                        cycles=payload["cycles"],
                        instructions=payload["instructions"],
                        halts=payload["halts"],
                        exit_pc=payload["exit_pc"],
                    )
                except AotError:
                    # a valid-looking artifact that will not bind is
                    # stale in a way the digest cannot see; drop it
                    # and fall through to a cold compile
                    invalidate_artifact(key)
                    aot = None
        fresh = aot is None
        if fresh:
            layout = ConstPoolLayout(kernel.context.radix.limbs)
            start = perf_counter()
            try:
                aot = compile_aot_entry(
                    machine, entry,
                    arg_plan=self._arg_plan,
                    result_reg=self._result_reg,
                    result_addr=RESULT_ADDR,
                    out_limbs=kernel.output_limbs,
                    radix=kernel.context.radix,
                    const_window=(CONST_BASE, layout.size_bytes),
                    stack_top=DEFAULT_STACK_TOP,
                )
            except AotError as exc:
                telemetry.inc("engine_rejects_total", engine="aot",
                              reason=exc.reason)
                return
            telemetry.inc("engine_compiles_total", engine="aot")
            telemetry.observe("engine_compile_seconds",
                              perf_counter() - start, engine="aot")
        machine._aot_entry_cache[entry] = aot
        machine.aot_disk_key = key
        self._aot_thunk = aot.fn
        if fresh and key is not None and aot.persistable:
            store_artifact(
                key,
                entry=entry,
                source=aot.source,
                cycles=aot.cycles,
                instructions=aot.instructions_retired,
                halts=aot.halts,
                exit_pc=aot.exit_pc,
            )

    # -- hardened execution (checked mode + fault seam) ---------------------

    def _ensure_hardening(self) -> _Hardening:
        if self._hardening is None:
            self._hardening = _Hardening()
        return self._hardening

    def enable_checked(self, interval: int = DEFAULT_CHECK_INTERVAL) -> None:
        """Cross-validate one in *interval* runs against the reference.

        A sampled run's value is compared with the kernel's pure-Python
        reference and its cycle count with the straight-line baseline
        (primed here, from the healthy compiled trace, when available);
        divergence raises :class:`~repro.errors.FaultDetectedError`.
        """
        hardening = self._ensure_hardening()
        hardening.enabled = True
        hardening.interval = max(1, int(interval))
        if hardening.cycle_baseline is None:
            trace = self.machine._trace_for(self.entry)
            if trace is not None and trace.cycles is not None:
                hardening.cycle_baseline = trace.cycles

    def disable_checked(self) -> None:
        """Turn sampled cross-validation off again."""
        if self._hardening is not None:
            self._hardening.enabled = False
            if not self._hardening.active:
                self._hardening = None

    @property
    def checked(self) -> bool:
        return (self._hardening is not None
                and self._hardening.enabled)

    def set_fault_hook(self, hook) -> None:
        """Install *hook*: ``limbs -> limbs`` applied to every run's
        result limbs, whatever the engine (the fault-injection seam
        used by :mod:`repro.fault.inject`; not a public extension
        point)."""
        self._ensure_hardening().fault_hook = hook

    def clear_fault_hook(self) -> None:
        if self._hardening is not None:
            self._hardening.fault_hook = None
            if not self._hardening.active:
                self._hardening = None

    def _verify(self, values, value: int, cycles, engine: str) -> None:
        """Sampled checked-mode validation; raises FaultDetectedError."""
        kernel = self.kernel
        hardening = self._hardening
        telemetry.inc("checked_runs_total", kernel=kernel.name)
        expected = kernel.reference(*values)
        if value != expected:
            telemetry.inc("faults_detected_total", where=kernel.name,
                          engine=engine)
            raise FaultDetectedError(
                f"{kernel.name}: checked run diverged from the "
                f"pure-Python reference: got {value:#x}, expected "
                f"{expected:#x} for inputs {[hex(v) for v in values]}"
            )
        if cycles is not None:
            if hardening.cycle_baseline is None:
                hardening.cycle_baseline = cycles
            elif cycles != hardening.cycle_baseline:
                telemetry.inc("faults_detected_total", where=kernel.name,
                              engine=engine)
                raise FaultDetectedError(
                    f"{kernel.name}: cycle count {cycles} != "
                    f"baseline {hardening.cycle_baseline} — impossible "
                    f"for straight-line code with data-independent "
                    f"timing; the replay cache is suspect"
                )

    def _write_const_pool(self) -> None:
        ctx = self.kernel.context
        layout = ConstPoolLayout(ctx.radix.limbs)
        mem = self.machine.mem
        mem.store_words(CONST_BASE + layout.modulus_offset,
                        ctx.modulus_limbs)
        mem.store_u64(CONST_BASE + layout.n0_offset, ctx.n0_inv)
        mem.store_u64(CONST_BASE + layout.mask_offset, ctx.radix.mask)

    @property
    def code_bytes(self) -> int:
        """Static code size (after pseudo-expansion)."""
        return self._static_size

    def _resolve_engine(self, engine: str) -> str:
        """Validate *engine* and walk the aot -> replay -> interpreter
        demotion ladder.

        Each rung demotes exactly one step when its precondition fails.
        aot demotions are counted in ``engine_demotions_total``
        (``engine_from="aot"``): an attached trace hook as
        ``trace_hooks``, a missing entry thunk (refused at
        construction, or evicted by invalidation or fault poisoning)
        as ``not_compilable``.  The replay -> interpreter step is
        silent here (:meth:`Machine.run` records the per-run fallback).
        """
        machine = self.machine
        if engine == "aot":
            if machine._trace_hooks:
                reason = "trace_hooks"
            elif self.entry in machine._aot_entry_cache:
                return engine
            else:
                reason = "not_compilable"
            telemetry.inc("engine_demotions_total", engine_from="aot",
                          engine_to="replay", reason=reason)
            engine = "replay"
        else:
            _validate_engine(engine)
        if engine == "replay" and not machine.replay_supported(self.entry):
            engine = "interpreter"  # e.g. cache-enabled timing
        return engine

    def _marshal_args(self, values) -> None:
        """Write operand limbs + argument registers (lean-path state)."""
        machine = self.machine
        mem = machine.mem
        regs = machine.state.regs._regs
        radix = self.kernel.context.radix
        regs[:] = _ZERO_REGS
        for value, (address, limbs, reg_index) in zip(
            values, self._arg_plan
        ):
            mem.write_bytes(address, b"".join(
                w.to_bytes(8, "little")
                for w in radix.to_limbs(value, limbs=limbs)
            ))
            regs[reg_index] = address
        regs[self._result_reg] = RESULT_ADDR

    def _execute(self, values, engine: str):
        """Run one item on the machine (no thunk, or the thunk declined).

        Returns ``(engine_ran, (value, limbs, cycles, instructions))``,
        the second element shaped like a thunk's result.  Without trace
        hooks a fast-engine request takes the replay lean path: traces
        run from architectural reset, so zeroing the register list is
        the only state to restore (the pipeline model is bypassed, not
        mutated).  Everything else — interpreter requests, hooked
        items, non-replayable kernels — runs through :meth:`Machine.run`
        from :meth:`Machine.reset`, so a hooked run reports one run's
        cycles, never a running total.
        """
        machine = self.machine
        trace = None
        if engine != "interpreter" and not machine._trace_hooks:
            trace = machine._trace_for(self.entry)
        if trace is None:
            machine.reset()
        self._marshal_args(values)
        if trace is not None:
            result = machine._replay(trace, DEFAULT_STACK_TOP)
        else:
            # a fast-engine request still asks Machine.run for replay,
            # which records the replay -> interpreter demotion reason
            result = machine.run(
                self.entry, engine="replay" if engine == "aot" else engine)
        raw = machine.mem.read_bytes(RESULT_ADDR,
                                     8 * self.kernel.output_limbs)
        limbs = tuple(
            int.from_bytes(raw[i:i + 8], "little")
            for i in range(0, len(raw), 8)
        )
        value = self.kernel.context.radix.from_limbs(list(limbs))
        return result.engine, (value, limbs, result.cycles,
                               result.instructions_retired)

    def _run_item(self, values, engine: str, thunk,
                  check: bool) -> KernelRun:
        """The one per-item path behind :meth:`run` and
        :meth:`run_batch`, on an already resolved *engine*.

        Tries *thunk* first (the aot entry thunk, or the replay batch
        thunk); it returns ``None`` when evicted or when an operand is
        out of range, and the item then executes on the machine
        (:meth:`_execute`).  The hardening step follows once, for
        every engine: the fault hook transforms the limbs, the value is
        recomputed from them, and the sampled :meth:`_verify` runs.
        """
        out = None if thunk is None else thunk(*values)
        if out is not None:
            ran = engine
        else:
            ran, out = self._execute(values, engine)
        value, limbs, cycles, instructions = out
        hardening = self._hardening
        if hardening is not None:  # disabled hardening: one test
            if hardening.fault_hook is not None:
                limbs = tuple(hardening.fault_hook(limbs))
                value = self.kernel.context.radix.from_limbs(list(limbs))
            if hardening.enabled:
                hardening.clock += 1
                if hardening.clock >= hardening.interval:
                    hardening.clock = 0
                    # raises FaultDetectedError on divergence, before
                    # the run is recorded anywhere downstream
                    self._verify(values, value, cycles, ran)
        return self._finish(values, value, limbs, cycles, instructions,
                            ran, check)

    def _finish(self, values, value: int, limbs, cycles, instructions,
                engine: str, check: bool) -> KernelRun:
        """Reference check, cycle guard and per-run telemetry shared by
        every execution path; returns the :class:`KernelRun`."""
        kernel = self.kernel
        if check:
            expected = kernel.reference(*values)
            if value != expected:
                telemetry.inc("kernel_check_failures_total",
                              kernel=kernel.name)
                raise KernelError(
                    f"{kernel.name} produced {value:#x}, "
                    f"expected {expected:#x} for inputs "
                    f"{[hex(v) for v in values]}"
                )
        if cycles is None:
            # a zero count would silently corrupt every downstream table
            raise KernelError(
                f"{kernel.name}: execution produced no cycle count "
                f"(the runner's machine lost its pipeline model)"
            )
        # ``engine`` reports the engine that actually ran (an aot or
        # replay request can demote, e.g. when a profiler hook is
        # attached)
        telemetry.record_kernel_run(kernel.name, engine, cycles,
                                    instructions)
        return KernelRun(
            value=value,
            limbs=limbs,
            instructions=instructions,
            cycles=cycles,
        )

    def run(
        self,
        *values: int,
        check: bool = True,
        engine: str | None = None,
    ) -> KernelRun:
        """Execute the kernel on *values*; returns the result and cost.

        ``engine`` selects the execution tier (``None`` uses the
        constructor default).  Whatever the tier, the result is bit- and
        cycle-identical to the interpreter's, just cheaper to produce;
        unsatisfiable requests demote down the aot -> replay ->
        interpreter ladder.
        """
        kernel = self.kernel
        if len(values) != len(kernel.input_limbs):
            raise KernelError(
                f"{kernel.name} expects {len(kernel.input_limbs)} "
                f"operands, got {len(values)}"
            )
        engine = self._resolve_engine(
            self.engine if engine is None else engine)
        return self._run_item(
            values, engine, self._aot_thunk if engine == "aot" else None,
            check)

    def _replay_batch_thunk(self):
        """The replay batch thunk, built lazily on first use, or
        ``None`` (:func:`~repro.rv64.replay.compile_batch_thunk`)."""
        if self._replay_thunk is None:
            from repro.rv64.replay import compile_batch_thunk

            kernel = self.kernel
            thunk = compile_batch_thunk(
                self.machine, self.entry,
                arg_plan=self._arg_plan,
                result_reg=self._result_reg,
                result_addr=RESULT_ADDR,
                out_limbs=kernel.output_limbs,
                radix=kernel.context.radix,
                stack_top=DEFAULT_STACK_TOP,
            )
            self._replay_thunk = thunk if thunk is not None else False
        return self._replay_thunk or None

    def run_batch(
        self,
        operand_sets,
        *,
        check: bool = True,
        engine: str | None = None,
    ) -> list[KernelRun]:
        """Execute the kernel once per operand set, amortising setup.

        Semantically identical to ``[self.run(*v) for v in
        operand_sets]`` — same values, limbs, cycle counts, and
        per-run ``kernel_runs_total`` accounting — but the engine and
        the thunk are resolved **once**, and the replay engine swaps
        its lean path for the fused replay batch thunk.  One extra
        ``kernel_batches_total`` / ``kernel_batch_items_total`` sample
        records the batching itself.
        """
        kernel = self.kernel
        operand_sets = [tuple(values) for values in operand_sets]
        arity = len(kernel.input_limbs)
        for values in operand_sets:
            if len(values) != arity:
                raise KernelError(
                    f"{kernel.name} expects {arity} operands, "
                    f"got {len(values)}"
                )
        engine = self._resolve_engine(
            self.engine if engine is None else engine)
        thunk = None
        if engine == "aot":
            thunk = self._aot_thunk
        elif engine == "replay" and not self.machine._trace_hooks:
            thunk = self._replay_batch_thunk()
        run_item = self._run_item
        runs = [run_item(values, engine, thunk, check)
                for values in operand_sets]
        telemetry.inc("kernel_batches_total", kernel=kernel.name,
                      engine=engine)
        telemetry.inc("kernel_batch_items_total", len(runs),
                      kernel=kernel.name, engine=engine)
        return runs

    def measure_cycles(self, *values: int) -> int:
        """Cycle count of one verified execution (timing is
        data-independent: the kernels are straight-line code)."""
        return self.run(*values).cycles

    def static_cycles(self) -> int:
        """Cycle count of one from-reset execution, without executing.

        Straight-line kernels have data-independent timing, so the
        compiled trace's precomputed cost *is* the cycle count; kernels
        that cannot be trace-compiled (e.g. cache-enabled timing
        configurations) fall back to one measured run on seeded sample
        operands.
        """
        trace = self.machine._trace_for(self.entry)
        if trace is not None and trace.cycles is not None:
            return trace.cycles
        sample = self.kernel.sampler(random.Random(STATIC_SAMPLE_SEED))
        return self.run(*sample, check=False).cycles


def run_kernel(
    kernel: Kernel,
    *values: int,
    pipeline_config: PipelineConfig = ROCKET_CONFIG,
    check: bool = True,
    engine: str = "interpreter",
) -> KernelRun:
    """One-shot convenience wrapper."""
    return KernelRunner(
        kernel, pipeline_config=pipeline_config, engine=engine,
    ).run(*values, check=check)
