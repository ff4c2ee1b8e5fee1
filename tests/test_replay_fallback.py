"""Replay→interpreter fallback, exercised per rejection reason.

One test per :class:`~repro.rv64.replay.ReplayError` ``reason`` value:
each builds a program the trace compiler must refuse, asserts the
refusal (``engine_rejects_total{engine="replay", reason=...}``),
asserts that a ``run(engine="replay")`` on such a program increments
the demotion counter (``engine_demotions_total{engine_from="replay",
reason="not_replayable"}``), and — where the
program is runnable at all — that the fallback execution is
bit-for-bit identical to a plain interpreter run (registers, memory,
retired-instruction count, cycles).  Programs that are broken for the
interpreter too (unmapped walk-off, step-limit blowout) must fail
identically on both paths.

A final guard asserts this file covers every declared reason, so a new
rejection reason cannot land without its fallback test.

The second half applies the same discipline one tier up: every
:class:`~repro.rv64.aot.AotError` reason gets a refusal test against
:func:`~repro.rv64.aot.compile_aot_entry` (the tier's only code
generator), and every demotion reason on the aot → replay →
interpreter ladder (:data:`repro.rv64.aot.DEMOTION_REASONS`) gets a
:class:`~repro.kernels.runner.KernelRunner` test asserting the refusal
counter (``engine_rejects_total{engine="aot", reason=...}``), the
demotion counter (``engine_demotions_total{engine_from="aot",
reason=...}``), the engine that actually served
the run, and exactness against the interpreter.  The aot tier lives in
the runner alone, so ``Machine.run(engine="aot")`` refuses.
"""

from __future__ import annotations

import random
import re

import pytest

from repro import telemetry
from repro.core.ise import EXTENDED_ISA
from repro.csidh.parameters import csidh_toy
from repro.errors import SimulationError
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.rv64.assembler import assemble
from repro.rv64.machine import Machine
from repro.rv64.pipeline import (
    PipelineModel,
    ROCKET_CONFIG,
    ROCKET_CONFIG_WITH_CACHES,
)
from repro.mpi.representation import Radix
from repro.rv64 import aot as aot_module
from repro.rv64.aot import AotError, compile_aot_entry
from repro.rv64.replay import ReplayError, compile_trace

#: reason -> the assembly that provokes it (straight-line unless noted)
_STRAIGHT = """
    addi t0, zero, 41
    addi t1, zero, 1
    add  a0, t0, t1
    ret
"""


def _machine(source: str, *, config=ROCKET_CONFIG,
             max_steps: int | None = None) -> tuple[Machine, int]:
    machine = Machine(EXTENDED_ISA, pipeline=PipelineModel(config))
    if max_steps is not None:
        machine.max_steps = max_steps
    entry = machine.load_program(assemble(source, EXTENDED_ISA))
    return machine, entry


def _assert_rejected(source: str, reason: str, **kwargs) -> None:
    machine, entry = _machine(source, **kwargs)
    with pytest.raises(ReplayError) as excinfo:
        compile_trace(machine, entry)
    assert excinfo.value.reason == reason


def _fallback_matches_interpreter(source: str, reason: str,
                                  **kwargs) -> None:
    """A replay request falls back and matches an interpreter run."""
    with telemetry.capture(fresh=True) as cap:
        replay_machine, entry = _machine(source, **kwargs)
        replay_result = replay_machine.run(entry, engine="replay")
    plain_machine, entry2 = _machine(source, **kwargs)
    plain_result = plain_machine.run(entry2, engine="interpreter")

    assert replay_result.engine == "interpreter"
    assert replay_result.instructions_retired \
        == plain_result.instructions_retired
    assert replay_result.cycles == plain_result.cycles
    assert replay_result.histogram == plain_result.histogram
    assert replay_machine.regs.snapshot() == plain_machine.regs.snapshot()

    assert cap.registry.total(
        "engine_rejects_total", engine="replay", reason=reason) == 1
    assert cap.registry.total(
        "engine_demotions_total", engine_from="replay",
        reason="not_replayable") == 1


class TestControlFlow:
    SOURCE = """
        addi t0, zero, 5
        beq  zero, zero, 8
        addi t0, zero, 99
        addi a0, t0, 1
        ret
    """

    def test_rejected(self):
        _assert_rejected(self.SOURCE, "control_flow")

    def test_fallback_bit_for_bit(self):
        _fallback_matches_interpreter(self.SOURCE, "control_flow")
        machine, entry = _machine(self.SOURCE)
        machine.run(entry)
        assert machine.regs["a0"] == 6  # the branch was honoured


class TestRaWrite:
    # writes ra with its own (unchanged) value: harmless to execute,
    # but the compiler cannot prove the final ret still halts
    SOURCE = """
        addi t0, zero, 7
        addi ra, ra, 0
        addi a0, t0, 3
        ret
    """

    def test_rejected(self):
        _assert_rejected(self.SOURCE, "ra_write")

    def test_fallback_bit_for_bit(self):
        _fallback_matches_interpreter(self.SOURCE, "ra_write")
        machine, entry = _machine(self.SOURCE)
        machine.run(entry)
        assert machine.regs["a0"] == 10


class TestCacheTiming:
    def test_rejected(self):
        _assert_rejected(_STRAIGHT, "cache_timing",
                         config=ROCKET_CONFIG_WITH_CACHES)

    def test_fallback_bit_for_bit(self):
        _fallback_matches_interpreter(_STRAIGHT, "cache_timing",
                                      config=ROCKET_CONFIG_WITH_CACHES)


class TestUnmapped:
    # no terminal ret: the straight-line walk falls off the image, and
    # so does the interpreter — both paths must fail identically
    SOURCE = """
        addi t0, zero, 1
        add  a0, t0, t0
    """

    def test_rejected(self):
        _assert_rejected(self.SOURCE, "unmapped")

    def test_fallback_fails_like_interpreter(self):
        with telemetry.capture(fresh=True) as cap:
            machine, entry = _machine(self.SOURCE)
            with pytest.raises(SimulationError) as via_replay:
                machine.run(entry, engine="replay")
        other, entry2 = _machine(self.SOURCE)
        with pytest.raises(SimulationError) as via_interp:
            other.run(entry2, engine="interpreter")
        assert str(via_replay.value) == str(via_interp.value)
        assert cap.registry.total(
            "engine_rejects_total", engine="replay", reason="unmapped") == 1
        assert cap.registry.total(
            "engine_demotions_total", engine_from="replay",
            reason="not_replayable") == 1


class TestStepLimit:
    SOURCE = "\n".join(["addi t0, t0, 1"] * 8) + "\nret\n"

    def test_rejected(self):
        _assert_rejected(self.SOURCE, "step_limit", max_steps=4)

    def test_fallback_fails_like_interpreter(self):
        with telemetry.capture(fresh=True) as cap:
            machine, entry = _machine(self.SOURCE, max_steps=4)
            with pytest.raises(SimulationError, match="step limit"):
                machine.run(entry, engine="replay")
        other, entry2 = _machine(self.SOURCE, max_steps=4)
        with pytest.raises(SimulationError, match="step limit"):
            other.run(entry2, engine="interpreter")
        assert cap.registry.total(
            "engine_rejects_total", engine="replay", reason="step_limit") == 1
        assert cap.registry.total(
            "engine_demotions_total", engine_from="replay",
            reason="not_replayable") == 1


def test_every_declared_reason_is_covered():
    """A new ReplayError.reason cannot land without a fallback test."""
    source = open(__file__, encoding="utf-8").read()
    tested = set(re.findall(r'"(control_flow|ra_write|cache_timing|'
                            r'unmapped|step_limit)"', source))
    assert tested == set(ReplayError.REASONS)


# ---------------------------------------------------------------------------
# aot demotion ladder: aot → replay → interpreter
# ---------------------------------------------------------------------------


def _entry_thunk_kwargs():
    """Minimal one-operand entry-thunk shape for refusal tests."""
    return dict(
        arg_plan=((0x10000, 1, 10),),  # one limb at 0x10000 in a0
        result_reg=11,                 # result pointer in a1
        result_addr=0x10200,
        out_limbs=1,
        radix=Radix(64, 1),
        const_window=(0, 0),
    )


@pytest.fixture
def cold_artifacts(monkeypatch, tmp_path):
    """An empty artifact cache: runner construction really fuses."""
    monkeypatch.setenv("REPRO_AOT_CACHE", str(tmp_path / "aot"))


def _toy_kernel(name: str):
    return cached_kernels(csidh_toy().p)[name]


def _runner_demotion(kernel, *, expected_engine: str, config=ROCKET_CONFIG,
                     hook=None):
    """Run *kernel* once on an aot runner and once on an interpreter
    runner; return the aot runner's telemetry capture after asserting
    the demoted run served *expected_engine* and matched bit for bit."""
    values = kernel.sampler(random.Random(7))
    with telemetry.capture(fresh=True) as cap:
        runner = KernelRunner(kernel, pipeline_config=config,
                              engine="aot")
        if hook is not None:
            runner.machine.add_trace_hook(hook)
        run = runner.run(*values)
    expected = KernelRunner(kernel, pipeline_config=config).run(*values)
    assert (run.value, run.limbs, run.cycles, run.instructions) \
        == (expected.value, expected.limbs, expected.cycles,
            expected.instructions)
    assert cap.registry.total("kernel_runs_total", engine=expected_engine) == 1
    assert cap.registry.total("kernel_runs_total") == 1
    return cap


class TestAotNotReplayable:
    """Unreplayable programs refuse fusion for the same root cause,
    and an aot request demotes all the way to the interpreter."""

    SOURCE = TestControlFlow.SOURCE

    def test_rejected(self):
        machine, entry = _machine(self.SOURCE)
        with pytest.raises(AotError) as excinfo:
            compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
        assert excinfo.value.reason == "not_replayable"
        assert excinfo.value.code == "aot"

    def test_demotes_to_interpreter_bit_for_bit(self, cold_artifacts):
        # cache-enabled timing refuses the replay trace, so the kernel
        # neither fuses nor replays
        cap = _runner_demotion(_toy_kernel("fp_mul.reduced.ise"),
                               expected_engine="interpreter",
                               config=ROCKET_CONFIG_WITH_CACHES)
        assert cap.registry.total(
            "engine_rejects_total", engine="aot", reason="not_replayable") == 1
        assert cap.registry.total(
            "engine_demotions_total", engine_from="aot",
            reason="not_compilable") == 1


class TestAotUnsupportedOp:
    """A mnemonic with no registered expression and no extractable
    R/I-format lambda refuses fusion; the replay rung serves the run."""

    SOURCE = """
        addi t0, zero, 3
        addi t1, zero, 4
        addi t2, zero, 5
        maddlu a0, t0, t1, t2
        ret
    """

    def test_rejected_and_replay_serves(self, cold_artifacts):
        original = aot_module._EXPRS.pop("maddlu")
        try:
            machine, entry = _machine(self.SOURCE)
            with pytest.raises(AotError) as excinfo:
                compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
            assert excinfo.value.reason == "unsupported_op"

            cap = _runner_demotion(_toy_kernel("fp_mul.full.ise"),
                                   expected_engine="replay")
            assert cap.registry.total(
                "engine_rejects_total", engine="aot",
                reason="unsupported_op") == 1
            assert cap.registry.total(
                "engine_demotions_total", engine_from="aot",
                reason="not_compilable") == 1
        finally:
            aot_module._EXPRS["maddlu"] = original


class TestAotDynamicAddress:
    """A load whose address depends on loaded data cannot be fused
    into a static entry thunk."""

    SOURCE = """
        ld t0, 0(a0)
        ld t1, 0(t0)
        sd t1, 0(a1)
        ret
    """

    def test_entry_thunk_rejected(self):
        machine, entry = _machine(self.SOURCE)
        with pytest.raises(AotError) as excinfo:
            compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
        assert excinfo.value.reason == "dynamic_address"


class TestAotUnsupportedAccess:
    """Sub-word accesses (and reads outside the operand spans / const
    pool) refuse entry-thunk fusion."""

    SOURCE = """
        lb t0, 0(a0)
        sd t0, 0(a1)
        ret
    """

    def test_entry_thunk_rejected(self):
        machine, entry = _machine(self.SOURCE)
        with pytest.raises(AotError) as excinfo:
            compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
        assert excinfo.value.reason == "unsupported_access"


class TestAotCodegenError:
    """A broken expression template fails to fold/compile: aot refuses
    with ``codegen_error`` and demotes ONE rung — the trace is healthy,
    so the replay engine serves the run."""

    def test_rejected_and_replay_serves(self, cold_artifacts):
        original = aot_module._EXPRS.get("addi")
        aot_module._EXPRS["addi"] = ("i", "r1 = = broken(")
        try:
            machine, entry = _machine(_STRAIGHT)
            with pytest.raises(AotError) as excinfo:
                compile_aot_entry(machine, entry, **_entry_thunk_kwargs())
            assert excinfo.value.reason == "codegen_error"

            cap = _runner_demotion(_toy_kernel("fp_add.reduced.isa"),
                                   expected_engine="replay")
            assert cap.registry.total(
                "engine_rejects_total", engine="aot",
                reason="codegen_error") == 1
            assert cap.registry.total(
                "engine_demotions_total", engine_from="aot",
                reason="not_compilable") == 1
        finally:
            if original is None:
                aot_module._EXPRS.pop("addi", None)
            else:
                aot_module._EXPRS["addi"] = original


class TestAotTraceHooks:
    """An attached trace hook demotes the whole fused tier so the hook
    observes every retired instruction."""

    def test_demotes_and_hook_fires(self):
        seen = []
        cap = _runner_demotion(
            _toy_kernel("fp_mul.reduced.ise"),
            expected_engine="interpreter",
            hook=lambda state, ins: seen.append(ins.mnemonic))
        assert len(seen) == cap.registry.total("kernel_instructions_total")
        assert cap.registry.total(
            "engine_demotions_total", engine_from="aot",
            reason="trace_hooks") == 1
        # ...and the replay rung below then falls back too
        assert cap.registry.total(
            "engine_demotions_total", engine_from="replay",
            reason="trace_hooks") == 1


class TestMachineRunRefusesAot:
    """The aot tier needs a kernel's operand layout, so the raw machine
    refuses it and names the runner instead of demoting silently."""

    def test_raises_and_names_kernel_runner(self):
        machine, entry = _machine(_STRAIGHT)
        with pytest.raises(SimulationError, match="KernelRunner"):
            machine.run(entry, engine="aot")
        assert not machine.aot_supported(entry)


def test_aot_rejection_is_cached_not_retried(cold_artifacts):
    """A refused entry is remembered; later aot requests demote
    without re-running the fuser."""
    with telemetry.capture(fresh=True) as cap:
        runner = KernelRunner(_toy_kernel("fp_add.reduced.ise"),
                              pipeline_config=ROCKET_CONFIG_WITH_CACHES,
                              engine="aot")
        runner.run(3, 5)
        runner.run(3, 5)
        assert cap.registry.total(
            "engine_rejects_total", engine="aot", reason="not_replayable") == 1
        assert cap.registry.total(
            "engine_demotions_total", engine_from="aot",
            reason="not_compilable") == 2


def test_every_declared_aot_reason_is_covered():
    """A new AotError.reason or aot demotion reason cannot land
    without its ladder test in this file."""
    source = open(__file__, encoding="utf-8").read()
    tested = set(re.findall(r'"(not_replayable|unsupported_op|'
                            r'dynamic_address|unsupported_access|'
                            r'codegen_error|not_compilable|'
                            r'trace_hooks)"', source))
    assert tested == (set(AotError.REASONS)
                      | set(aot_module.DEMOTION_REASONS))
