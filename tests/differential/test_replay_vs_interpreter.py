"""Replay mode must be architecturally and cycle-count identical to the
interpreter, for every kernel, on random and adversarial operands.

Each check runs the *same* runner (same machine, same assembled image)
once through the fetch-decode-execute interpreter and once through the
compiled trace, then compares result limbs, retired instructions, cycle
counts and the complete final register file.  Boundary operands (0, 1,
``p-1``, all-ones limb vectors — including vectors *outside* the
reference domain, which only a differential oracle can exercise) target
the carry chains and conditional subtractions where the two execution
paths could plausibly diverge.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.csidh.parameters import csidh_toy
from repro.kernels.registry import cached_kernels
from repro.kernels.runner import KernelRunner
from repro.kernels.spec import (
    ALL_VARIANTS,
    OP_FP_ADD,
    OP_FP_MUL,
    OP_FP_SQR,
    OP_FP_SUB,
)
from repro.rv64.pipeline import ROCKET_CONFIG_WITH_CACHES

from tests.helpers import boundary_operand_values

#: The four field operations x four variants = the 16 combinations the
#: simulated field context dispatches to.
FIELD_OPERATIONS = (OP_FP_MUL, OP_FP_SQR, OP_FP_ADD, OP_FP_SUB)
FIELD_KERNELS = [
    f"{operation}.{variant}"
    for operation in FIELD_OPERATIONS
    for variant in ALL_VARIANTS
]

_RUNNERS: dict[str, KernelRunner] = {}


def runner_for(name: str) -> KernelRunner:
    """Module-lifetime runner pool (assembly is per-kernel pure)."""
    if name not in _RUNNERS:
        kernels = cached_kernels(csidh_toy().p)
        _RUNNERS[name] = KernelRunner(kernels[name])
    return _RUNNERS[name]


def assert_replay_exact(runner: KernelRunner, values) -> None:
    """One differential observation: interpreter vs replay."""
    interp = runner.run(*values, check=False, engine="interpreter")
    interp_regs = list(runner.machine.state.regs._regs)
    rep = runner.run(*values, check=False, engine="replay")
    replay_regs = list(runner.machine.state.regs._regs)

    name = runner.kernel.name
    assert rep.limbs == interp.limbs, (
        f"{name}: result limbs diverge on {values}")
    assert rep.value == interp.value
    assert rep.instructions == interp.instructions, (
        f"{name}: retired-instruction counts diverge "
        f"({rep.instructions} vs {interp.instructions})")
    assert rep.cycles == interp.cycles, (
        f"{name}: cycle counts diverge "
        f"({rep.cycles} vs {interp.cycles})")
    assert replay_regs == interp_regs, (
        f"{name}: final register state diverges on {values}")


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_replay_supported(name):
    """All 16 field-op kernels compile to replay traces."""
    runner = runner_for(name)
    assert runner.machine.replay_supported(runner.entry)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_boundary_operands(name):
    """Exhaustive cartesian boundary sweep for each field kernel."""
    runner = runner_for(name)
    per_operand = boundary_operand_values(runner.kernel,
                                          clip_to_domain=False)
    for values in itertools.product(*per_operand):
        assert_replay_exact(runner, values)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_random_operands(name):
    """Seeded random sweep drawn from each kernel's own sampler."""
    runner = runner_for(name)
    rng = random.Random(0xD1FF)
    for _ in range(25):
        assert_replay_exact(runner, runner.kernel.sampler(rng))


def test_every_generated_kernel_is_replay_exact():
    """Beyond the field ops: the full kernel matrix (integer multiply,
    Montgomery reduction, ablation variants) replays exactly."""
    rng = random.Random(0xD1FF)
    for name in cached_kernels(csidh_toy().p):
        runner = runner_for(name)
        assert runner.machine.replay_supported(runner.entry), name
        for _ in range(5):
            assert_replay_exact(runner, runner.kernel.sampler(rng))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_replay_histogram_identical(variant):
    """Dynamic mnemonic histograms agree (straight-line code makes the
    static trace histogram exact)."""
    runner = runner_for(f"{OP_FP_MUL}.{variant}")
    machine = runner.machine
    machine.collect_histogram = True
    try:
        machine.reset()
        interp = machine.run(runner.entry)
        machine.reset()
        rep = machine.run(runner.entry, engine="replay")
        assert sum(rep.histogram.values()) == rep.instructions_retired
        assert rep.histogram == interp.histogram
    finally:
        machine.collect_histogram = False


def test_trace_is_compiled_once_and_reused():
    runner = runner_for(f"{OP_FP_ADD}.reduced.ise")
    machine = runner.machine
    rng = random.Random(2)
    runner.run(*runner.kernel.sampler(rng), check=False, engine="replay")
    trace_first = machine._trace_cache[runner.entry]
    runner.run(*runner.kernel.sampler(rng), check=False, engine="replay")
    assert machine._trace_cache[runner.entry] is trace_first


def test_cache_enabled_timing_falls_back_to_interpreter():
    """Cache miss patterns are history-dependent, so replay refuses and
    the runner transparently interprets — results stay verified."""
    kernels = cached_kernels(csidh_toy().p)
    runner = KernelRunner(
        kernels[f"{OP_FP_MUL}.reduced.ise"],
        pipeline_config=ROCKET_CONFIG_WITH_CACHES,
        engine="replay",
    )
    assert not runner.machine.replay_supported(runner.entry)
    rng = random.Random(3)
    run = runner.run(*runner.kernel.sampler(rng))  # check=True
    assert run.cycles > 0
