"""The aot tier must be architecturally and cycle-count identical to
the interpreter AND the replay engine, for every kernel.

Same discipline as ``test_replay_vs_interpreter.py``, one tier up: each
check runs the *same* runner (same machine, same assembled image)
through all three engines and compares result limbs, retired
instructions, cycle counts and the complete final register file.  The
golden cycle snapshot (``tests/golden_cycles.json``) is additionally
asserted against aot-engine measurements — fusing whole kernels into
straight-line Python must not move a single pinned number.

On top of the three-way equivalence this module covers the persistent
artifact cache: a second runner construction against a warm cache
binds the stored entry thunk without re-tracing, and a corrupted
artifact file is deleted and silently recompiled.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro import telemetry
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
from repro.rv64.artifacts import cache_dir
from repro.rv64.machine import ENGINES

from tests.differential.generate_golden import GOLDEN_PATH
from tests.helpers import boundary_operand_values

FIELD_OPERATIONS = (OP_FP_MUL, OP_FP_SQR, OP_FP_ADD, OP_FP_SUB)
FIELD_KERNELS = [
    f"{operation}.{variant}"
    for operation in FIELD_OPERATIONS
    for variant in ALL_VARIANTS
]

_RUNNERS: dict[str, KernelRunner] = {}


@pytest.fixture(scope="module", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Keep the suite's artifacts out of the user's real cache dir."""
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_AOT_CACHE",
              str(tmp_path_factory.mktemp("aot-artifacts")))
    yield
    mp.undo()


def runner_for(name: str) -> KernelRunner:
    """Module-lifetime runner pool (assembly is per-kernel pure)."""
    if name not in _RUNNERS:
        kernels = cached_kernels(csidh_toy().p)
        _RUNNERS[name] = KernelRunner(kernels[name], engine="aot")
    return _RUNNERS[name]


def assert_three_way_exact(runner: KernelRunner, values) -> None:
    """One differential observation across all three engines."""
    observed = {}
    for engine in ENGINES:
        run = runner.run(*values, check=False, engine=engine)
        regs = list(runner.machine.state.regs._regs)
        observed[engine] = (run.limbs, run.value, run.instructions,
                            run.cycles, regs)

    name = runner.kernel.name
    interp = observed["interpreter"]
    for engine in ENGINES[1:]:
        got = observed[engine]
        assert got[0] == interp[0], (
            f"{name}: {engine} result limbs diverge on {values}")
        assert got[1] == interp[1], (
            f"{name}: {engine} value diverges on {values}")
        assert got[2] == interp[2], (
            f"{name}: {engine} retired-instruction count diverges "
            f"({got[2]} vs {interp[2]})")
        assert got[3] == interp[3], (
            f"{name}: {engine} cycle count diverges "
            f"({got[3]} vs {interp[3]})")
        assert got[4] == interp[4], (
            f"{name}: {engine} final register state diverges on "
            f"{values}")


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_aot_supported(name):
    """All 16 field-op kernels fuse into aot functions."""
    runner = runner_for(name)
    assert runner.machine.aot_supported(runner.entry)
    assert runner._aot_thunk is not None


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_boundary_operands(name):
    """Exhaustive cartesian boundary sweep, three engines per point."""
    runner = runner_for(name)
    per_operand = boundary_operand_values(runner.kernel,
                                          clip_to_domain=False)
    for values in itertools.product(*per_operand):
        assert_three_way_exact(runner, values)


@pytest.mark.parametrize("name", FIELD_KERNELS)
def test_field_kernels_random_operands(name):
    """Seeded random sweep drawn from each kernel's own sampler."""
    runner = runner_for(name)
    rng = random.Random(0x717)
    for _ in range(15):
        assert_three_way_exact(runner, runner.kernel.sampler(rng))


def test_every_generated_kernel_is_aot_exact():
    """Beyond the field ops: the full kernel matrix (integer multiply,
    Montgomery reduction, ablation variants) fuses exactly."""
    rng = random.Random(0x717)
    for name in cached_kernels(csidh_toy().p):
        runner = runner_for(name)
        assert runner.machine.aot_supported(runner.entry), name
        for _ in range(3):
            assert_three_way_exact(runner, runner.kernel.sampler(rng))


def test_aot_cycles_match_golden_snapshot():
    """aot-engine cycle counts equal the pinned golden snapshot —
    whole-kernel fusion cannot move the paper's headline numbers."""
    golden = json.loads(GOLDEN_PATH.read_text())["moduli"]["csidh-toy"]
    rng = random.Random(0x717)
    for name, want in golden.items():
        runner = runner_for(name)
        run = runner.run(*runner.kernel.sampler(rng), check=False,
                         engine="aot")
        assert run.cycles == want, (
            f"{name}: aot cycles {run.cycles} != golden {want}")


def test_aot_entry_is_compiled_once_and_reused():
    runner = runner_for(f"{OP_FP_ADD}.reduced.ise")
    machine = runner.machine
    rng = random.Random(2)
    entry_first = machine._aot_entry_cache[runner.entry]
    thunk_first = runner._aot_thunk
    runner.run(*runner.kernel.sampler(rng), check=False, engine="aot")
    runner.run(*runner.kernel.sampler(rng), check=False, engine="aot")
    assert machine._aot_entry_cache[runner.entry] is entry_first
    assert runner._aot_thunk is thunk_first


def test_hardened_aot_runner_fuses_each_kernel_once(monkeypatch,
                                                    tmp_path):
    """Checked runs use the runner's entry thunk, not a second fused
    function: one fusion on a cold artifact cache, none on a warm one."""
    monkeypatch.setenv("REPRO_AOT_CACHE", str(tmp_path / "hardened"))
    kernel = cached_kernels(csidh_toy().p)[f"{OP_FP_MUL}.reduced.ise"]
    rng = random.Random(13)
    for want in (1, 0):  # cold cache, then warm
        with telemetry.capture(fresh=True) as cap:
            runner = KernelRunner(kernel, engine="aot", checked=True,
                                  check_interval=1)
            for _ in range(3):
                runner.run(*kernel.sampler(rng))
        registry = cap.registry
        assert registry.total("engine_compiles_total",
                              engine="aot") == want
        assert registry.total("checked_runs_total") == 3
        assert registry.total("kernel_runs_total", engine="aot") == 3


def test_batch_matches_looped_singles():
    """run_batch is semantically the scalar loop, on every engine."""
    runner = runner_for(f"{OP_FP_MUL}.reduced.ise")
    rng = random.Random(5)
    sets = [runner.kernel.sampler(rng) for _ in range(8)]
    looped = [runner.run(*v, check=False, engine="interpreter")
              for v in sets]
    for engine in ENGINES:
        batched = runner.run_batch(sets, check=False, engine=engine)
        assert [r.value for r in batched] == [r.value for r in looped]
        assert [r.limbs for r in batched] == [r.limbs for r in looped]
        assert [r.cycles for r in batched] == [r.cycles for r in looped]
        assert ([r.instructions for r in batched]
                == [r.instructions for r in looped])


def _fresh_runner(kernels, name):
    return KernelRunner(kernels[name], engine="aot")


def test_warm_cache_binds_without_recompiling(monkeypatch, tmp_path):
    """A second runner construction against a warm artifact cache
    loads the stored entry thunk — no re-trace, no re-codegen."""
    monkeypatch.setenv("REPRO_AOT_CACHE", str(tmp_path / "warm"))
    name = f"{OP_FP_MUL}.full.ise"
    kernels = cached_kernels(csidh_toy().p)

    with telemetry.capture() as cold:
        cold_runner = _fresh_runner(kernels, name)
    assert cold.registry.total("aot_artifacts_total", event="write") > 0
    assert list(cache_dir().glob("*.json")), \
        "cold construction must persist an artifact"

    with telemetry.capture() as warm:
        warm_runner = _fresh_runner(kernels, name)
    assert warm.registry.total("aot_artifacts_total", event="hit") > 0
    assert warm.registry.total("engine_compiles_total",
                               engine="aot") == 0, \
        "warm start must not re-run the fuser"
    assert warm_runner._aot_thunk is not None

    rng = random.Random(9)
    values = warm_runner.kernel.sampler(rng)
    warm_run = warm_runner.run(*values, check=False, engine="aot")
    cold_run = cold_runner.run(*values, check=False,
                               engine="interpreter")
    assert warm_run.limbs == cold_run.limbs
    assert warm_run.cycles == cold_run.cycles


def test_corrupt_artifact_is_deleted_and_recompiled(monkeypatch,
                                                    tmp_path):
    """Garbage on disk never surfaces: the loader deletes the file,
    records the invalidation and falls back to a cold compile."""
    monkeypatch.setenv("REPRO_AOT_CACHE", str(tmp_path / "corrupt"))
    name = f"{OP_FP_ADD}.full.isa"
    kernels = cached_kernels(csidh_toy().p)

    _fresh_runner(kernels, name)
    files = list(cache_dir().glob("*.json"))
    assert files
    files[0].write_text("{ not json at all")

    with telemetry.capture() as cap:
        runner = _fresh_runner(kernels, name)
    reg = cap.registry
    assert reg.total("aot_artifacts_total", event="invalidation") > 0
    assert reg.total("engine_compiles_total", engine="aot") > 0, \
        "corruption must fall back to a cold compile"
    assert runner._aot_thunk is not None

    rng = random.Random(11)
    assert_three_way_exact(runner, runner.kernel.sampler(rng))
