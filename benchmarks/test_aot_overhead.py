"""Speedup guards for the aot execution tier and its artifact cache.

The engine ladder's speed contract:

* the aot engine runs the toy group action at least **4x** faster than
  the replay engine — whole-kernel fusion must strip the per-step
  closure dispatch replay still pays;
* constructing runners against a **warm** artifact cache is faster
  than a cold construction (trace + symbolic execution + codegen are
  skipped; the stored thunk source is just re-bound);
* ``run_batch`` on the replay engine beats looped single calls by at
  least **1.5x** on a small kernel, where the per-call marshalling
  overhead dominates;
* the lower floors stay intact — replay > 3x over the interpreter,
  checked mode < 2x over plain — so the top rung cannot silently
  compress the rungs below it.
"""

from __future__ import annotations

import random
import time

from repro.csidh.group_action import group_action
from repro.csidh.parameters import csidh_toy
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.registry import cached_kernels, cached_runner
from repro.kernels.runner import KernelRunner

EXPONENTS = (1, -1, 1)


def _run_action(*, engine: str | None = None,
                checked: bool = False) -> float:
    params = csidh_toy()
    field = SimulatedFieldContext(params.p, engine=engine,
                                  checked=checked)
    start = time.perf_counter()
    group_action(params, field, 0, EXPONENTS, random.Random(3))
    return time.perf_counter() - start


def _best_of(n: int, run) -> float:
    return min(run() for _ in range(n))


def test_aot_at_least_4x_over_replay():
    """The fused tier quarters (at least) the replay wall time on a
    full toy group action."""
    _run_action(engine="replay")   # warm pools + trace caches
    _run_action(engine="aot")      # warm pools + aot caches
    # interleave the two measurements so a load spike hits both sides
    replay = aot = float("inf")
    for _ in range(4):
        replay = min(replay, _run_action(engine="replay"))
        aot = min(aot, _run_action(engine="aot"))
    ratio = replay / aot
    print(f"\n=== toy action: replay {replay*1e3:.1f} ms, "
          f"aot {aot*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio > 4.0


def _construct_all(kernels) -> float:
    start = time.perf_counter()
    for kernel in kernels.values():
        KernelRunner(kernel, engine="aot")
    return time.perf_counter() - start


def test_warm_artifact_cache_beats_cold_start(monkeypatch, tmp_path):
    """Binding persisted thunks is faster than re-tracing and re-fusing
    the whole kernel matrix from scratch."""
    kernels = cached_kernels(csidh_toy().p)

    cold = float("inf")
    for index in range(3):
        monkeypatch.setenv("REPRO_AOT_CACHE",
                           str(tmp_path / f"cold{index}"))
        cold = min(cold, _construct_all(kernels))

    warm_dir = tmp_path / "warm"
    monkeypatch.setenv("REPRO_AOT_CACHE", str(warm_dir))
    _construct_all(kernels)  # populate the cache
    warm = _best_of(3, lambda: _construct_all(kernels))

    ratio = cold / warm
    print(f"\n=== {len(kernels)} runners: cold {cold*1e3:.1f} ms, "
          f"warm {warm*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert warm < cold


def test_replay_floor_over_interpreter_intact():
    """PR 1's guard: replay stays >3x faster than the interpreter."""
    _run_action(engine="interpreter")
    _run_action(engine="replay")
    interp = _best_of(2, lambda: _run_action(engine="interpreter"))
    replay = _best_of(3, lambda: _run_action(engine="replay"))
    ratio = interp / replay
    print(f"\n=== toy action: interpreter {interp*1e3:.1f} ms, "
          f"replay {replay*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio > 3.0


def test_checked_mode_guard_intact():
    """PR 3's guard: hardening still costs < 2x over plain replay."""
    _run_action()
    _run_action(checked=True)
    plain = _best_of(3, _run_action)
    checked = _best_of(3, lambda: _run_action(checked=True))
    ratio = checked / plain
    print(f"\n=== toy action: plain {plain*1e3:.1f} ms, "
          f"checked {checked*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio < 2.0


def _time_batch_vs_loop(engine: str, n: int = 200):
    p = csidh_toy().p
    runner = cached_runner(p, "fp_add.reduced.ise", engine=engine)
    rng = random.Random(17)
    sets = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
    runner.run_batch(sets[:4], check=False)      # warm compile caches
    [runner.run(*v, check=False) for v in sets[:4]]
    # interleave the two measurements so a load spike hits both sides
    loop = batch = float("inf")
    for _ in range(5):
        loop = min(loop, _timed(
            lambda: [runner.run(*v, check=False) for v in sets]))
        batch = min(batch, _timed(
            lambda: runner.run_batch(sets, check=False)))
    return loop, batch


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def test_replay_batch_at_least_1_5x_over_looped_singles():
    """Batching amortises per-call marshal/dispatch overhead: on the
    replay engine a small kernel gains >=1.5x."""
    loop, batch = _time_batch_vs_loop("replay")
    ratio = loop / batch
    print(f"\n=== fp_add replay x200: loop {loop*1e3:.1f} ms, "
          f"batch {batch*1e3:.1f} ms ({ratio:.2f}x) ===")
    assert ratio > 1.5
