"""Turn planned fault sites into armed corruptions of live runners.

:func:`arm_fault` resolves a :class:`~repro.fault.plan.FaultSite`'s raw
selectors against one :class:`~repro.kernels.runner.KernelRunner` and
installs the corruption:

* interpreter sites (``register_flip``, ``memory_flip``) attach a
  one-shot :meth:`Machine.add_trace_hook` that fires at a chosen
  retired-instruction index — attaching a hook also makes fast-engine
  requests run on the interpreter from a reset machine, so the flip
  lands mid-kernel exactly as a transient hardware fault would, and
  every engine reports the same outcome for the same trial;
* replay-cache sites (``replay_step_skip``, ``replay_closure_corrupt``,
  ``replay_cycles_corrupt``) swap the cached
  :class:`~repro.rv64.replay.CompiledTrace` for a poisoned copy —
  *persistent* corruption that stays until recovery invalidates the
  cache entry.  The live **aot entry thunk** is dropped in the same
  arming step (its liveness guard trips and runs demote onto the
  poisoned trace), so the fault is observable from the top of the
  aot → replay → interpreter ladder down;
* ``output_corrupt`` installs a one-shot hook on the runner's result
  limbs, perturbing what the caller sees independently of the engine
  (the aot entry thunk included: the hook transforms the limbs it
  returns).

Every armed fault is recorded as a telemetry event
(``faults_injected_total{site,kernel}``) and returns an
:class:`ArmedFault` whose ``disarm()`` restores the pristine state
(idempotent; campaigns call it in a ``finally``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro import telemetry
from repro.errors import FaultError
from repro.fault.plan import (
    FaultSite,
    SITE_MEMORY_FLIP,
    SITE_OUTPUT_CORRUPT,
    SITE_REGISTER_FLIP,
    SITE_REPLAY_CLOSURE,
    SITE_REPLAY_CYCLES,
    SITE_REPLAY_SKIP,
)
from repro.kernels.layout import RESULT_ADDR
from repro.kernels.runner import KernelRunner
from repro.rv64.replay import _is_terminal_ret


@dataclass(frozen=True)
class ArmedFault:
    """A live fault: what was armed, and how to take it back out."""

    site: FaultSite
    kernel: str
    description: str
    disarm: Callable[[], None]


def _write_candidates(runner: KernelRunner) -> list[tuple[int, int]]:
    """(retired-instruction index, rd) pairs of the kernel's register
    writes, excluding x0 (hard-wired) and ra/sp (control plumbing)."""
    program = runner.machine._program
    pc = runner.entry
    index = 0
    candidates: list[tuple[int, int]] = []
    while True:
        pair = program.get(pc)
        if pair is None:
            break
        ins, spec = pair
        if _is_terminal_ret(ins) or ins.mnemonic == "ebreak":
            break
        if getattr(spec, "writes_rd", False) and ins.rd not in (0, 1, 2):
            candidates.append((index, ins.rd))
        pc += 4
        index += 1
    return candidates


def _one_shot_hook(machine, fire_index: int, payload) -> Callable:
    """A trace hook calling *payload(state)* once, at *fire_index*."""
    counter = 0
    fired = False

    def hook(state, ins) -> None:
        nonlocal counter, fired
        if not fired and counter == fire_index:
            fired = True
            payload(state)
        counter += 1

    machine.add_trace_hook(hook)
    return hook


def _poisoned_trace(runner: KernelRunner):
    machine = runner.machine
    trace = machine._trace_for(runner.entry)
    if trace is None:
        raise FaultError(
            f"{runner.kernel.name} is not replayable under this "
            f"pipeline configuration; replay-cache faults need a "
            f"compiled trace"
        )
    return machine, trace


def _install_poisoned_trace(
    machine, entry: int, original, poisoned
) -> Callable[[], None]:
    """Swap *poisoned* in for *entry*'s trace and take the live aot entry
    thunk out while the fault is armed; returns the disarm callable.

    The fused aot thunk computes results from the expression graph —
    it never consults ``trace.steps`` — so poisoning the trace cannot
    reach it; symmetry demands the tier be dropped instead: the entry
    thunk's liveness guard trips, runs demote onto the poisoned replay
    trace, and the armed fault is visible from every tier.  Nothing
    re-fuses the kernel while the fault is armed: only a new runner
    compiles an entry thunk."""
    machine._trace_cache[entry] = poisoned
    entry_fn = machine._aot_entry_cache.pop(entry, None)

    def disarm() -> None:
        # harmless if recovery already rebuilt the runner: the poisoned
        # machine is unreachable then, and restoring it changes nothing
        machine._trace_cache[entry] = original
        if entry_fn is not None:
            machine._aot_entry_cache[entry] = entry_fn

    return disarm


def arm_fault(runner: KernelRunner, site: FaultSite) -> ArmedFault:
    """Arm *site* on *runner*; returns the disarm handle."""
    kind = site.site
    kernel = runner.kernel.name
    machine = runner.machine

    if kind == SITE_REGISTER_FLIP:
        candidates = _write_candidates(runner)
        if not candidates:
            raise FaultError(f"{kernel}: no register-write sites")
        index, reg = candidates[site.step % len(candidates)]
        mask = 1 << (site.bit % 64)

        def flip_register(state) -> None:
            state.regs._regs[reg] ^= mask

        hook = _one_shot_hook(machine, index, flip_register)
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"flip bit {site.bit % 64} of x{reg} after "
                         f"instruction {index}"),
            disarm=lambda: machine.remove_trace_hook(hook),
        )

    if kind == SITE_MEMORY_FLIP:
        candidates = _write_candidates(runner)
        index = (candidates[site.step % len(candidates)][0]
                 if candidates else 0)
        offset = site.lane % (8 * runner.kernel.output_limbs)
        address = RESULT_ADDR + offset
        mask = 1 << (site.bit % 8)

        def flip_byte(state) -> None:
            raw = state.mem.read_bytes(address, 1)
            state.mem.write_bytes(address, bytes((raw[0] ^ mask,)))

        hook = _one_shot_hook(machine, index, flip_byte)
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"flip bit {site.bit % 8} of result byte "
                         f"{offset} after instruction {index}"),
            disarm=lambda: machine.remove_trace_hook(hook),
        )

    if kind == SITE_REPLAY_SKIP:
        machine, trace = _poisoned_trace(runner)
        k = site.step % len(trace.steps)
        steps = trace.steps[:k] + trace.steps[k + 1:]
        return ArmedFault(
            site=site, kernel=kernel,
            description=f"skip replay step {k}/{len(trace.steps)}",
            disarm=_install_poisoned_trace(
                machine, runner.entry, trace, replace(trace, steps=steps)),
        )

    if kind == SITE_REPLAY_CLOSURE:
        machine, trace = _poisoned_trace(runner)
        candidates = _write_candidates(runner)
        if not candidates:
            raise FaultError(f"{kernel}: no register-write sites")
        reg = candidates[site.lane % len(candidates)][1]
        mask = 1 << (site.bit % 64)
        k = site.step % len(trace.steps)
        regs = machine.state.regs._regs
        original_step = trace.steps[k]

        def corrupted_step() -> None:
            original_step()
            regs[reg] ^= mask

        steps = trace.steps[:k] + (corrupted_step,) + trace.steps[k + 1:]
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"replay step {k} additionally flips bit "
                         f"{site.bit % 64} of x{reg}"),
            disarm=_install_poisoned_trace(
                machine, runner.entry, trace, replace(trace, steps=steps)),
        )

    if kind == SITE_REPLAY_CYCLES:
        machine, trace = _poisoned_trace(runner)
        if trace.cycles is None:
            raise FaultError(
                f"{kernel}: trace has no static cycle count to corrupt"
            )
        corrupted = max(1, trace.cycles + (site.delta if site.bit % 2
                                           else -site.delta))
        if corrupted == trace.cycles:
            corrupted += 1
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"static cycle count {trace.cycles} -> "
                         f"{corrupted}"),
            disarm=_install_poisoned_trace(
                machine, runner.entry, trace,
                replace(trace, cycles=corrupted)),
        )

    if kind == SITE_OUTPUT_CORRUPT:
        fired = False
        bit = site.bit % 57  # within every radix's limb width

        def perturb(limbs):
            nonlocal fired
            if fired:
                return limbs
            fired = True
            i = site.lane % len(limbs)
            return (limbs[:i] + (limbs[i] ^ (1 << bit),)
                    + limbs[i + 1:])

        runner.set_fault_hook(perturb)
        return ArmedFault(
            site=site, kernel=kernel,
            description=(f"flip bit {bit} of output limb "
                         f"{site.lane % runner.kernel.output_limbs}"),
            disarm=runner.clear_fault_hook,
        )

    raise FaultError(f"unknown fault site {kind!r}")


def arm_and_record(runner: KernelRunner, site: FaultSite) -> ArmedFault:
    """:func:`arm_fault` plus the telemetry injection event."""
    armed = arm_fault(runner, site)
    telemetry.inc("faults_injected_total", site=site.site,
                  kernel=armed.kernel)
    return armed
