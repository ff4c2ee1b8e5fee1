"""Telemetry: hierarchical cycle-attribution spans + a metrics registry.

The observability layer behind ``repro profile`` and the
``--telemetry`` CLI flags (see ``docs/OBSERVABILITY.md``).  Three
pieces:

* :mod:`repro.telemetry.metrics` — counters, gauges and histograms
  with labels, collected in a :class:`MetricsRegistry`;
* :mod:`repro.telemetry.spans` — a :class:`Tracer` recording a tree of
  spans that accumulate wall-clock seconds and *simulated cycles*, so
  an instrumented protocol run decomposes exactly like the paper's
  Table 4 (protocol -> curve ops -> isogenies -> kernels);
* :mod:`repro.telemetry.export` — JSON / JSONL / Prometheus-text
  exporters and the ``BENCH_*.json`` perf-trajectory artifact.

This module owns the **process-global instances** (:data:`TRACER`,
:data:`REGISTRY`), the :data:`CATALOGUE` declaring every built-in
metric family, and the recorders the rest of the codebase calls:
:func:`inc`, :func:`observe` and :func:`set_gauge` write any declared
family by name, and :func:`record_kernel_run` also attributes a kernel
run's cycles to the open span.  Everything is **disabled by default**:
``span()`` hands out a shared no-op context manager and every recorder
returns after one boolean test, so instrumentation on the kernel-run
hot path costs nanoseconds until :func:`enable` (or :func:`capture`)
turns recording on.  Private :class:`Tracer` / :class:`MetricsRegistry`
instances remain plain constructible objects for tests and embedders.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.metrics import (
    Counter,
    FamilySpec,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.spans import SpanNode, Tracer, render_span_tree

__all__ = [
    "Counter", "FamilySpec", "Gauge", "Histogram", "MetricsRegistry",
    "SpanNode", "Tracer", "TelemetryError", "TraceContext",
    "CATALOGUE", "TRACER", "REGISTRY",
    "enabled", "enable", "disable", "reset", "capture", "span",
    "add_cycles", "render_span_tree",
    "new_trace_id", "current_trace", "request_trace", "activate",
    "inc", "observe", "set_gauge", "record_kernel_run",
    "current_span_path",
]

#: Bucket bounds (seconds) for the wall-time histograms.
SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_C, _G, _H = "counter", "gauge", "histogram"

#: Every built-in metric family: name -> kind, label names (and
#: histogram buckets).  ``docs/OBSERVABILITY.md`` documents each one;
#: ``tests/test_telemetry.py`` checks that table against this one.
CATALOGUE: dict[str, FamilySpec] = {
    # kernel runners and the engine ladder (repro.kernels, repro.rv64)
    "kernel_runs_total": FamilySpec(_C, ("kernel", "engine")),
    "kernel_cycles_total": FamilySpec(_C, ("kernel",)),
    "kernel_instructions_total": FamilySpec(_C, ("kernel",)),
    "kernel_check_failures_total": FamilySpec(_C, ("kernel",)),
    "kernel_batches_total": FamilySpec(_C, ("kernel", "engine")),
    "kernel_batch_items_total": FamilySpec(_C, ("kernel", "engine")),
    "engine_compiles_total": FamilySpec(_C, ("engine",)),
    "engine_compile_seconds": FamilySpec(_H, ("engine",),
                                         SECONDS_BUCKETS),
    "engine_rejects_total": FamilySpec(_C, ("engine", "reason")),
    "engine_demotions_total": FamilySpec(
        _C, ("engine_from", "engine_to", "reason")),
    "engine_evictions_total": FamilySpec(_C, ("engine",)),
    "aot_artifacts_total": FamilySpec(_C, ("event",)),
    "runner_pool_lookups_total": FamilySpec(_C, ("outcome",)),
    "runner_pool_size": FamilySpec(_G),
    # fault injection and the hardened execution layer (repro.fault)
    "faults_injected_total": FamilySpec(_C, ("site", "kernel")),
    "faults_detected_total": FamilySpec(_C, ("where", "engine")),
    "fault_recoveries_total": FamilySpec(_C, ("operation", "outcome")),
    "checked_runs_total": FamilySpec(_C, ("kernel",)),
    "runner_evictions_total": FamilySpec(_C, ("kernel",)),
    # the multi-tenant key-exchange service (repro.service)
    "service_requests_total": FamilySpec(_C, ("tenant", "op", "outcome")),
    "service_rejections_total": FamilySpec(_C, ("tenant", "reason")),
    "service_request_seconds": FamilySpec(_H, ("op",), SECONDS_BUCKETS),
    "service_inflight": FamilySpec(_G, ("tenant",)),
    "service_demotions_total": FamilySpec(
        _C, ("tenant", "engine_from", "engine_to", "reason")),
    "service_promotions_total": FamilySpec(_C, ("tenant", "engine_to")),
    "service_coalesced_batches_total": FamilySpec(_C, ("op",)),
    "service_coalesced_items_total": FamilySpec(_C, ("op",)),
    "service_deadline_exceeded_total": FamilySpec(_C, ("op", "where")),
    "service_retries_total": FamilySpec(_C, ("op", "reason")),
    "service_reconnects_total": FamilySpec(_C),
    "service_internal_errors_total": FamilySpec(_C, ("op",)),
    "circuit_state": FamilySpec(_G, ("tenant",)),
    # network chaos (repro.chaos)
    "chaos_injections_total": FamilySpec(_C, ("kind",)),
    "chaos_trials_total": FamilySpec(_C, ("kind", "outcome")),
    # sharded multi-process execution (repro.shard)
    "shard_completed_total": FamilySpec(_C, ("worker",)),
    "shard_cycles_total": FamilySpec(_C, ("worker",)),
    "shard_instructions_total": FamilySpec(_C, ("worker",)),
    "shard_steals_total": FamilySpec(_C, ("worker",)),
    "shard_requeues_total": FamilySpec(_C, ("shard",)),
    "shard_worker_failures_total": FamilySpec(_C, ("worker",)),
    "shard_checkpoint_records_total": FamilySpec(_C),
}

#: Process-global span recorder (disabled until :func:`enable`).
TRACER = Tracer()

#: Process-global metrics registry fed by the built-in instrumentation.
REGISTRY = MetricsRegistry(CATALOGUE)


def enabled() -> bool:
    """Whether telemetry recording is currently on."""
    return TRACER.enabled


def enable() -> None:
    """Turn recording on (spans and metrics)."""
    TRACER.enabled = True


def disable() -> None:
    """Turn recording off (recorded data is kept)."""
    TRACER.enabled = False


def reset() -> None:
    """Drop all recorded spans and metrics."""
    TRACER.reset()
    REGISTRY.reset()


def span(name: str, **labels: object):
    """Open a span under the current one (no-op while disabled)."""
    return TRACER.span(name, **labels)


def add_cycles(cycles: int) -> None:
    """Attribute simulated cycles to the innermost open span."""
    TRACER.add_cycles(cycles)


def current_span_path():
    """The open span stack as ``(name, labels)`` frames (root first)."""
    return TRACER.current_path()


@dataclass(frozen=True)
class Capture:
    """Handle to the telemetry state recorded by :func:`capture`."""

    tracer: Tracer
    registry: MetricsRegistry

    @property
    def root(self) -> SpanNode:
        return self.tracer.root


@contextmanager
def capture(*, fresh: bool = True) -> Iterator[Capture]:
    """Enable telemetry for a ``with`` block.

    With ``fresh`` (the default) the block records into **private**
    :class:`Tracer` / :class:`MetricsRegistry` instances installed as
    the process globals for the block's duration, so the capture holds
    exactly the block's activity and the returned :class:`Capture`
    stays readable after later :func:`reset` calls.  With
    ``fresh=False`` the block records into the existing global state
    (accumulating across captures).  The prior globals and
    enabled/disabled flag are restored on exit.
    """
    global TRACER, REGISTRY
    if fresh:
        tracer, registry = Tracer(), MetricsRegistry(CATALOGUE)
    else:
        tracer, registry = TRACER, REGISTRY
    prior_tracer, prior_registry = TRACER, REGISTRY
    prior_enabled = tracer.enabled
    TRACER, REGISTRY = tracer, registry
    tracer.enabled = True
    try:
        yield Capture(tracer, registry)
    finally:
        tracer.enabled = prior_enabled
        TRACER, REGISTRY = prior_tracer, prior_registry


# ---------------------------------------------------------------------------
# Recorders (called from the hot paths; each starts with the
# disabled-fast-path test and must stay call-overhead cheap)
# ---------------------------------------------------------------------------


def inc(name: str, amount: float = 1, **labels: object) -> None:
    """Add *amount* to the counter or gauge *name*."""
    if not TRACER.enabled:
        return
    REGISTRY.family(name).inc(amount, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record *value* in the histogram *name*."""
    if not TRACER.enabled:
        return
    REGISTRY.histogram(name).observe(value, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set the gauge *name* to *value*."""
    if not TRACER.enabled:
        return
    REGISTRY.gauge(name).set(value, **labels)


def record_kernel_run(
    kernel: str, engine: str, cycles: int, instructions: int
) -> None:
    """One :class:`~repro.kernels.runner.KernelRunner` execution: its
    counts, and its cycles attributed to the open span."""
    if not TRACER.enabled:
        return
    TRACER.add_kernel_cycles(kernel, engine, cycles)
    family = REGISTRY.family
    family("kernel_runs_total").inc(kernel=kernel, engine=engine)
    family("kernel_cycles_total").inc(cycles, kernel=kernel)
    family("kernel_instructions_total").inc(instructions, kernel=kernel)


# -- per-request trace contexts (see repro.telemetry.tracing) ----------------
# Imported last: tracing reads this module's globals at call time, so
# the import must not run before TRACER/REGISTRY exist.

from repro.telemetry.tracing import (  # noqa: E402
    TraceContext,
    activate,
    current_trace,
    new_trace_id,
    request_trace,
)
