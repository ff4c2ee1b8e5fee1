"""Metrics registry: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a named collection of metric families.
Each family owns zero or more *children*, one per distinct label value
combination (the Prometheus data model, scaled down to what a
single-process simulator needs):

* :class:`Counter` — monotonically increasing totals (kernel runs,
  engine demotions, runner-pool lookups);
* :class:`Gauge` — last-written values (pool size, configured limits);
* :class:`Histogram` — bucketed distributions with count/sum/min/max
  (request latencies, compile times).

A registry only holds the families its *catalogue* declares: a mapping
from family name to :class:`FamilySpec` (kind, label names and, for
histograms, bucket bounds).  Writing an undeclared name, or a label set
other than the declared one, raises :class:`TelemetryError`; both
checks run when a family or a series is created, never on a
steady-state increment.  Reads (:meth:`MetricsRegistry.total`,
:meth:`~MetricsRegistry.breakdown`, :meth:`~MetricsRegistry.get`) never
create anything.  The built-in instrumentation declares its families in
:data:`repro.telemetry.CATALOGUE` and writes to
:data:`repro.telemetry.REGISTRY`; tests and embedders construct
private registries over their own catalogues.

Everything here is bookkeeping on plain dicts — no background threads,
no I/O.  Exporters live in :mod:`repro.telemetry.export`.

Since the service layer (:mod:`repro.service`) executes kernel runs on
worker threads, every *family-level* mutation (``Counter.inc``,
``Gauge.set``/``inc``/``dec``, ``Histogram.observe``) and every
get-or-create (family or child) is serialised on one re-entrant module
lock, :data:`MUTATION_LOCK` — concurrent sessions can therefore never
lose a counter update (``tests/service/test_concurrent_sessions.py``
asserts the sums are exact).  The span recorder shares the same lock so
cycle attribution composes with it.  Reads used by exporters
(``samples``/``to_dict``) snapshot under the lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import ReproError

#: One re-entrant lock for all telemetry mutation (metrics *and* span
#: cycle attribution): uncontended acquisition is ~100ns, far below the
#: enabled-capture budget guarded by
#: ``benchmarks/test_telemetry_overhead.py``.
MUTATION_LOCK = threading.RLock()


class TelemetryError(ReproError):
    """Misuse of the telemetry layer (type clash, bad labels, ...)."""

    code = "telemetry"


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# Metric children (one per label combination)
# ---------------------------------------------------------------------------


class CounterChild:
    """A single monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        self.value += amount


class GaugeChild:
    """A single last-value-wins series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramChild:
    """A single bucketed distribution."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1


# ---------------------------------------------------------------------------
# Metric families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """The declaration of one metric family in a registry's catalogue.

    ``labels`` names every label a series of the family carries, in
    documentation order; ``buckets`` are the histogram upper bounds
    (unused by counters and gauges).
    """

    kind: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()


class _Family:
    """Shared get-or-create child bookkeeping for one metric name."""

    kind = "untyped"
    child_cls: type = CounterChild

    def __init__(self, name: str, spec: FamilySpec) -> None:
        self.name = name
        self.label_names = tuple(sorted(spec.labels))
        self._children: dict[LabelKey, object] = {}

    def _make_child(self):
        return self.child_cls()

    def labels(self, **labels: object):
        """Child for one label combination (created on first use).

        Creation checks the label names against the declaration, so a
        misspelt label raises instead of starting a second series.
        """
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            if tuple(name for name, _ in key) != self.label_names:
                raise TelemetryError(
                    f"metric {self.name!r} takes labels "
                    f"{list(self.label_names)}, got {sorted(labels)}"
                )
            with MUTATION_LOCK:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    @property
    def unlabeled(self):
        """The no-label child (shorthand for ``labels()``)."""
        return self.labels()

    def children(self) -> Iterator[tuple[LabelKey, object]]:
        yield from self._children.items()


class Counter(_Family):
    kind = "counter"
    child_cls = CounterChild

    def inc(self, amount: int = 1, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.inc(amount)


class Gauge(_Family):
    kind = "gauge"
    child_cls = GaugeChild

    def set(self, value: float, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.inc(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.dec(amount)


class Histogram(_Family):
    kind = "histogram"
    child_cls = HistogramChild

    def __init__(self, name: str, spec: FamilySpec) -> None:
        super().__init__(name, spec)
        self.bounds = tuple(sorted(spec.buckets))

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.bounds)

    def observe(self, value: float, **labels: object) -> None:
        child = self.labels(**labels)
        with MUTATION_LOCK:
            child.observe(value)


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSample:
    """One exported time-series point: ``name{labels} = value``."""

    name: str
    kind: str
    labels: LabelKey
    value: float


class MetricsRegistry:
    """The families declared by *catalogue*, created on first write.

    :meth:`family` (and its kind-checked forms ``counter``/``gauge``/
    ``histogram``) is get-or-create for writers; an undeclared name, or
    a kind other than the declared one, raises :class:`TelemetryError`.
    Readers use :meth:`get`, :meth:`total` and :meth:`breakdown`, which
    never create a family.
    """

    def __init__(
        self, catalogue: Mapping[str, FamilySpec] | None = None
    ) -> None:
        self.catalogue = dict(catalogue or {})
        self._families: dict[str, _Family] = {}

    def _spec(self, name: str) -> FamilySpec:
        spec = self.catalogue.get(name)
        if spec is None:
            raise TelemetryError(f"metric {name!r} is not declared")
        return spec

    def family(self, name: str) -> _Family:
        """The family *name*, created on first use."""
        family = self._families.get(name)
        if family is None:
            spec = self._spec(name)
            with MUTATION_LOCK:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = \
                        _KINDS[spec.kind](name, spec)
        return family

    def _typed(self, name: str, cls):
        family = self.family(name)
        if type(family) is not cls:
            raise TelemetryError(
                f"metric {name!r} is declared as a {family.kind}, "
                f"not a {cls.kind}"
            )
        return family

    def counter(self, name: str) -> Counter:
        return self._typed(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._typed(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._typed(name, Histogram)

    def families(self) -> Iterator[_Family]:
        yield from self._families.values()

    def reset(self) -> None:
        """Drop every family (fresh registry state)."""
        self._families.clear()

    # -- reads (never create a family) ---------------------------------------

    def get(self, name: str) -> _Family | None:
        """The family *name* if anything has been written to it."""
        self._spec(name)
        return self._families.get(name)

    def _matching(self, name: str, match: dict) -> list:
        """``(label key, value)`` of each counter/gauge series of *name*
        whose labels include *match*."""
        family = self.get(name)
        if family is None:
            return []
        want = set(_label_key(match))
        with MUTATION_LOCK:
            return [(key, child.value) for key, child in family.children()
                    if want <= set(key)]

    def breakdown(self, name: str, label: str,
                  **match: object) -> dict[str, float]:
        """Values summed per value of *label*, over the series whose
        labels include *match*."""
        out: dict[str, float] = {}
        for key, value in self._matching(name, match):
            group = dict(key)[label]
            out[group] = out.get(group, 0) + value
        return out

    def total(self, name: str, **match: object) -> float:
        """Sum over the series whose labels include *match* (0 when
        nothing has been written)."""
        return sum(value for _, value in self._matching(name, match))

    # -- export views --------------------------------------------------------

    def samples(self) -> Iterator[MetricSample]:
        """Flatten every child into exportable samples.

        Histograms flatten to ``_count``/``_sum``/``_bucket`` series,
        mirroring the Prometheus exposition conventions.  The flatten
        runs under :data:`MUTATION_LOCK`, so an export taken while
        worker threads are recording is a consistent snapshot.
        """
        with MUTATION_LOCK:
            return iter(list(self._samples()))

    def _samples(self) -> Iterator[MetricSample]:
        for family in list(self._families.values()):
            if isinstance(family, Histogram):
                for key, child in family.children():
                    assert isinstance(child, HistogramChild)
                    yield MetricSample(f"{family.name}_count",
                                       family.kind, key, child.count)
                    yield MetricSample(f"{family.name}_sum",
                                       family.kind, key, child.sum)
                    cumulative = 0
                    for bound, count in zip(child.bounds, child.buckets):
                        cumulative += count
                        yield MetricSample(
                            f"{family.name}_bucket", family.kind,
                            key + (("le", str(bound)),), cumulative)
                    yield MetricSample(
                        f"{family.name}_bucket", family.kind,
                        key + (("le", "+Inf"),), child.count)
            else:
                for key, child in family.children():
                    yield MetricSample(family.name, family.kind, key,
                                       child.value)  # type: ignore

    def to_dict(self) -> dict[str, list[dict[str, object]]]:
        """JSON-friendly dump: ``name -> [{labels, value}, ...]``."""
        out: dict[str, list[dict[str, object]]] = {}
        for sample in self.samples():
            out.setdefault(sample.name, []).append({
                "labels": dict(sample.labels),
                "value": sample.value,
            })
        return out

