"""One benchmark workload, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src REPRO_AOT_CACHE=<empty dir> python3 perfbench/workloads.py \
        --workload action-mini --seed 1 --seconds 20 --mode measure --out r.json

Modes: ``setup`` stops once the program is ready for its first timed
operation; ``measure`` also runs the untraced, timed load; ``trace``
runs the passes that give the per-layer metrics instead.  The result
(raw samples, counts and the monotonic time at which set-up ended) is
written as JSON to ``--out``; ``run.py`` turns it into metrics.

Every output is checked against the pure-Python ``FieldContext``
oracle.  A stalled run dumps every thread's stack (``faulthandler``)
and exits when ``--cap`` seconds have passed.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import itertools
import json
import os
import random
import resource
import time
from contextlib import nullcontext

from reference import Speed, factor, unit_seconds
from spans import END, GROUP, START, Tracer, mean_us
from stats import MIN_BEYOND, failed_ratio

#: p90 needs this many samples so that MIN_BEYOND lie beyond it.
MIN_SAMPLES = 10 * MIN_BEYOND
VARIANT = "reduced.ise"
ENGINE = "aot"
FIELD_OPS = ("mul", "sqr", "add", "sub")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def set_cpus(cpus) -> None:
    """Let every thread of this process run only on *cpus*."""
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpus)


def seconds_of(spans) -> float:
    return sum(span[END] - span[START] for span in spans) / 1e9


# -- wrappers shared by the workloads ----------------------------------------


def trace_setup(tracer: Tracer) -> None:
    """Runner construction (aot compile or artifact load) and the
    on-disk artifact lookups it makes."""
    from repro.kernels.runner import KernelRunner
    from repro.rv64 import artifacts

    def count_lookup(payload, _args) -> None:
        key = "artifact_hits" if payload is not None else "artifact_misses"
        tracer.counts[key] += 1

    tracer.patch(KernelRunner, "__init__", tracer.nested(
        "rv64.runner_init", KernelRunner.__init__))
    tracer.patch(artifacts, "load_artifact", tracer.nested(
        "rv64.load_artifact", artifacts.load_artifact, after=count_lookup))


def setup_metrics(tracer: Tracer) -> dict:
    return {
        "rv64.aot_compile_s": seconds_of(tracer.named("rv64.runner_init")),
        "rv64.artifact_hits": tracer.counts["artifact_hits"],
        "rv64.artifact_misses": tracer.counts["artifact_misses"],
    }


def trace_layers(tracer: Tracer) -> None:
    """Field ops, kernel runs and telemetry counter increments."""
    from repro.field.simulated import SimulatedFieldContext
    from repro.kernels.runner import KernelRunner
    from repro.telemetry.metrics import Counter

    def count_run(run, _args) -> None:
        tracer.counts["instructions"] += run.instructions

    def count_batch(runs, _args) -> None:
        tracer.counts["batch_items"] += len(runs)

    for op in FIELD_OPS:
        tracer.patch(SimulatedFieldContext, op, tracer.nested(
            f"field.{op}", getattr(SimulatedFieldContext, op)))
    tracer.patch(KernelRunner, "run", tracer.nested(
        "kernels.run", KernelRunner.run, after=count_run))
    tracer.patch(KernelRunner, "run_batch", tracer.nested(
        "kernels.run_batch", KernelRunner.run_batch, after=count_batch))
    tracer.patch(Counter, "inc", tracer.nested(
        "telemetry.inc", Counter.inc))


def layer_metrics(tracer: Tracer) -> dict:
    """Field, kernel and telemetry-increment metrics from the spans."""
    metrics = {}
    n_ops = 0
    for op in FIELD_OPS:
        spans = tracer.named(f"field.{op}")
        n_ops += len(spans)
        metrics[f"field.{op}_us"] = mean_us(spans)
    runs = tracer.named("kernels.run")
    batches = tracer.named("kernels.run_batch")
    run_s = seconds_of(runs)
    metrics["field.kernel_runs_per_op"] = len(runs) / n_ops if n_ops else 0
    metrics["kernels.run_us"] = mean_us(runs)
    metrics["kernels.sim_mips"] = (
        tracer.counts["instructions"] / run_s / 1e6 if run_s else 0)
    metrics["kernels.batch_calls"] = len(batches)
    metrics["kernels.batch_items_per_call"] = (
        tracer.counts["batch_items"] / len(batches) if batches else 0)
    metrics["telemetry.inc_us"] = mean_us(tracer.named("telemetry.inc"))
    return metrics


def action_self_ms(tracer: Tracer) -> float:
    actions = tracer.named("csidh.group_action")
    if not actions:
        return 0.0
    children = tracer.children()
    return sum(tracer.self_ns(span, children)
               for span in actions) / len(actions) / 1e6


def static_costs(p: int) -> dict:
    """Static cycle count of each fp kernel (timing is data-independent,
    so one from-reset trace gives the cost of every run)."""
    from repro.kernels.registry import cached_kernels
    from repro.kernels.runner import KernelRunner

    kernels = cached_kernels(p)
    return {op: KernelRunner(kernels[f"fp_{op}.{VARIANT}"],
                             engine="replay").static_cycles()
            for op in FIELD_OPS}


def dyn_over_composed(p: int, cycles: int, ops: dict) -> float:
    """Dynamic cycles over the composed model's Σ count × kernel cost."""
    costs = static_costs(p)
    composed = sum(ops[op] * costs[op] for op in FIELD_OPS)
    return cycles / composed if composed else 0.0


def op_counts(counter) -> dict:
    return {op: getattr(counter, op) for op in FIELD_OPS}


def op_delta(after: dict, before: dict) -> dict:
    return {op: after[op] - before[op] for op in FIELD_OPS}


# -- action-mini --------------------------------------------------------------


class ActionMini:
    """Sequential CSIDH-mini group actions on the aot field context."""

    TRACED_ACTIONS = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.csidh.parameters import csidh_mini
        from repro.field.counters import OpCounter
        from repro.field.simulated import SimulatedFieldContext

        self.params = csidh_mini()
        self.counter = OpCounter()
        self.field = SimulatedFieldContext(
            self.params.p, variant=VARIANT, engine=ENGINE,
            counter=self.counter)

    def cases(self):
        """Endless ``(private key, rng seed)`` pairs from the seed."""
        rng = random.Random(self.seed)
        while True:
            yield self.params.sample_private_key(rng), rng.getrandbits(64)

    def act(self, cases, field, action) -> tuple[list, list]:
        """Run *action* on *cases*; per-action seconds and outputs."""
        times, outputs = [], []
        for key, action_seed in cases:
            start = time.perf_counter()
            outputs.append(action(self.params, field, 0, key,
                                  random.Random(action_seed)))
            times.append(time.perf_counter() - start)
        return times, outputs

    def failures(self, cases, outputs) -> int:
        from repro.csidh.group_action import group_action
        from repro.field.fp import FieldContext

        _times, want = self.act(cases, FieldContext(self.params.p),
                                group_action)
        return sum(1 for got, ok in zip(outputs, want) if got != ok)

    def measure(self, seconds: float) -> dict:
        from repro.csidh.group_action import group_action

        field, counter = self.field, self.counter
        source = self.cases()
        cases, times, outputs = [], [], []
        cycles0, ops0 = field.simulated_cycles, counter.total
        cycles_per_op = None
        with Speed() as speed:
            began = time.perf_counter()
            while (len(times) < MIN_SAMPLES
                   or time.perf_counter() - began < seconds):
                case = next(source)
                took, out = self.act([case], field, group_action)
                cases.append(case)
                times += took
                outputs += out
                if len(times) == MIN_SAMPLES:
                    # a fixed count, so the same seed repeats it exactly
                    cycles_per_op = ((field.simulated_cycles - cycles0)
                                     / (counter.total - ops0))
        busy = sum(times)
        return {
            "attempted": len(cases),
            "failed": self.failures(cases, outputs),
            "latency_chunks": [[times, speed.factor()]],
            "field_ops_per_s": (counter.total - ops0) / busy,
            "sim_cycles_per_op": cycles_per_op,
            "speed": speed.factor(),
        }

    def trace(self, tracer: Tracer) -> dict:
        from repro import telemetry
        from repro.csidh.group_action import group_action
        from repro.field.fp import FieldContext

        cases = list(itertools.islice(self.cases(), self.TRACED_ACTIONS))
        field, counter = self.field, self.counter
        off, outputs = self.act(cases, field, group_action)
        failed = self.failures(cases, outputs)
        with telemetry.capture(fresh=True):
            on, outputs = self.act(cases, field, group_action)
        failed += self.failures(cases, outputs)
        floor, _ = self.act(cases, FieldContext(self.params.p),
                            group_action)

        current = [None]
        traced_action = tracer.nested(
            "csidh.group_action", group_action,
            group_of=lambda _args, _kwargs: current[0])
        trace_layers(tracer)
        cycles0, ops0 = field.simulated_cycles, op_counts(counter)
        traced, outputs = [], []
        for index, case in enumerate(cases):
            current[0] = f"action-{index}"
            took, out = self.act([case], field, traced_action)
            traced += took
            outputs += out
        tracer.unpatch()
        failed += self.failures(cases, outputs)
        ops = op_delta(op_counts(counter), ops0)
        metrics = layer_metrics(tracer)
        metrics.update({
            "csidh.action_self_ms": action_self_ms(tracer),
            "csidh.field_ops_per_action": sum(ops.values()) / len(cases),
            "field.floor_ratio": sum(off) / sum(floor),
            "field.dyn_over_composed": dyn_over_composed(
                self.params.p, field.simulated_cycles - cycles0, ops),
            "telemetry.overhead_ratio": sum(on) / sum(off),
            "telemetry.incs_per_request":
                len(tracer.named("telemetry.inc")) / len(cases),
            "trace.overhead_ratio": sum(traced) / sum(off),
        })
        return {"attempted": 3 * len(cases), "failed": failed,
                "per_layer": metrics}


# -- shard-512 ----------------------------------------------------------------


class Shard512:
    """A leading slice of the paper's CSIDH-512 action, sharded.

    The plan is the paper's (seed 3, 512 shards) whatever ``--seed``
    is; the seed picks which multiplications of the slice the latency
    probe times.
    """

    PARAMS = "csidh-512"
    PLAN_SEED = 3
    SHARDS = 512
    SLICE = 16
    WORKERS = 2
    PROBE_MULS = 20000
    #: The probe runs in this many chunks, each with the reference
    #: speed measured beside it; the latency is the median of the
    #: chunks' percentiles, so a burst of host noise during one chunk
    #: does not move it.
    PROBE_CHUNKS = 10
    #: PROBE_UNITS reference units run inline, back to back, after
    #: every PROBE_STRIDE probed multiplications, so the probe's speed
    #: is measured beside it.  A multiplication timed right after a
    #: unit runs 10-50% slower (its code and data have left the caches),
    #: so units come in blocks: with one unit every 20 multiplications,
    #: 5% of the samples would follow one, enough to move p90 between
    #: runs.
    PROBE_STRIDE = 500
    PROBE_UNITS = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.shard.plan import OP_MUL, build_plan
        from repro.shard.scheduler import ShardExecutor

        start = time.perf_counter()
        plan, stream = build_plan(
            self.PARAMS, shards=self.SHARDS, seed=self.PLAN_SEED,
            variant=VARIANT)
        self.plan_s = time.perf_counter() - start
        self.plan = plan
        self.slice = list(range(self.SLICE))
        first = plan.boundaries[0][0]
        last = plan.boundaries[self.SLICE - 1][1]
        self.slice_ops = last - first
        muls = [index for index in range(first, last)
                if stream.op(index)[0] == OP_MUL]
        self.probe_cases = [
            stream.op(index)[1:3] for index in sorted(
                random.Random(self.seed).sample(muls, self.PROBE_MULS))]
        # `repro shard run` keeps only the plan too; the workers
        # regenerate the stream themselves
        del stream
        self.executor = ShardExecutor(plan, workers=self.WORKERS,
                                      engine=ENGINE)

    def run_slice(self, capture: bool = True):
        """The `repro shard run --max-shards` path over the slice."""
        from repro import telemetry
        from repro.shard.scheduler import ShardRunStats

        stats = ShardRunStats()
        recording = telemetry.capture(fresh=True) if capture \
            else nullcontext()
        with recording:
            start = time.perf_counter()
            records = self.executor.run(shard_ids=self.slice, stats=stats)
            wall = time.perf_counter() - start
        return records, stats, wall

    def failures(self, records) -> tuple[int, int]:
        """``(failed ops, merged cycles)`` of a slice run.

        A shard fails whole when its record is missing, covers other
        ops than the plan says, or counts other ops than it covers;
        otherwise its divergent ops fail.  The merge must hold exactly
        the records' cycles, or every op of the slice fails.
        """
        from repro.errors import ReproError
        from repro.shard.merge import merge_records

        failed = 0
        for index in self.slice:
            start, end = self.plan.boundaries[index]
            record = records.get(index)
            if (record is None
                    or (record["start"], record["end"]) != (start, end)
                    or sum(record["ops"].values()) != end - start):
                failed += end - start
            else:
                failed += int(record["divergences"])
        try:
            merged = merge_records(self.plan, records, engine=ENGINE,
                                   partial=True)
        except ReproError:
            return self.slice_ops, 0
        if merged.cycles != sum(r["cycles"] for r in records.values()):
            return self.slice_ops, merged.cycles
        return failed, merged.cycles

    def probe_ops(self, field) -> tuple[list, list]:
        """Time each probed multiplication on *field*, chunk by chunk;
        ``([per-multiplication seconds, reference speed] per chunk,
        results)``."""
        chunks, results = [], []
        size = -(-len(self.probe_cases) // self.PROBE_CHUNKS)
        for first in range(0, len(self.probe_cases), size):
            times, units, unit_s = [], 0, 0.0
            cases = self.probe_cases[first:first + size]
            for index, (a, b) in enumerate(cases):
                start = time.perf_counter()
                results.append(field.mul(a, b))
                times.append(time.perf_counter() - start)
                if index % self.PROBE_STRIDE == self.PROBE_STRIDE - 1:
                    for _ in range(self.PROBE_UNITS):
                        unit_s += unit_seconds()
                    units += self.PROBE_UNITS
            chunks.append([times, factor(units, unit_s)])
        return chunks, results

    def run_probe(self):
        """The probe's chunks on the aot context, seconds for all of
        its multiplications on the pure-Python one, and failures."""
        from repro.field.fp import FieldContext
        from repro.field.simulated import SimulatedFieldContext

        field = SimulatedFieldContext(self.plan.p, variant=VARIANT,
                                      engine=ENGINE)
        chunks, got = self.probe_ops(field)
        reference = FieldContext(self.plan.p)
        start = time.perf_counter()
        want = [reference.mul(a, b) for a, b in self.probe_cases]
        floor_s = time.perf_counter() - start
        failed = sum(1 for a, b in zip(got, want) if a != b)
        return chunks, floor_s, failed

    def measure(self, seconds: float) -> dict:
        """Runs the slice again until *seconds* have passed."""
        walls, failed = [], 0
        with Speed() as speed:
            began = time.perf_counter()
            while not walls or time.perf_counter() - began < seconds:
                records, _stats, wall = self.run_slice()
                walls.append(wall)
                bad, cycles = self.failures(records)
                failed += bad
        chunks, _floor_s, probe_failed = self.run_probe()
        return {
            "attempted": len(walls) * self.slice_ops
            + len(self.probe_cases),
            "failed": failed + probe_failed,
            "latency_chunks": chunks,
            "field_ops_per_s": len(walls) * self.slice_ops / sum(walls),
            "sim_cycles_per_op": cycles / self.slice_ops,
            "speed": speed.factor(),
        }

    def trace(self, tracer: Tracer) -> dict:
        from repro.shard.merge import merge_records
        from repro.shard.plan import regenerate_stream
        from repro.shard.worker import ShardRunner
        from repro.telemetry.metrics import Counter

        plan = self.plan
        # 1. the workload as configured; only the parent's telemetry
        #    increments are wrapped (the workers switch telemetry off)
        tracer.patch(Counter, "inc", tracer.nested(
            "telemetry.inc", Counter.inc))
        records, stats, wall = self.run_slice()
        tracer.unpatch()
        incs = tracer.named("telemetry.inc")
        failed, _cycles = self.failures(records)
        bare, _stats, wall_bare = self.run_slice(capture=False)
        failed += self.failures(bare)[0]
        chunks, floor_s, probe_failed = self.run_probe()
        failed += probe_failed

        # 2. the same slice in process, every layer wrapped
        stream = tracer.nested(
            "shard.regenerate_stream", regenerate_stream,
            group_of=lambda _args, _kwargs: "regenerate")(plan)
        runner = ShardRunner(plan, engine=ENGINE, stream=stream)
        trace_layers(tracer)
        tracer.patch(ShardRunner, "execute", tracer.nested(
            "shard.execute", ShardRunner.execute,
            group_of=lambda args, _kwargs: f"shard-{args[1]}"))
        field = runner.field
        cycles0, ops0 = field.simulated_cycles, op_counts(field.counter)
        traced_records = {index: runner.execute(index)
                          for index in self.slice}
        tracer.nested("shard.merge_records", merge_records,
                      group_of=lambda _args, _kwargs: "merge")(
            plan, traced_records, engine=ENGINE, partial=True)
        tracer.unpatch()
        failed += self.failures(traced_records)[0]
        ops = op_delta(op_counts(field.counter), ops0)

        busy = sum(record["wall_s"] for record in records.values())
        executed = seconds_of(tracer.named("shard.execute"))
        sizes = [end - start for start, end in plan.boundaries]
        metrics = layer_metrics(tracer)
        metrics.update({
            "csidh.field_ops_per_action": plan.n_ops,
            "field.floor_ratio":
                sum(sum(times) for times, _speed in chunks) / floor_s,
            "field.dyn_over_composed": dyn_over_composed(
                plan.p, field.simulated_cycles - cycles0, ops),
            "shard.plan_s": self.plan_s,
            "shard.regen_s": seconds_of(
                tracer.named("shard.regenerate_stream")),
            "shard.busy_s": busy,
            "shard.parallel_eff":
                busy / (stats.workers * stats.exec_wall_s),
            "shard.overhead_s": stats.exec_wall_s - busy / stats.workers,
            "shard.execute_us_per_op": executed / self.slice_ops * 1e6,
            "shard.steals": stats.steals,
            "shard.requeues": stats.requeues,
            "shard.worker_failures": stats.worker_failures,
            "shard.plan_tiny_shards": sum(1 for n in sizes if n < 10),
            "shard.plan_max_over_mean":
                max(sizes) / (sum(sizes) / len(sizes)),
            "telemetry.overhead_ratio": wall / wall_bare,
            "telemetry.incs_per_request": len(incs) / self.SLICE,
            "telemetry.inc_us": mean_us(incs),
            "trace.overhead_ratio": executed / busy,
        })
        attempted = 3 * self.slice_ops + len(self.probe_cases)
        return {"attempted": attempted, "failed": failed,
                "per_layer": metrics}


# -- serve-toy ----------------------------------------------------------------


class ServeToy:
    """`repro serve` defaults in process, driven over loopback TCP.

    Telemetry on, 2 tenants x 1 lane on aot, one client connection
    holding 16 handshakes in flight in a closed loop.

    The whole process runs on one CPU.  With telemetry on, the lane
    threads and the event loop hand the telemetry lock and the
    interpreter lock back and forth; across two CPUs each hand-off
    waits for the other CPU to wake, and how long that takes depends on
    what else the host runs: the same load ran 2.4x faster when another
    process kept both CPUs busy.  On one CPU the hand-offs cost the
    program's own time only.  The traced run also measures the
    telemetry overhead on all the CPUs the process may use.
    """

    TENANTS = 2
    LANES = 1
    IN_FLIGHT = 16
    TRACED_SESSIONS = 24
    REQUESTS_PER_HANDSHAKE = 4
    #: The lock convoy behind telemetry makes throughput swing from one
    #: ten seconds to the next, so a run sends at least this many.
    MIN_REQUESTS = 2 * MIN_SAMPLES
    #: Wire deadline of each request; the client retries a missed one
    #: twice, then the request fails.
    REQUEST_DEADLINE_S = 20.0
    MAX_REFUSALS = 50
    REFUSAL_BACKOFF_S = 0.005

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cpus = sorted(os.sched_getaffinity(0))

    async def setup(self) -> None:
        from repro import telemetry

        set_cpus(self.cpus[:1])
        from repro.csidh.parameters import csidh_toy
        from repro.service import (
            KeyExchangeService,
            default_tenant_configs,
            start_server,
        )
        from repro.service.load import _session_seeds
        from repro.service.wire import ServiceClient

        telemetry.enable()
        self.params = csidh_toy()
        self.service = KeyExchangeService(
            self.params, default_tenant_configs(
                self.TENANTS, engine=ENGINE, lanes=self.LANES,
                variant=VARIANT))
        self.server = await start_server(self.service, "127.0.0.1", 0)
        host, port = self.server.sockets[0].getsockname()[:2]
        self.client = await ServiceClient(
            timeout_s=self.REQUEST_DEADLINE_S).connect(host, port)
        # one keygen per tenant builds its lane's kernels (cold aot
        # compile into the empty artifact cache)
        self.tenants = list(self.service.tenants)
        seed_a, _seed_b = _session_seeds(self.seed, 0)
        self.warm = [await self.client.keygen(tenant, seed_a)
                     for tenant in self.tenants]

    def lane_totals(self) -> tuple[int, dict]:
        cycles, ops = 0, dict.fromkeys(FIELD_OPS, 0)
        for tenant in self.service.tenants.values():
            for lane in tenant.lanes:
                context = lane.context(ENGINE)
                cycles += context.simulated_cycles
                for op, count in op_counts(context.counter).items():
                    ops[op] += count
        return cycles, ops

    async def call(self, log: list, session: int, role: int, method,
                   *args):
        """One logical request, retried through admission refusals."""
        from repro.errors import AdmissionError, ReproError

        refusals = 0
        value = None
        start = time.perf_counter()
        while True:
            try:
                value = await method(*args)
            except AdmissionError:
                refusals += 1
                if refusals <= self.MAX_REFUSALS:
                    await asyncio.sleep(self.REFUSAL_BACKOFF_S)
                    continue
            except ReproError:
                pass
            break
        log.append({"session": session, "role": role, "value": value,
                    "refusals": refusals,
                    "latency_s": time.perf_counter() - start})
        return value

    async def handshake(self, log: list, index: int, tenant: str,
                        go) -> bool:
        """keygen A, keygen B, exchange A->B, exchange B->A; each only
        while ``go()`` allows another request.  False once it stops."""
        from repro.service.load import _session_seeds

        client = self.client
        seed_a, seed_b = _session_seeds(self.seed, index)
        if not go():
            return False
        pub_a = await self.call(log, index, 0, client.keygen,
                                tenant, seed_a)
        if not go():
            return False
        pub_b = await self.call(log, index, 1, client.keygen,
                                tenant, seed_b)
        for role, seed, peer in ((2, seed_a, pub_b), (3, seed_b, pub_a)):
            if not go():
                return False
            if peer is None:  # its keygen failed; nothing to exchange
                log.append({"session": index, "role": role,
                            "value": None, "refusals": 0,
                            "latency_s": None})
                continue
            await self.call(log, index, role, client.exchange,
                            tenant, seed, peer)
        return True

    async def load(self, *, sessions: int | None = None,
                   seconds: float = 0.0) -> tuple[list, float]:
        """Closed loop of IN_FLIGHT handshakes.  Runs *sessions* whole
        handshakes, or else sends requests until *seconds* have passed
        and MIN_REQUESTS requests have been sent; then each slot stops
        after its reply, so at most IN_FLIGHT requests finish late."""
        log: list = []
        indices = itertools.count()
        sent = itertools.count(1)
        began = time.perf_counter()

        def go() -> bool:
            if sessions is None and next(sent) > self.MIN_REQUESTS:
                return time.perf_counter() - began < seconds
            return True

        async def slot(tenant: str) -> None:
            for index in indices:
                if sessions is not None and index >= sessions:
                    return
                if not await self.handshake(log, index, tenant, go):
                    return

        # each slot keeps to one tenant, so each lane always has half
        # of the handshakes in flight
        await asyncio.gather(*(
            slot(self.tenants[number % len(self.tenants)])
            for number in range(self.IN_FLIGHT)))
        return log, time.perf_counter() - began

    def check(self, log: list) -> list:
        """Mark each logged request ok iff it matches the oracle."""
        from repro.service.load import expected_handshakes

        sessions = 1 + max(entry["session"] for entry in log)
        oracle = expected_handshakes(self.params, sessions, seed=self.seed)
        for entry in log:
            pub_a, pub_b, secret = oracle[entry["session"]]
            want = (pub_a, pub_b, secret, secret)[entry["role"]]
            entry["ok"] = entry["value"] == want
        return log

    def warm_failures(self) -> int:
        from repro.service.load import expected_handshakes

        pub_a = expected_handshakes(self.params, 1, seed=self.seed)[0][0]
        return sum(1 for value in self.warm if value != pub_a)

    async def measure(self, seconds: float) -> dict:
        cycles0, ops0 = self.lane_totals()
        with Speed() as speed:
            log, wall = await self.load(seconds=seconds)
        cycles1, ops1 = self.lane_totals()
        ops = sum(op_delta(ops1, ops0).values())
        attempted, failed, _ = failed_ratio(self.check(log))
        roles = {}
        for entry in log:
            roles[entry["session"]] = roles.get(entry["session"], 0) + 1
        handshakes = sum(1 for n in roles.values()
                         if n == self.REQUESTS_PER_HANDSHAKE)
        return {
            "attempted": attempted + len(self.warm),
            "failed": failed + self.warm_failures(),
            # a failed request has no latency; it fails the run instead
            "latency_chunks": [[
                [entry["latency_s"] for entry in log
                 if entry["value"] is not None], speed.factor()]],
            "field_ops_per_s": ops / wall,
            "sim_cycles_per_op": (cycles1 - cycles0) / ops,
            "speed": speed.factor(),
            "exchanges_per_s": handshakes / wall,
            "refusals": sum(entry["refusals"] for entry in log),
        }

    def trace_requests(self, tracer: Tracer) -> None:
        """Client call -> server call -> lane call, grouped by request.

        A request's group is its op and seed (unique within a pass).
        The lane thread learns it from the program's own trace id,
        which the wire carries from the client to the server.
        """
        from repro.csidh import protocol
        from repro.service.server import KeyExchangeService
        from repro.service.wire import ServiceClient
        from repro.telemetry import tracing

        groups: dict = {}

        def server_group(op):
            def group_of(args, kwargs):
                group = groups[kwargs.get("trace_id")] = (op, args[2])
                return group
            return group_of

        def lane_link(_args, _kwargs):
            trace = tracing.current_trace()
            group = groups.get(trace.trace_id) if trace else None
            return group, "service.server"

        for op in ("keygen", "exchange"):
            tracer.patch(ServiceClient, op, tracer.request(
                "service.client", getattr(ServiceClient, op),
                group_of=lambda args, _kwargs, op=op: (op, args[2])))
            tracer.patch(KeyExchangeService, op, tracer.request(
                "service.server", getattr(KeyExchangeService, op),
                group_of=server_group(op), parent_name="service.client"))
        for method in ("public_key", "shared_secret"):
            tracer.patch(protocol.Csidh, method, tracer.nested(
                "service.lane", getattr(protocol.Csidh, method),
                link=lane_link))
        tracer.patch(protocol, "group_action", tracer.nested(
            "csidh.group_action", protocol.group_action))
        trace_layers(tracer)

    async def trace(self, tracer: Tracer) -> dict:
        from repro import telemetry

        sessions = self.TRACED_SESSIONS
        failed = self.warm_failures()
        log, wall_on = await self.load(sessions=sessions)
        failed += sum(1 for e in self.check(log) if not e["ok"])
        telemetry.disable()
        log, wall_off = await self.load(sessions=sessions)
        telemetry.enable()
        failed += sum(1 for e in self.check(log) if not e["ok"])
        # the same two loads with the lock hand-offs crossing CPUs
        set_cpus(self.cpus)
        log, wall_on_all = await self.load(sessions=sessions)
        failed += sum(1 for e in self.check(log) if not e["ok"])
        telemetry.disable()
        log, wall_off_all = await self.load(sessions=sessions)
        telemetry.enable()
        failed += sum(1 for e in self.check(log) if not e["ok"])
        set_cpus(self.cpus[:1])

        stats0 = self.service.stats()
        cycles0, ops0 = self.lane_totals()
        self.trace_requests(tracer)
        log, wall_traced = await self.load(sessions=sessions)
        tracer.unpatch()
        cycles1, ops1 = self.lane_totals()
        stats1 = self.service.stats()
        failed += sum(1 for e in self.check(log) if not e["ok"])
        ops = op_delta(ops1, ops0)

        server = {s[GROUP]: s for s in tracer.named("service.server")}
        client = {s[GROUP]: s for s in tracer.named("service.client")}
        lane = {}
        for span in tracer.named("service.lane"):
            lane[span[GROUP]] = lane.get(span[GROUP], 0) + (
                span[END] - span[START])
        requests = [g for g in client if g in server]

        def per_request_ms(values) -> float:
            values = list(values)
            return sum(values) / len(values) / 1e6 if values else 0.0

        def took(span) -> int:
            return span[END] - span[START]

        actions = len(tracer.named("csidh.group_action"))
        coalesced = sum(
            t["batches"] for t in stats1["coalesced"].values()) - sum(
            t["batches"] for t in stats0["coalesced"].values())
        metrics = layer_metrics(tracer)
        metrics.update({
            "csidh.action_self_ms": action_self_ms(tracer),
            "csidh.field_ops_per_action":
                sum(ops.values()) / actions if actions else 0,
            "field.dyn_over_composed": dyn_over_composed(
                self.params.p, cycles1 - cycles0, ops),
            "service.wire_ms": per_request_ms(
                took(client[g]) - took(server[g]) for g in requests),
            "service.server_ms": per_request_ms(
                took(server[g]) for g in requests),
            "service.lane_ms": per_request_ms(
                lane.get(g, 0) for g in requests),
            "service.queue_ms": per_request_ms(
                took(server[g]) - lane.get(g, 0) for g in requests),
            "service.lane_busy_ratio": sum(lane.values()) / 1e9 / (
                self.TENANTS * self.LANES * wall_traced),
            "service.rejections":
                stats1["rejections_total"] - stats0["rejections_total"],
            "service.deadline_rejections":
                stats1["deadline_exceeded_total"]
                - stats0["deadline_exceeded_total"],
            "service.coalesced_batches": coalesced,
            "telemetry.overhead_ratio": wall_on / wall_off,
            "telemetry.overhead_ratio_all_cpus":
                wall_on_all / wall_off_all,
            "telemetry.incs_per_request":
                len(tracer.named("telemetry.inc")) / len(log),
            "trace.overhead_ratio": wall_traced / wall_on,
        })
        attempted = 5 * self.REQUESTS_PER_HANDSHAKE * sessions \
            + len(self.warm)
        return {"attempted": attempted, "failed": failed,
                "per_layer": metrics}

    async def close(self) -> None:
        await self.client.aclose()
        self.server.close()
        await asyncio.wait_for(self.server.wait_closed(), 10)
        await self.service.aclose()


WORKLOADS = {
    "action-mini": ActionMini,
    "shard-512": Shard512,
    "serve-toy": ServeToy,
}


# -- driver -------------------------------------------------------------------


def run_sync(workload, mode: str, seconds: float, tracer) -> dict:
    if tracer is not None:
        trace_setup(tracer)
    workload.setup()
    ready = time.monotonic()
    if tracer is not None:
        tracer.unpatch()
    if mode == "setup":
        return {"ready": ready}
    result = (workload.trace(tracer) if mode == "trace"
              else workload.measure(seconds))
    result["ready"] = ready
    return result


async def run_async(workload, mode: str, seconds: float, tracer) -> dict:
    if tracer is not None:
        trace_setup(tracer)
    await workload.setup()
    ready = time.monotonic()
    try:
        if tracer is not None:
            tracer.unpatch()
        if mode == "setup":
            return {"ready": ready}
        result = await (workload.trace(tracer) if mode == "trace"
                        else workload.measure(seconds))
    finally:
        await workload.close()
    result["ready"] = ready
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    parser.add_argument("--cap", type=float, default=150.0,
                        help="seconds before stacks are dumped and the "
                             "run is abandoned")
    args = parser.parse_args()
    faulthandler.dump_traceback_later(args.cap, exit=True)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.mode == "trace" else None
    runner = run_async if isinstance(workload, ServeToy) else run_sync
    result = runner(workload, args.mode, args.seconds, tracer)
    if asyncio.iscoroutine(result):
        result = asyncio.run(result)
    if args.mode == "trace":
        result["per_layer"].update(setup_metrics(tracer))
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    faulthandler.cancel_dump_traceback_later()


if __name__ == "__main__":
    main()
