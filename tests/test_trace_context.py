"""Tests for per-request trace contexts and the trace exporters.

The request/batch machinery (``repro.telemetry.tracing``) extends the
span tree with per-request subtrees; these tests pin its concurrency
contract (request nodes never nest under each other on the event-loop
thread, executor threads join via ``activate``), the exporter
exactness (collapsed stacks sum to the forest total; the Chrome
document carries both a wall-clock and a cycles process) and the
snapshot round trip behind the ``trace_export`` wire op.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import telemetry
from repro.errors import ReproError
from repro.telemetry import Tracer, tracing
from repro.telemetry.spans import ACTIVE_TRACE


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestRequestTrace:
    def test_creates_indexed_node_under_root(self):
        with telemetry.capture() as cap:
            with tracing.request_trace("keygen", "tenant-0") as ctx:
                with tracing.activate(ctx):
                    telemetry.record_kernel_run("fp_mul", "aot", 120, 0)
        assert ctx.status == "ok"
        assert ctx.node is not None
        assert ctx.node.labels == (
            ("op", "keygen"), ("tenant", "tenant-0"),
            ("trace", ctx.trace_id))
        assert cap.tracer.traces[ctx.trace_id] is ctx
        assert ctx.node.count == 1
        assert ctx.node.wall_s > 0
        assert ctx.node.start_epoch == ctx.start_epoch
        assert ctx.node.total_cycles == 120

    def test_caller_supplied_trace_id_wins(self):
        with telemetry.capture():
            with tracing.request_trace(
                    "exchange", trace_id="cafe0123") as ctx:
                pass
        assert ctx.trace_id == "cafe0123"

    def test_disabled_yields_nodeless_context(self):
        with tracing.request_trace("keygen", "tenant-0") as ctx:
            # ids still flow for the wire protocol...
            assert len(ctx.trace_id) == 16
            assert ctx.node is None
            # ...but nothing downstream sees an active trace.
            assert tracing.current_trace() is None
        assert telemetry.TRACER.traces == {}

    def test_error_sets_status_and_stable_code(self):
        class Boom(ReproError):
            code = "kernel"

        with telemetry.capture():
            with pytest.raises(Boom):
                with tracing.request_trace("verify") as ctx:
                    raise Boom("bad")
        assert ctx.status == "error"
        assert ctx.error_code == "kernel"

    def test_concurrent_requests_stay_siblings(self):
        """Request nodes must not nest even when opened while another
        request's contextvar is active (interleaved asyncio tasks)."""
        with telemetry.capture() as cap:
            with tracing.request_trace("keygen") as outer:
                with tracing.request_trace("exchange") as inner:
                    pass
            roots = [node for node in
                     cap.tracer.root.children.values()]
        assert outer.node in roots and inner.node in roots
        assert not outer.node.children

    def test_active_trace_var_scoped_to_block(self):
        with telemetry.capture():
            assert tracing.current_trace() is None
            with tracing.request_trace("keygen") as ctx:
                assert tracing.current_trace() is ctx
            assert tracing.current_trace() is None


class TestActivate:
    def test_executor_thread_attributes_under_request(self):
        """The service's worker-thread path: the contextvar does not
        cross run_in_executor, so the thread re-activates explicitly
        and kernel cycles must land under the request node."""
        with telemetry.capture() as cap:
            with tracing.request_trace("exchange", "t0") as ctx:
                def work() -> None:
                    with tracing.activate(ctx):
                        with telemetry.span("execute", engine="aot"):
                            telemetry.record_kernel_run("fp_mul", "aot", 700, 0)
                worker = threading.Thread(target=work)
                worker.start()
                worker.join()
        assert ctx.node.total_cycles == 700
        execute = ctx.node.find("execute", engine="aot")
        kernel = execute.find("kernel", engine="aot", kernel="fp_mul")
        assert kernel.self_cycles == 700
        # The worker adopted the node without double-booking it.
        assert ctx.node.count == 1
        root = cap.tracer.root
        assert root.total_cycles == 700

    def test_activate_none_is_noop(self):
        with tracing.activate(None) as ctx:
            assert ctx is None

    def test_cycles_without_trace_keep_old_attribution(self):
        """add_kernel_cycles degrades to add_cycles: profile trees
        (no request context) are byte-identical to pre-tracing runs."""
        with telemetry.capture() as cap:
            with telemetry.span("group_action"):
                telemetry.record_kernel_run("fp_mul", "aot", 55, 0)
            node = cap.root.find("group_action")
        assert node.self_cycles == 55
        assert not any(child.name == "kernel"
                       for child in node.children.values())

    def test_cycles_with_trace_land_in_kernel_child(self):
        with telemetry.capture():
            with tracing.request_trace("field_op") as ctx:
                with tracing.activate(ctx):
                    telemetry.record_kernel_run("fp_add", "replay", 9, 0)
                    telemetry.record_kernel_run("fp_add", "replay", 9, 0)
        kernel = ctx.node.find("kernel", engine="replay",
                               kernel="fp_add")
        assert kernel.self_cycles == 18
        assert kernel.count == 2


class TestBatch:
    def test_batch_reachable_from_every_member(self):
        with telemetry.capture() as cap:
            with tracing.request_trace("field_op", "t0") as a:
                pass
            with tracing.request_trace("field_op", "t1") as b:
                pass
            batch = tracing.begin_batch(
                "mul", [(a, 0.001), (b, 0.002), (None, 0.003)])
            with tracing.using(batch):
                # The coalescer's flush coroutine sets the contextvar
                # (`using`); the executor thread then adopts the node
                # (`activate`) exactly like a request.
                assert tracing.current_trace() is batch
                with tracing.activate(batch):
                    telemetry.record_kernel_run("fp_mul", "aot", 40, 0)
            tracing.finish_batch(batch, 0.5)
        assert batch.member_ids == (a.trace_id, b.trace_id)
        assert a.batch_ids == [batch.trace_id]
        assert b.batch_ids == [batch.trace_id]
        assert batch.status == "ok"
        assert batch.node.wall_s == 0.5
        # Cycles land once, on the batch — never per member.
        assert batch.node.total_cycles == 40
        assert a.node.total_cycles == 0
        link = a.node.find("coalesced", batch=batch.trace_id)
        assert link.count == 1 and link.total_cycles == 0
        wait = a.node.find("coalesce.wait")
        assert wait.wall_s == pytest.approx(0.001)
        assert cap.tracer.batches[batch.trace_id] is batch

    def test_disabled_begin_batch_returns_none(self):
        assert tracing.begin_batch("mul", [(None, 0.0)]) is None
        tracing.finish_batch(None, 1.0)  # must not raise


class TestIndexAndClear:
    def test_index_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_INDEXED_TRACES", 3)
        with telemetry.capture() as cap:
            ids = []
            for _ in range(5):
                with tracing.request_trace("keygen") as ctx:
                    pass
                ids.append(ctx.trace_id)
            assert list(cap.tracer.traces) == ids[-3:]
            # Evicted contexts keep their span nodes until clear.
            requests = [n for n in cap.tracer.root.children.values()
                        if n.name == "request"]
            assert len(requests) == 5

    def test_clear_traces_drops_subtrees_keeps_others(self):
        with telemetry.capture() as cap:
            with telemetry.span("group_action"):
                telemetry.record_kernel_run("fp_mul", "aot", 5, 0)
            with tracing.request_trace("keygen") as ctx:
                telemetry.record_kernel_run("fp_mul", "aot", 7, 0)
            batch = tracing.begin_batch("mul", [(ctx, 0.0)])
            tracing.finish_batch(batch, 0.1)
            dropped = tracing.clear_traces(cap.tracer)
            assert dropped == 2
            assert cap.tracer.traces == {}
            assert cap.tracer.batches == {}
            assert cap.root.find("group_action").self_cycles == 5
            assert not any(n.name in ("request", "batch")
                           for n in cap.root.children.values())


class TestSnapshotDocument:
    def _populate(self):
        with tracing.request_trace("keygen", "t0") as a:
            with tracing.activate(a):
                telemetry.record_kernel_run("fp_mul", "aot", 100, 0)
        with tracing.request_trace("exchange", "t1") as b:
            with tracing.activate(b):
                telemetry.record_kernel_run("fp_add", "aot", 30, 0)
        batch = tracing.begin_batch("mul", [(a, 0.0)])
        tracing.finish_batch(batch, 0.2)
        return a, b, batch

    def test_round_trip_preserves_cycles(self):
        with telemetry.capture() as cap:
            self._populate()
            document = tracing.snapshot_document(cap.tracer)
            total = cap.root.total_cycles
        assert document["enabled"]
        assert len(document["traces"]) == 2
        assert len(document["batches"]) == 1
        json.dumps(document)  # must be wire-serializable
        root = tracing.document_to_root(document)
        assert root.total_cycles == total

    def test_filters_restrict_traces_and_batches(self):
        with telemetry.capture() as cap:
            a, b, batch = self._populate()
            by_tenant = tracing.snapshot_document(
                cap.tracer, tenant="t1")
            by_trace = tracing.snapshot_document(
                cap.tracer, trace_id=a.trace_id)
        assert [t["trace_id"] for t in by_tenant["traces"]] \
            == [b.trace_id]
        assert by_tenant["batches"] == []  # b joined no batch
        assert [t["trace_id"] for t in by_trace["traces"]] \
            == [a.trace_id]
        # a's batch rides along with a's trace.
        assert [t["trace_id"] for t in by_trace["batches"]] \
            == [batch.trace_id]

    def test_render_trace_summary_lists_rows(self):
        with telemetry.capture() as cap:
            a, b, _ = self._populate()
            document = tracing.snapshot_document(cap.tracer)
        text = tracing.render_trace_summary(document)
        assert a.trace_id in text and b.trace_id in text
        assert "keygen" in text and "batch" in text
        limited = tracing.render_trace_summary(document, limit=1)
        assert "(2 more)" in limited


class TestExporters:
    def _forest(self) -> Tracer:
        with tracing.request_trace("keygen", "t0") as ctx:
            def work() -> None:
                with tracing.activate(ctx):
                    with telemetry.span("execute", engine="aot"):
                        telemetry.record_kernel_run("fp_mul", "aot", 64, 0)
                        telemetry.record_kernel_run("fp_add", "aot", 16, 0)
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        return ctx

    def test_collapsed_sums_to_forest_total(self):
        with telemetry.capture() as cap:
            self._forest()
            root = cap.root
            collapsed = tracing.to_collapsed(root)
            expected_total = root.total_cycles
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in collapsed.strip().splitlines())
        assert total == expected_total == 80
        # Frames are flamegraph.pl-safe: no spaces, no semicolons
        # except as separators.
        frames = collapsed.strip().splitlines()[0].rsplit(" ", 1)[0]
        assert " " not in frames

    def test_chrome_trace_dual_process_layout(self):
        with telemetry.capture() as cap:
            ctx = self._forest()
            document = tracing.to_chrome_trace(cap.root)
        events = document["traceEvents"]
        json.dumps(document)
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in meta} == {1, 2}
        # The request appears in both the wall and the cycles process.
        request = [e for e in slices
                   if e["name"] == ctx.node.label]
        assert {e["pid"] for e in request} == {1, 2}
        cycles_req = next(e for e in request if e["pid"] == 2)
        assert cycles_req["dur"] == 80
        # Children pack left-to-right without exceeding the parent.
        kernels = [e for e in slices if e["pid"] == 2
                   and e["cat"] == "kernel"]
        assert sum(e["dur"] for e in kernels) == 80
        assert document["otherData"]["total_cycles"] == 80

    def test_wall_events_anchor_at_earliest_epoch(self):
        with telemetry.capture() as cap:
            self._forest()
            document = tracing.to_chrome_trace(cap.root)
        wall = [e for e in document["traceEvents"]
                if e["ph"] == "X" and e["pid"] == 1]
        assert min(e["ts"] for e in wall) == 0.0

    def test_summarize_root_counts_and_ranks(self):
        with telemetry.capture() as cap:
            self._forest()
            summary = tracing.summarize_root(cap.root)
        assert summary["requests"] == 1
        assert summary["batches"] == 0
        assert summary["total_cycles"] == 80
        assert [k["kernel"] for k in summary["top_kernels"]] \
            == ["fp_mul", "fp_add"]
