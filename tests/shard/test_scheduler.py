"""The work-stealing scheduler against real worker processes.

Everything here forks actual processes: completion across worker
counts, stealing, checkpoint write/resume determinism, worker-kill
recovery (a real ``os._exit`` mid-backlog, driven by the executor's
fail-injection hook), and the exhaustion error codes.  Merged results
are always checked against the monolithic profile — scheduling noise
(who ran what, who died, who stole) must never reach the output.
"""

from __future__ import annotations

import json
import signal
from contextlib import contextmanager

import pytest

from repro.csidh.parameters import csidh_toy
from repro.errors import ShardError, ShardExhaustedError
from repro.shard.merge import (
    merge_records,
    read_checkpoint,
    run_sharded_action,
    span_cycle_mismatches,
)
from repro.shard.plan import build_plan
from repro.shard.scheduler import ShardExecutor, ShardRunStats
from repro.telemetry.profile import profile_group_action


@pytest.fixture(scope="module")
def toy_plan():
    return build_plan("toy", shards=6, seed=3)[0]


@pytest.fixture(scope="module")
def toy_profile():
    return profile_group_action(csidh_toy(), seed=3)


def _assert_exact(merged, profile):
    assert merged.coefficient == profile.coefficient
    assert merged.cycles == profile.simulated_cycles
    assert merged.instructions == profile.simulated_instructions
    assert span_cycle_mismatches(profile.root, merged.root) == []


@contextmanager
def _deadline(seconds):
    """Turn a stall into a test failure instead of a hung suite."""
    def expire(_signum, _frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestExecution:
    def test_two_workers_merge_exactly(self, toy_plan, toy_profile):
        merged = run_sharded_action(toy_plan, workers=2)
        _assert_exact(merged, toy_profile)
        assert merged.stats.workers == 2
        assert merged.stats.shards_completed == toy_plan.shards
        assert merged.stats.worker_failures == 0

    def test_more_workers_than_shards_clamps(self, toy_profile):
        plan, _ = build_plan("toy", shards=2, seed=3)
        merged = run_sharded_action(plan, workers=8)
        assert merged.stats.workers == 2
        _assert_exact(merged, toy_profile)

    def test_single_worker_still_exact(self, toy_plan, toy_profile):
        merged = run_sharded_action(toy_plan, workers=1)
        _assert_exact(merged, toy_profile)

    def test_bad_worker_count_refused(self, toy_plan):
        with pytest.raises(ShardError):
            ShardExecutor(toy_plan, workers=0)

    def test_out_of_range_shard_refused(self, toy_plan):
        executor = ShardExecutor(toy_plan, workers=1)
        with pytest.raises(ShardError):
            executor.run(shard_ids=[toy_plan.shards])


class TestCheckpointResume:
    def test_checkpoint_has_header_and_all_shards(self, toy_plan,
                                                  tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        run_sharded_action(toy_plan, workers=2,
                           checkpoint_path=str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "plan"
        assert lines[0]["digest"] == toy_plan.stream_digest
        shard_lines = [line for line in lines
                       if line["type"] == "shard"]
        assert sorted(line["shard"] for line in shard_lines) \
            == list(range(toy_plan.shards))
        for line in shard_lines:
            assert line["seed"] \
                == toy_plan.shard_seeds[line["shard"]]

    def test_interrupted_run_resumes_exactly(self, toy_plan,
                                             toy_profile, tmp_path):
        """A slice run + a resume run produce the same merged tree as
        one uninterrupted run (checkpoint-resume determinism)."""
        path = tmp_path / "resume.ckpt.jsonl"
        first = run_sharded_action(
            toy_plan, workers=2, checkpoint_path=str(path),
            shard_ids=[0, 1, 2])
        assert first.partial
        assert first.completed == (0, 1, 2)
        resumed = run_sharded_action(
            toy_plan, workers=2, checkpoint_path=str(path),
            resume=True)
        assert not resumed.partial
        _assert_exact(resumed, toy_profile)
        # the checkpointed shards were loaded, not re-executed
        assert resumed.stats.shards_completed \
            == toy_plan.shards - 3

    def test_resume_of_complete_run_is_idempotent(self, toy_plan,
                                                  toy_profile,
                                                  tmp_path):
        path = tmp_path / "idem.ckpt.jsonl"
        run_sharded_action(toy_plan, workers=2,
                           checkpoint_path=str(path))
        size_before = path.stat().st_size
        again = run_sharded_action(
            toy_plan, workers=2, checkpoint_path=str(path),
            resume=True)
        assert again.stats.shards_completed == 0  # nothing re-run
        assert path.stat().st_size == size_before
        _assert_exact(again, toy_profile)

    def test_checkpoint_of_other_plan_refused(self, toy_plan,
                                              tmp_path):
        other, _ = build_plan("toy", shards=6, seed=4)
        path = tmp_path / "other.ckpt.jsonl"
        run_sharded_action(other, workers=1,
                           checkpoint_path=str(path))
        with pytest.raises(ShardError) as excinfo:
            read_checkpoint(str(path), toy_plan)
        assert excinfo.value.code == "shard"

    def test_resume_without_checkpoint_refused(self, toy_plan):
        with pytest.raises(ShardError):
            run_sharded_action(toy_plan, workers=1, resume=True)


class TestWorkerFailure:
    def test_killed_worker_recovers_and_merges_exactly(
            self, toy_plan, toy_profile):
        """The first assignment of shard 2 hard-kills its worker
        (``os._exit`` in the child); the shard re-queues, a fresh
        worker picks it up, and the merged result is untouched."""
        merged = run_sharded_action(
            toy_plan, workers=2, fail_injection={2: 1})
        assert merged.stats.worker_failures >= 1
        assert merged.stats.requeues >= 1
        assert merged.stats.worker_restarts >= 1
        _assert_exact(merged, toy_profile)

    def test_two_concurrent_kills_still_recover(self, toy_plan,
                                                toy_profile):
        merged = run_sharded_action(
            toy_plan, workers=2, fail_injection={1: 1, 4: 1})
        assert merged.stats.worker_failures >= 2
        _assert_exact(merged, toy_profile)

    def test_repeated_kills_never_stall(self, toy_plan, toy_profile):
        """A worker killed right after replying must not wedge the
        others: each worker owns its result channel, so the two-kill
        recovery finishes, exactly, on every one of many repeats."""
        with _deadline(120):
            for _ in range(25):
                merged = run_sharded_action(
                    toy_plan, workers=2, fail_injection={1: 1, 4: 1})
                assert merged.stats.worker_failures >= 2
                _assert_exact(merged, toy_profile)

    def test_requeue_budget_exhaustion_stable_code(self, toy_plan):
        """A shard that kills every host exhausts its re-queue budget
        and aborts the run with the stable ``shard_exhausted`` code."""
        with pytest.raises(ShardExhaustedError) as excinfo:
            run_sharded_action(
                toy_plan, workers=2, fail_injection={1: 99},
                max_requeues=1)
        assert excinfo.value.code == "shard_exhausted"

    def test_completed_shards_survive_an_aborted_run(self, toy_plan,
                                                     tmp_path):
        """Exhaustion loses no finished work: whatever reached the
        checkpoint before the abort merges as a partial view."""
        path = tmp_path / "abort.ckpt.jsonl"
        with pytest.raises(ShardExhaustedError):
            run_sharded_action(
                toy_plan, workers=2, fail_injection={0: 99},
                max_requeues=0, checkpoint_path=str(path))
        records = read_checkpoint(str(path), toy_plan)
        assert 0 not in records  # the poisoned shard never finished
        if records:  # other shards may have completed first
            merged = merge_records(toy_plan, records, partial=True)
            assert merged.partial


class TestStatsAndMetrics:
    def test_stats_account_for_every_shard(self, toy_plan):
        stats = ShardRunStats()
        executor = ShardExecutor(toy_plan, workers=2)
        records = executor.run(stats=stats)
        assert len(records) == toy_plan.shards
        assert stats.shards_completed == toy_plan.shards
        assert stats.exec_wall_s > 0

    def test_shard_metrics_recorded_under_capture(self, toy_plan):
        from repro import telemetry

        executor = ShardExecutor(toy_plan, workers=2)
        with telemetry.capture(fresh=True) as cap:
            executor.run(stats=ShardRunStats())
        assert cap.registry.total("shard_completed_total") == toy_plan.shards
        assert cap.registry.total("shard_cycles_total") > 0
