"""Unit tests for the benchmark's own arithmetic and span recorder.

    python3 -m pytest perfbench
"""

import pytest

from spans import GROUP, NAME, PARENT, Tracer
from stats import covered, failed_ratio, percentile, self_time


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([5.0] * 20, 50) == 5.0


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(range(99), 90)
    percentile(range(20), 50)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    with pytest.raises(ValueError):
        percentile(range(100), 0)


def test_self_time_without_children_is_the_duration():
    assert self_time(10, 30, []) == 20


def test_self_time_subtracts_nested_children():
    assert self_time(0, 100, [(10, 20), (30, 60)]) == 60


def test_self_time_counts_overlapping_children_once():
    # two threads' children overlap each other: [10, 50] is covered
    assert covered(0, 100, [(10, 40), (20, 50)]) == 40
    assert self_time(0, 100, [(20, 50), (10, 40), (30, 35)]) == 60


def test_self_time_clips_children_to_the_parent():
    assert self_time(10, 20, [(0, 15), (18, 40)]) == 3
    assert self_time(10, 20, [(30, 40)]) == 10


def test_failed_ratio_counts_each_request_once():
    outcomes = [
        {"ok": True, "refusals": 0},
        {"ok": True, "refusals": 3},  # refused, retried, succeeded
        {"ok": False, "refusals": 0},  # errored or wrong output
        {"ok": False, "refusals": 50},  # refused until retries ran out
    ]
    assert failed_ratio(outcomes) == (4, 2, 0.5)
    assert failed_ratio([{"ok": True, "refusals": 2}]) == (1, 0, 0.0)
    with pytest.raises(ValueError):
        failed_ratio([])


def test_tracer_nests_spans_and_shares_the_group():
    tracer = Tracer()

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    tracer.patch(Layer, "inner", tracer.nested("inner", Layer.inner))
    tracer.patch(Layer, "outer", tracer.nested(
        "outer", Layer.outer, group_of=lambda _args, _kwargs: "g1"))
    assert Layer().outer() == 2
    tracer.unpatch()
    assert Layer().outer() == 2 and len(tracer.spans) == 3

    (outer,) = tracer.named("outer")
    inners = tracer.named("inner")
    assert [span[PARENT] for span in inners] == [outer[0], outer[0]]
    assert {span[GROUP] for span in tracer.spans} == {"g1"}
    children = tracer.children()
    assert 0 <= tracer.self_ns(outer, children) <= outer[4] - outer[3]
    assert {span[NAME] for span in children[outer[0]]} == {"inner"}
