"""In-memory span recorder for the benchmark's traced runs.

The program is not instrumented: a traced run patches the public
functions at each layer boundary with wrappers that open a span around
the call, and removes them afterwards.  A span is ``[id, parent, name,
start_ns, end_ns, group]``; ``group`` is shared by every span of one
action, shard or request.  Synchronous calls nest through a per-thread
stack.  Spans of one request that cross tasks or threads (client
coroutine, server coroutine, lane thread) find their parent by group
instead, because a stack cannot follow them there.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

from stats import self_time

ID, PARENT, NAME, START, END, GROUP = range(6)


class Tracer:
    """Spans and counts recorded while the wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: dict[tuple, list] = {}
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, parent, group) -> list:
        return [next(self._ids), parent[ID] if parent else None, name,
                time.perf_counter_ns(), 0, group]

    def nested(self, name: str, fn, *, group_of=None, link=None,
               after=None):
        """Wrap a synchronous *fn*.

        Its span's parent is the innermost open span of the calling
        thread; with none open, ``group_of(args, kwargs)`` names the
        group.  When the parent lives on another thread, ``link(args,
        kwargs)`` returns ``(group, parent_name)`` instead and the open
        request span of that name and group is the parent.
        ``after(result, args)`` may count the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if link is not None:
                group, parent_name = link(args, kwargs)
                parent = self._open.get((parent_name, group))
            elif stack:
                parent = stack[-1]
                group = parent[GROUP]
            else:
                parent = None
                group = group_of(args, kwargs) if group_of else None
            span = self._begin(name, parent, group)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def request(self, name: str, fn, *, group_of, parent_name=None):
        """Wrap a coroutine function serving one request; the span
        stays findable by ``(name, group)`` while it is open, and its
        parent is the open ``parent_name`` span of the same group."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            group = group_of(args, kwargs)
            parent = self._open.get((parent_name, group))
            span = self._begin(name, parent, group)
            self._open[(name, group)] = span
            try:
                return await fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                # a retried request reuses its group; the first to
                # finish closes it
                self._open.pop((name, group), None)
                self.spans.append(span)

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with *wrapper* until :meth:`unpatch`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [span for span in self.spans if span[NAME] == name]

    def children(self) -> dict:
        index = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                index[span[PARENT]].append(span)
        return index

    def self_ns(self, span: list, children: dict) -> float:
        return self_time(
            span[START], span[END],
            [(child[START], child[END])
             for child in children.get(span[ID], ())])

    def write(self, path) -> None:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")


def mean_us(spans) -> float:
    """Mean span duration in microseconds (0 with no spans)."""
    if not spans:
        return 0.0
    return sum(s[END] - s[START] for s in spans) / len(spans) / 1e3
