"""In-memory span recorder and the self-time analysis over its spans.

A span is one call into a layer: its name, start, end, the span that
caused it (its parent) and the unit of work (request) it belongs to.
Spans live in per-thread column buffers while the benchmark runs, so
recording takes no lock and costs a few list appends; :meth:`Tracer.dump`
writes them out once the run is over.

Threads that record spans outside any unit of work are the *peer* side:
the in-process wire server answering the benchmark's client.  Their spans
carry the id of the unit of work most recently begun, and the analysis
hangs each one under the client span that was open when it started, so
the client's wait on its socket is split into the peer's work (counted in
the peer's own layers) and what remains (the wire itself).

Self time is a span's duration minus the part of it its children cover.
Summed over every span of a unit, self times add up to the unit's
duration exactly; the unit's own self time is the part no layer claimed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns


class _Buffer:
    """One thread's spans, as columns.  Ids are positions in the columns."""

    __slots__ = ("names", "starts", "ends", "parents", "requests", "infos")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.infos: Dict[int, Dict[str, Any]] = {}


class Tracer:
    """Records spans from every thread; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._register = threading.Lock()
        self._requests = itertools.count()
        self._current_request = -1

    def _state(self) -> Tuple[_Buffer, List[int]]:
        local = self._local
        try:
            return local.buffer, local.stack
        except AttributeError:
            local.buffer, local.stack = _Buffer(), []
            with self._register:
                self._buffers.append(local.buffer)
            return local.buffer, local.stack

    def begin(self, name: str, request: Optional[int] = None) -> int:
        buffer, stack = self._state()
        if stack:
            parent = stack[-1]
            request = buffer.requests[parent]
        else:
            parent = -1
            if request is None:
                request = self._current_request
        index = len(buffer.starts)
        buffer.names.append(name)
        buffer.parents.append(parent)
        buffer.requests.append(request)
        buffer.ends.append(0)
        buffer.starts.append(_now())
        stack.append(index)
        return index

    def end(self, index: int, info: Optional[Dict[str, Any]] = None) -> None:
        buffer, stack = self._state()
        buffer.ends[index] = _now()
        stack.pop()
        if info:
            buffer.infos[index] = info

    def current_name(self) -> Optional[str]:
        """Name of the innermost open span of the calling thread."""
        buffer, stack = self._state()
        return buffer.names[stack[-1]] if stack else None

    @contextmanager
    def unit(self, name: str) -> Iterator[None]:
        """One unit of work, the root of its spans."""
        request = next(self._requests)
        self._current_request = request
        index = self.begin(name, request)
        try:
            yield
        finally:
            self.end(index)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        info: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span per call.

        ``name`` may be a callable of the tracer, evaluated at call time
        (so one function can be told apart by its caller).  ``info``, given
        ``(args, kwargs, result)``, returns extra facts (sizes, counts)
        kept with the span.
        """
        tracer = self
        dynamic = callable(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name(tracer) if dynamic else name)
            facts = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    facts = info(args, kwargs, result)
                return result
            finally:
                tracer.end(index, facts)

        return traced

    def dump(self, path: Path) -> None:
        """Write every span out as columns (one JSON object per thread)."""
        threads = []
        for buffer in self._buffers:
            threads.append(
                {
                    "name": buffer.names,
                    "start_ns": buffer.starts,
                    "end_ns": buffer.ends,
                    "parent": buffer.parents,
                    "request": buffer.requests,
                    "info": {str(k): v for k, v in buffer.infos.items()},
                }
            )
        path.write_text(json.dumps({"threads": threads}), encoding="utf-8")

    def analyse(self, root: str, idle: Tuple[str, ...] = ()) -> "Analysis":
        return Analysis(self._buffers, root, idle)


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Analysis:
    """Self times along the blocking path of every unit named ``root``.

    The blocking path of a unit is its root span, every span below it in
    the same thread, and the peer spans that ran while it was open.  Peer
    spans named in ``idle`` (a server blocked reading its next request)
    are waiting, not work, and stay off the path.

    Per span name, :attr:`self_ns`, :attr:`dur_ns` and :attr:`calls` sum
    over the blocking path; :attr:`all_dur_ns` and :attr:`all_calls` over
    every span recorded, on the path or not; :attr:`infos` collects the
    facts spans carried; :attr:`children_of` maps a span to its children
    (for metrics derived from a span and its direct children).
    """

    def __init__(self, buffers: List[_Buffer], root: str, idle: Tuple[str, ...]) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.dur_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.all_dur_ns: Dict[str, int] = defaultdict(int)
        self.all_calls: Dict[str, int] = defaultdict(int)
        self.infos: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self.root_durations: List[int] = []
        self.root_self_ns = 0
        self.spans: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        self.children_of: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)

        roots: List[Tuple[int, int]] = []
        peers: List[Tuple[int, int]] = []
        for t, buffer in enumerate(buffers):
            for i, name in enumerate(buffer.names):
                key = (t, i)
                start, end = buffer.starts[i], buffer.ends[i]
                if end == 0:
                    continue  # still open when the run ended
                self.spans[key] = (name, start, end)
                self.all_dur_ns[name] += end - start
                self.all_calls[name] += 1
                if i in buffer.infos:
                    self.infos[name].append(buffer.infos[i])
                parent = buffer.parents[i]
                if parent >= 0:
                    self.children_of[(t, parent)].append(key)
                elif name == root:
                    roots.append(key)
                elif name not in idle:
                    peers.append(key)
        # Spans of the threads that ran units, by the unit they belong to.
        by_request: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for t in {t for t, _ in roots}:
            buffer = buffers[t]
            for i, request in enumerate(buffer.requests):
                if (t, i) in self.spans:
                    by_request[request].append((t, i))
        self._attach_peers(buffers, peers, by_request)
        for key in roots:
            self._walk(key)

    def _attach_peers(self, buffers, peers, by_request) -> None:
        """Hang each peer span under the innermost client span open at its start."""
        for key in peers:
            t, i = key
            _, start, _ = self.spans[key]
            best = None
            best_start = -1
            for candidate in by_request.get(buffers[t].requests[i], ()):
                _, c_start, c_end = self.spans[candidate]
                if c_start <= start < c_end and c_start > best_start:
                    best, best_start = candidate, c_start
            if best is not None:
                self.children_of[best].append(key)

    def _walk(self, root: Tuple[int, int]) -> None:
        _, start, end = self.spans[root]
        self.root_durations.append(end - start)
        stack = [(root, start, end)]
        while stack:
            key, lo, hi = stack.pop()
            name, start, end = self.spans[key]
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            children = []
            for child in self.children_of.get(key, ()):
                _, c_start, c_end = self.spans[child]
                c_start, c_end = max(c_start, start), min(c_end, end)
                if c_end > c_start:
                    children.append((c_start, c_end))
                    stack.append((child, start, end))
            own = (end - start) - _covered(children)
            if key == root:
                self.root_self_ns += own
            else:
                self.self_ns[name] += own
                self.dur_ns[name] += end - start
                self.calls[name] += 1

    @property
    def units(self) -> int:
        return len(self.root_durations)

    def unattributed_share(self) -> float:
        total = sum(self.root_durations)
        return self.root_self_ns / total if total else 0.0
