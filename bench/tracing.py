"""Spans around the public functions of each bccover layer, from outside.

The tracer replaces a function in every ``bccover`` module namespace that
binds it (``cover.py`` imports ``clique_tree`` by name, ``cli.py`` imports
``verify_cover`` by name, and so on), and methods on the class itself, so a
call is recorded whichever module makes it.  ``uninstall`` puts every
original back and checks that it did.  Nothing under ``src/`` changes.

Each span records its name, start, end, parent span, operation id, an
optional count taken from the call, and the exception that ended it, if any.
Spans stay in memory; ``layer_totals`` turns them into per-name call counts,
self times and count sums.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _pairs_count(args, kwargs, result):
    # Graph.is_biclique_subgraph(self, left, right): work is |L| * |R| pairs
    return len(args[1]) * len(args[2])


def _node_count(args, kwargs, result):
    return result.node_count


def _merge_counts(args, kwargs, result):
    # merge_bicliques(items, g): items offered, of which len(items) - len(result)
    # were absorbed into an earlier member
    return len(args[0]), len(args[0]) - len(result)


def _inexact(args, kwargs, result):
    return 0 if result.exact else 1


# (module, attribute, span name, counter).  A dotted attribute names a method,
# wrapped on its class.
TARGETS = (
    ("bccover.graph", "Graph.complement", "graph.complement", None),
    ("bccover.graph", "Graph.is_biclique_subgraph", "graph.is_biclique", _pairs_count),
    ("bccover.graph", "graph_from_text", "graph.parse", None),
    ("bccover.chordal", "clique_tree", "chordal.clique_tree", _node_count),
    ("bccover.ranking", "optimal_edge_ranking", "ranking.optimal", None),
    ("bccover.ranking", "heuristic_edge_ranking", "ranking.heuristic", None),
    ("bccover.cover", "cover_cochordal", "cover.cochordal", None),
    ("bccover.cover", "max_weight_clique_tree", "cover.rebuild", None),
    ("bccover.cover", "find_biclique_levels", "cover.levels", None),
    ("bccover.cover", "merge_bicliques", "cover.merge", _merge_counts),
    ("bccover.cover", "verify_cover", "cover.verify", None),
    ("bccover.cover", "verify_partition", "cover.verify", None),
    ("bccover.cover", "find_partition", "cover.partition", None),
    ("bccover.oracle", "exact_bp", "oracle.bp", _inexact),
    ("bccover.oracle", "exact_bc", "oracle.bc", _inexact),
    ("bccover.oracle", "enumerate_maximal_cliques", "oracle.max_cliques", None),
    ("bccover.oracle", "enumerate_maximal_bicliques", "oracle.max_bicliques", None),
    ("bccover.oracle", "exact_chromatic", "oracle.chromatic", None),
    ("bccover.oracle", "exact_max_matching", "oracle.matching", None),
    ("bccover.oracle", "exact_clique_number", "oracle.clique_number", None),
    ("bccover.bounds", "full_report", "bounds.report", None),
    ("bccover.bounds", "conflict_graph", "bounds.conflict_graph", None),
    ("bccover.cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "count", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.count = None
        self.error = None


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the operation in progress, set by the caller
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread (``bounds --dir``): attach to whatever the
                # main thread has open, which is the call that started it
                main = tracer._main_stack
                parent = main[-1] if main else None
            with tracer._lock:
                index = len(tracer.spans)
                span = Span(name, time.perf_counter(), parent, tracer.op)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if counter is not None:
                    span.count = counter(args, kwargs, result)
                return result
            finally:
                stack.pop()

        return wrapper

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "bccover" or key.startswith("bccover."))
        ]
        for module_name, attr, span_name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(span_name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, obj, key, original, wrapper):
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, original))

    def uninstall(self):
        """Put every original back; raise if any binding was not restored."""
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        left = [
            "%s.%s" % (getattr(obj, "__name__", obj), key)
            for obj, key, original in self._patches
            if vars(obj).get(key) is not original
        ]
        self._patches = []
        if left:
            raise RuntimeError("tracer left wrappers in place: %s" % ", ".join(left))


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_totals(spans):
    """Per span name: calls, total self time, count sums and errors.

    Returns ``{name: {"calls", "self_s", "count", "errors"}}`` where ``count``
    is the per-name sum of the counter values (a tuple sum for pair counters)
    and ``errors`` maps exception type names to how often they ended a span.
    """
    children = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            parent = spans[span.parent]
            # clip to the parent: a worker-thread span can outlive its parent
            start = max(span.start, parent.start)
            end = min(span.end, parent.end if parent.end is not None else span.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    out = {}
    for index, span in enumerate(spans):
        if span.end is None:
            continue
        entry = out.setdefault(
            span.name, {"calls": 0, "self_s": 0.0, "count": None, "errors": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += (span.end - span.start) - _covered(children.get(index, ()))
        if span.count is not None:
            if entry["count"] is None:
                entry["count"] = span.count
            elif isinstance(span.count, tuple):
                entry["count"] = tuple(a + b for a, b in zip(entry["count"], span.count))
            else:
                entry["count"] += span.count
        if span.error is not None:
            entry["errors"][span.error] = entry["errors"].get(span.error, 0) + 1
    return out
