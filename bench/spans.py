"""Bench-side span recorder: times calls into each layer's public functions.

``with Recorder().installed() as rec:`` wraps the public callables listed in
``TARGETS`` — class attributes, and module-level functions under every name
they were imported by in every loaded ``repro`` module — and records one
span per call, in memory: name, start, end, parent span, and the id of the
query that caused it.  Leaving the block restores every original; nothing
is wrapped in the untraced run that produces the end-to-end metrics.

A span's name is ``<layer>.<callable>``; a layer is a package under
``src/repro/``.  A layer's *self time* is its spans' duration minus the part
of each interval that child spans cover.

Two things need more than a stack:

* ``QueryService.submit`` is a coroutine.  Its wrapper drives the coroutine
  step by step: every on-CPU step is a ``service.submit`` span under one
  ``query`` root span that lasts from call to result.  The time a query
  spends suspended is attributed afterwards (:func:`attribute_waits`) to the
  batch that served it.
* ``ShardedFederation`` dispatches to process shards on pool threads.  A span
  opened on a pool thread with nothing above it becomes a child of whatever
  the main thread has open (it is blocked waiting for exactly that work).

Worker subprocesses cannot be wrapped from outside; spans inside ``src/`` are
a later issue (ROADMAP tracing item).
"""

from __future__ import annotations

import bisect
import gzip
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

# Span fields (a list, for cheap in-place completion).
NAME, START, END, PARENT, QID, NOTE = range(6)

#: (span name, module, class or None, attribute, kind, note)
#: ``note(args, kwargs, result)`` records one number on the span.
_len_arg1 = lambda args, kwargs, result: len(args[1])  # noqa: E731


def _topk_target(args, kwargs, result):
    database, query = args[0], args[1]
    return (id(database), query.table, len(database.table(query.table)))


def _insert_target(args, kwargs, result):
    return (id(args[0]), args[1])


def _batch_and_results(args, kwargs, result):
    """A LocalShard batch with its settled results: replayed by the codec probe."""
    return (args[1], result)


def _cache_full(args, kwargs, result):
    # Evaluated *before* the call (see ``_PRE_NOTES``).  Stores only follow
    # executions, whose keys were absent at planning, so a store that finds
    # the cache full evicts.
    cache = args[0]
    return int(len(cache) >= cache.max_entries)


TARGETS = (
    ("service.submit", "repro.service.gateway", "QueryService", "submit", "async", None),
    ("planner.parse_spec", "repro.planner.spec", None, "parse_spec", "func", None),
    ("planner.plan", "repro.planner.planner", "QueryPlanner", "plan", "method", None),
    ("federation.try_cached", "repro.federation.coordinator", "Federation",
     "try_cached", "method", None),
    ("federation.execute_many_settled", "repro.federation.coordinator", "Federation",
     "execute_many_settled", "method", _len_arg1),
    ("federation.cache_peek", "repro.federation.cache", "ResultCache", "peek",
     "method", None),
    ("federation.cache_lookup", "repro.federation.cache", "ResultCache", "lookup",
     "method", None),
    ("federation.cache_store", "repro.federation.cache", "ResultCache", "store",
     "method", _cache_full),
    ("federation.audit_record", "repro.federation.audit", "AuditLog", "record",
     "method", None),
    ("database.local_topk", "repro.database.database", "PrivateDatabase",
     "local_topk", "method", _topk_target),
    ("database.aggregate", "repro.database.table", "Table", "aggregate", "method", None),
    ("database.insert", "repro.database.database", "PrivateDatabase", "insert",
     "method", _insert_target),
    ("database.data_version", "repro.database.database", "PrivateDatabase",
     "data_version", "property", None),
    ("core.run_topk_queries", "repro.core.driver", None, "run_topk_queries", "func",
     _len_arg1),
    ("core.execute_batch", "repro.core.batch", None, "execute_many", "func", None),
    ("core.run_protocol_on_vectors", "repro.core.driver", None,
     "run_protocol_on_vectors", "func", None),
    ("privacy.average_lop", "repro.privacy.lop", None, "average_lop", "func", None),
    ("privacy.node_lop", "repro.privacy.lop", None, "node_lop", "func", None),
    ("privacy.ledger_charge", "repro.privacy.accounting", "ExposureLedger", "charge",
     "method", None),
    ("privacy.dp_admit", "repro.privacy.dp", "DpGate", "admit", "method", None),
    ("privacy.dp_finalize", "repro.privacy.dp", "DpGate", "finalize", "method", None),
    ("extensions.run_secure_sum", "repro.extensions.securesum", None,
     "run_secure_sum", "func", None),
    ("sharding.execute_many_settled", "repro.sharding.federation", "ShardedFederation",
     "execute_many_settled", "method", _len_arg1),
    ("sharding.try_cached", "repro.sharding.federation", "ShardedFederation",
     "try_cached", "method", None),
    ("sharding.process_execute", "repro.sharding.shards", "ProcessShard",
     "execute_many_settled", "method", _len_arg1),
    ("sharding.process_try_cached", "repro.sharding.shards", "ProcessShard",
     "try_cached", "method", None),
    ("sharding.local_execute", "repro.sharding.shards", "LocalShard",
     "execute_many_settled", "method", _batch_and_results),
    ("sharding.local_try_cached", "repro.sharding.shards", "LocalShard",
     "try_cached", "method", None),
    ("experiments.run_trials", "repro.experiments.runner", None, "run_trials",
     "func", None),
    ("experiments.aggregate_node_lop", "repro.experiments.runner", None,
     "aggregate_node_lop", "func", None),
    ("experiments.aggregate_coalition_lop", "repro.experiments.runner", None,
     "aggregate_coalition_lop", "func", None),
    ("experiments.mean_precision_by_round", "repro.experiments.runner", None,
     "mean_precision_by_round", "func", None),
    ("experiments.mean_lop_by_round", "repro.experiments.runner", None,
     "mean_lop_by_round", "func", None),
    ("experiments.mean_final_precision", "repro.experiments.runner", None,
     "mean_final_precision", "func", None),
    ("experiments.mean_messages", "repro.experiments.runner", None, "mean_messages",
     "func", None),
)
#: Notes that must be taken before the call changes the state they read.
_PRE_NOTES = {"federation.cache_store"}
#: Spans that carry their statements, so waits can be matched to batches.
_BATCH_NAMES = {"federation.execute_many_settled", "sharding.execute_many_settled"}

ROOT = "query"
WAIT_QUEUE = "wait.queue"  # submit start .. serving batch start (other work runs)
WAIT_BATCH = "wait.batch"  # the serving batch's own span, seen from the query
WAIT_LOOP = "wait.loop"  # serving batch end .. resumption (other tasks ran first)


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    ``layers`` restricts the wrappers to those layers' targets (default: all).
    """

    def __init__(self, layers=None) -> None:
        self.layers = layers
        self.spans: list = []
        #: batch span id() -> tuple of statements, for wait attribution.
        self.batch_statements: dict = {}
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._restore: list = []
        self._queries = 0

    # -- stacks -----------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.get_ident() != self._main and self._main_stack:
            return self._main_stack[-1]
        return None

    @contextmanager
    def span(self, name: str, qid=None):
        """Explicit span, for calls the bench itself makes into a layer."""
        stack = self._stack()
        parent = self._parent(stack)
        if qid is None and parent is not None:
            qid = parent[QID]
        span = [name, time.perf_counter(), None, parent, qid, None]
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    # -- wrappers -----------------------------------------------------------------

    def _wrap_sync(self, name: str, func, note):
        spans, clock = self.spans, time.perf_counter
        get_stack, get_parent = self._stack, self._parent
        pre = name in _PRE_NOTES
        is_batch = name in _BATCH_NAMES
        batch_statements = self.batch_statements

        def wrapper(*args, **kwargs):
            stack = get_stack()
            parent = get_parent(stack)
            span = [name, 0.0, None, parent,
                    parent[QID] if parent is not None else None, None]
            if pre:
                span[NOTE] = note(args, kwargs, None)
            if is_batch:
                args = (args[0], list(args[1])) + args[2:]
                batch_statements[id(span)] = args[1]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None and not pre:
                span[NOTE] = note(args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def _wrap_submit(self, func):
        recorder = self

        def wrapper(service, statement, **kwargs):
            return _DrivenSubmit(recorder, func(service, statement, **kwargs), statement)

        wrapper.bench_span = "service.submit"
        return wrapper

    # -- install / restore ----------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for name, module_name, class_name, attribute, kind, note in TARGETS:
            if self.layers is not None and layer_of(name) not in self.layers:
                continue
            module = importlib.import_module(module_name)
            if kind == "func":
                original = getattr(module, attribute)
                wrapped = self._wrap_sync(name, original, note)
                # Every module that did ``from x import f [as g]`` holds its
                # own reference; replace each one.
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not loaded_name.startswith("repro"):
                        continue
                    for alias, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, alias, wrapped)
                continue
            owner = getattr(module, class_name)
            original = vars(owner)[attribute]
            if kind == "property":
                replacement = property(self._wrap_sync(name, original.fget, note))
            elif kind == "async":
                replacement = self._wrap_submit(original)
            else:
                replacement = self._wrap_sync(name, original, note)
            self._patch(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def installed_wrappers() -> list:
    """Span names of every wrapper still reachable from a loaded ``repro``
    module or one of its classes (empty once a recorder is uninstalled)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            holders = [value]
            if isinstance(value, type):
                holders.extend(vars(value).values())
            for holder in holders:
                if isinstance(holder, property):
                    holder = holder.fget
                name = getattr(holder, "bench_span", None)
                if name is not None:
                    found.append(name)
    return found


class _DrivenSubmit:
    """Awaitable that steps ``QueryService.submit`` and spans each step."""

    __slots__ = ("recorder", "coroutine", "statement")

    def __init__(self, recorder: Recorder, coroutine, statement: str) -> None:
        self.recorder = recorder
        self.coroutine = coroutine
        self.statement = statement

    def __await__(self):
        recorder = self.recorder
        clock = time.perf_counter
        stack = recorder._main_stack
        recorder._queries += 1
        qid = recorder._queries
        # The root starts with its first step and ends with its last, on the
        # same clock readings: the recorder's own bookkeeping stays outside.
        now = clock()
        root = [ROOT, now, None, None, qid, self.statement]
        recorder.spans.append(root)
        inner = self.coroutine.__await__()
        value, error = None, None
        try:
            while True:
                step = ["service.submit", now, None, root, qid, None]
                recorder.spans.append(step)
                stack.append(step)
                try:
                    if error is not None:
                        pending = inner.throw(error)
                    else:
                        pending = inner.send(value)
                except StopIteration as done:
                    return done.value
                finally:
                    now = step[END] = clock()
                    stack.pop()
                try:
                    value, error = (yield pending), None
                except BaseException as thrown:  # cancellation: hand it to submit
                    value, error = None, thrown
                now = clock()
        finally:
            root[END] = now


# -- analysis ---------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def attribute_waits(recorder: Recorder) -> None:
    """Add ``wait.*`` child spans that explain each suspended query's gap.

    A query that is not served at admission suspends once, between two
    ``service.submit`` steps.  It is resumed after the batch that executed
    it: the last root-level ``execute_many_settled`` span that lies inside
    the gap and carries its statement.  The gap is then queue wait, that
    batch, and the event loop running other tasks before resuming this one.
    A query with no such batch was answered from the cache at dequeue: it
    only ever queued.
    """
    batches = [
        span for span in recorder.spans
        if span[NAME] in _BATCH_NAMES and span[PARENT] is None
    ]
    batches.sort(key=lambda span: span[END])
    ends = [span[END] for span in batches]
    steps_by_root: dict = {}
    for span in recorder.spans:
        if span[NAME] == "service.submit":
            steps_by_root.setdefault(id(span[PARENT]), []).append(span)
    added = []
    for root in recorder.spans:
        if root[NAME] != ROOT:
            continue
        steps = steps_by_root.get(id(root), ())
        if len(steps) < 2:
            continue
        qid = root[QID]
        gap_start, gap_end = steps[0][END], steps[-1][START]
        position = bisect.bisect_right(ends, gap_end) - 1
        while position >= 0 and batches[position][START] >= gap_start:
            batch = batches[position]
            if root[NOTE] in recorder.batch_statements.get(id(batch), ()):
                added.append([WAIT_QUEUE, gap_start, batch[START], root, qid, id(batch)])
                added.append([WAIT_BATCH, batch[START], batch[END], root, qid, id(batch)])
                added.append([WAIT_LOOP, batch[END], gap_end, root, qid, id(batch)])
                break
            position -= 1
        else:
            added.append([WAIT_QUEUE, gap_start, gap_end, root, qid, None])
    recorder.spans.extend(added)


def self_times(spans) -> dict:
    """``id(span) -> self seconds``: duration minus the union of its children.

    Siblings overlap only when process shards are dispatched on pool threads;
    the overlap then counts for the sibling that started first, so self times
    still add up to the wall time of the enclosing span.
    """
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)
    claimed: dict = {}
    covered_by_children: dict = {}
    for span in spans:
        found = children.get(id(span))
        if not found:
            continue
        end = span[END]
        covered, cursor = 0.0, span[START]
        for child in sorted(found, key=lambda c: c[START]):
            child_start, child_end = max(child[START], cursor), min(child[END], end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
                if child_start > child[START]:
                    claimed[id(child)] = child_end - child_start
            elif child[END] > child[START]:
                claimed[id(child)] = 0.0
        covered_by_children[id(span)] = covered
    return {
        id(span): claimed.get(id(span), span[END] - span[START])
        - covered_by_children.get(id(span), 0.0)
        for span in spans
    }


def check_tree(spans, selfs=None) -> list:
    """Well-formedness problems, as strings (empty when the tree is sound).

    One root per query, every span closed and inside its parent, and the
    self times below a query's root add up to the root's duration within
    2 %.
    """
    problems = []
    roots: dict = {}
    for span in spans:
        if span[END] is None:
            problems.append(f"span {span[NAME]} never closed")
            continue
        if span[END] < span[START]:
            problems.append(f"span {span[NAME]} ends before it starts")
        parent = span[PARENT]
        if parent is None:
            if span[NAME] == ROOT:
                roots.setdefault(span[QID], []).append(span)
            continue
        slack = 1e-6
        if span[START] < parent[START] - slack or span[END] > parent[END] + slack:
            problems.append(f"span {span[NAME]} leaves its parent {parent[NAME]}")
    for qid, found in roots.items():
        if len(found) != 1:
            problems.append(f"query {qid} has {len(found)} roots")
    if selfs is None:
        selfs = self_times(spans)
    negative = [s for s in spans if s[END] is not None and selfs[id(s)] < -1e-6]
    if negative:
        problems.append(f"{len(negative)} spans have negative self time")
    # wait.batch mirrors the serving batch's span tree (accounted where it
    # ran), so it enters the query's sum with its whole duration.
    by_query: dict = {}
    for span in spans:
        # The root's own self time is what no layer span or wait explains.
        if span[QID] is None or span[END] is None or span[NAME] == ROOT:
            continue
        share = span[END] - span[START] if span[NAME] == WAIT_BATCH else selfs[id(span)]
        by_query[span[QID]] = by_query.get(span[QID], 0.0) + share
    for qid, found in roots.items():
        root = found[0]
        duration = root[END] - root[START]
        total = by_query.get(qid, 0.0)
        if abs(total - duration) > 0.02 * duration + 1e-6:
            problems.append(
                f"query {qid}: self times sum to {total:.6f}s, root is {duration:.6f}s"
            )
            if len(problems) > 20:
                break
    return problems


def dump(spans, path) -> None:
    """Write the spans as gzipped JSON lines: name, start, end, parent (the
    parent span's line, counted from 0) and query id."""
    index = {id(span): position for position, span in enumerate(spans)}
    # ``hot_repeat`` records half a million spans: 60 MB as plain text.
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for span in spans:
            parent = span[PARENT]
            handle.write(json.dumps({
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": index[id(parent)] if parent is not None else None,
                "query": span[QID],
            }) + "\n")
