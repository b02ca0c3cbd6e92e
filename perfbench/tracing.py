"""The traced run's span recorder.

Spans are recorded from the benchmark's own files only: for the duration
of a traced trial, the public entry points of each layer on the service's
objects are replaced by timing wrappers, and restored afterwards.  A span
is ``(id, name, start, end, parent, request id, trial)``; the parent is the
enclosing span on the same thread, or, for executor worker threads, the
batch span that launched them.  Spans stay in memory and are written out
when the run ends (:meth:`Tracer.write`).

Layer = the span name's prefix: ``service``, ``runtime``, ``locking``,
``oodb``, ``wal``, ``bufferpool``, ``certify``, ``shard``.

Self time.  A worker parked in ``checkpoint`` or ``wait_for`` (the *park*
spans) is not running: another worker or the controller is.  So a span's
busy time is its duration minus the park spans beneath it on its thread,
and its self time is its busy time minus the busy time its children
cover.  Park spans themselves count as handoffs, not as busy time.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

import repro.shard.service as shard_service
from repro.core.certify import OnlineCertifier

LAYERS = (
    "service",
    "runtime",
    "locking",
    "oodb",
    "wal",
    "bufferpool",
    "certify",
    "shard",
)
PARK_SPANS = ("runtime.checkpoint", "runtime.wait")

# span tuple fields
ID, NAME, START, END, PARENT, RID, TRIAL = range(7)


def _ctx_rid(args):
    ctx = args[0] if args else None
    return getattr(ctx, "txn_id", None)


def _txn_rid(args):
    return getattr(args[1], "label", None) if len(args) > 1 else None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trial = -1
        #: service label -> start time of the batch that ran it
        self.batch_start: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch_span = None
        self._undo: list = []

    # -- instrumentation -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr: str, name: str, rid_of=None, on_enter=None):
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = self._batch_span, None
            if rid_of is not None:
                rid = rid_of(args) or rid
            sid = next(ids)
            stack.append((sid, rid))
            start = clock()
            if on_enter is not None:
                on_enter(sid, start, args)
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if on_enter is not None:
                    self._batch_span = None
                spans.append((sid, name, start, end, parent, rid, self.trial))

        owned = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, original if owned else None))
        setattr(owner, attr, traced)

    def _enter_batch(self, labels_of):
        def on_enter(sid, start, args):
            self._batch_span = sid
            for label in labels_of(args[0]):
                self.batch_start[label] = start

        return on_enter

    def attach(self, service) -> None:
        """Wrap the layer entry points of one service instance."""
        self.trial += 1
        if service.executor is not None:
            executors = [service.executor]
            dbs = [service.db]
            self._wrap(
                service.executor,
                "run",
                "runtime.batch",
                on_enter=self._enter_batch(lambda ps: [p.label for p in ps]),
            )
            self._wrap(OnlineCertifier, "observe_commit", "certify.observe", _txn_rid)
        else:
            group = service.db
            executors = group.executors
            dbs = group.dbs
            self._wrap(
                group,
                "run_batch",
                "shard.batch",
                on_enter=self._enter_batch(lambda rs: [r["label"] for r in rs]),
            )
            self._wrap(group.coordinator, "round", "shard.round")
            self._wrap(shard_service, "analyze_system", "shard.edge_analysis")
        for executor in executors:
            self._wrap(executor, "checkpoint", "runtime.checkpoint")
            self._wrap(executor, "wait_for", "runtime.wait", _ctx_rid)
        for db in dbs:
            self._wrap(db.scheduler, "request", "locking.request", _ctx_rid)
            self._wrap(db, "send", "oodb.send", _ctx_rid)
            self._wrap(db, "nested_send", "oodb.send")
            self._wrap(db, "commit", "oodb.commit", _ctx_rid)
            self._wrap(db, "checkpoint", "oodb.checkpoint")
            if db.wal is not None:
                self._wrap(db.wal, "sync", "wal.sync")
            pool = getattr(db.store, "pool", None)
            if pool is not None:
                self._wrap(pool, "get", "bufferpool.get")
                self._wrap(pool.disk, "read_page", "bufferpool.read")
                self._wrap(pool.disk, "write_page", "bufferpool.write")

    def detach(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._batch_span = None

    def add_generator_spans(self, trial) -> None:
        """The generator-side spans of a finished trial: each submit, and
        the queue wait from submit to the start of the request's batch."""
        for i, start, end, label in trial.submits:
            rid = label or f"request{i}"
            self.spans.append(
                (next(self._ids), "service.submit", start, end, None, rid, self.trial)
            )
            batch_start = self.batch_start.get(label)
            if batch_start is not None:
                self.spans.append(
                    (next(self._ids), "service.queue", end, batch_start, None, rid,
                     self.trial)
                )
        self.batch_start.clear()

    # -- analysis ------------------------------------------------------------

    def trial_spans(self, trial: int) -> list[tuple]:
        return [s for s in self.spans if s[TRIAL] == trial]

    def write(self, path: str, origin: float) -> None:
        """Write every span as one JSON object per line (gzip), times in
        microseconds since ``origin``."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s[ID],
                            "name": s[NAME],
                            "start_us": round((s[START] - origin) * 1e6, 1),
                            "end_us": round((s[END] - origin) * 1e6, 1),
                            "parent": s[PARENT],
                            "request": s[RID],
                            "trial": s[TRIAL],
                        }
                    )
                    + "\n"
                )


def _merged_length(intervals: list) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time (seconds) of every non-park span, by span id."""
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    # Park spans are leaves; charge each to every ancestor on its thread.
    # The only cross-thread parent is a batch span (worker spans hang off
    # it), so the walk stops there.
    parks = defaultdict(list)
    for s in spans:
        if s[NAME] in PARK_SPANS:
            parent = by_id.get(s[PARENT])
            while parent is not None and not parent[NAME].endswith(".batch"):
                parks[parent[ID]].append((s[START], s[END]))
                parent = by_id.get(parent[PARENT])

    def busy_pieces(s) -> list:
        pieces, cursor = [], s[START]
        for start, end in sorted(parks.get(s[ID], ())):
            if start > cursor:
                pieces.append((cursor, start))
            cursor = max(cursor, end)
        if s[END] > cursor:
            pieces.append((cursor, s[END]))
        return pieces

    out = {}
    for s in spans:
        if s[NAME] in PARK_SPANS:
            continue
        busy = _merged_length(busy_pieces(s))
        covered = _merged_length(
            [
                piece
                for c in children.get(s[ID], ())
                if c[NAME] not in PARK_SPANS
                for piece in busy_pieces(c)
            ]
        )
        out[s[ID]] = max(0.0, busy - covered)
    return out


def layer_summary(spans: list[tuple]) -> dict:
    """Per-name span counts and total durations, and per-layer self time."""
    count = defaultdict(int)
    total = defaultdict(float)
    durations = defaultdict(list)
    for s in spans:
        count[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        if s[NAME] in ("service.submit", "service.queue"):
            durations[s[NAME]].append(s[END] - s[START])
    own = self_times(spans)
    self_by_name = defaultdict(float)
    by_id = {s[ID]: s for s in spans}
    for sid, seconds in own.items():
        self_by_name[by_id[sid][NAME]] += seconds
    layer_self = defaultdict(float)
    for name, seconds in self_by_name.items():
        if name != "service.queue":  # a wait, not work
            layer_self[name.split(".")[0]] += seconds
    return {
        "count": dict(count),
        "total_s": dict(total),
        "self_s": dict(self_by_name),
        "layer_self_s": dict(layer_self),
        "durations": dict(durations),
    }
