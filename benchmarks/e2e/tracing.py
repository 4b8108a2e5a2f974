"""Spans around the program's entry points, from outside the program.

For the duration of a traced run a fixed table of **synchronous** entry
points is replaced by wrappers that record a span each — (layer, name,
start, end, parent, id) — and put back afterwards; nothing under
``src/`` is edited.  Parents come from one stack, which is sound because
every wrapped callable is synchronous: on the single thread and single
event loop the benchmark uses, a wrapped call always returns before
another task runs.  A layer's self time is its spans' duration minus the
part their child spans cover.

Most entries are public methods.  The few private ones (marked
``private`` below) are there so that deferred work — a transfer fired by
a post-commit hook, a decision callback, the physical journal write — is
charged to the layer that does it rather than to whichever span happened
to be open.
"""

from __future__ import annotations

import asyncio.events
import itertools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.evaluation as evaluation_mod
import repro.core.satisfaction as satisfaction_mod
import repro.core.sender as sender_mod
import repro.core.service as service_mod
import repro.net.framing as framing_mod
from repro.core.compensation import CompensationManager
from repro.core.evaluation import EvaluationManager
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.mq.manager import QueueManager
from repro.mq.network import MessageNetwork
from repro.mq.persistence import BinaryRecordCodec, FileJournal, Journal
from repro.mq.pubsub import SubscriptionTrie, TopicBroker
from repro.mq.sqlstore import SqlMessageQueue, SqlQueueStore
from repro.net.framing import FrameDecoder
from repro.net.protocol import ChannelEngine
from repro.net.wire import WireHost


def _first_arg(args: tuple, _result: Any) -> Any:
    """cmid passed as the first argument after ``self``."""
    return args[1] if len(args) > 1 else None


def _returned(_args: tuple, result: Any) -> Any:
    return result


def _read_cmid(_args: tuple, result: Any) -> Any:
    return getattr(result, "cmid", None)


def _spooled_message_id(args: tuple, _result: Any) -> Any:
    # Transport.send(self, source, target, queue_name, message)
    return args[4].message_id if len(args) > 4 else None


def _wire_message_id(args: tuple, _result: Any) -> Any:
    # ChannelEngine.send_message(self, queue, message, message_id, now_ms)
    return args[3] if len(args) > 3 else None


#: (layer, owner, attribute, id extractor, kind).  ``kind`` is "call",
#: "context" (a ``@contextmanager`` whose span covers the with-block) or
#: "classmethod".  An owner is a class or, for plain functions, every
#: module that looks the function up by name at call time.
WRAP_TABLE: List[Tuple[str, Any, str, Optional[Callable], str]] = [
    ("core.sender", sender_mod, "generate_send", None, "call"),
    ("core.sender", service_mod, "generate_send", None, "call"),
    ("core.service", ConditionalMessagingService, "send_message", _returned, "call"),
    ("core.service", ConditionalMessagingService, "poll", None, "call"),
    ("core.service", ConditionalMessagingService, "apply_outcome_actions", _first_arg, "call"),
    ("core.service", ConditionalMessagingService, "recover_from_log", None, "call"),
    ("core.service", ConditionalMessagingService, "_on_decided", None, "call"),  # private
    ("core.receiver", ConditionalMessagingReceiver, "read_message", _read_cmid, "call"),
    ("core.receiver", ConditionalMessagingReceiver, "commit_tx", None, "call"),
    ("core.receiver", ConditionalMessagingReceiver, "abort_tx", None, "call"),
    ("core.evaluation", EvaluationManager, "pump", None, "call"),
    ("core.evaluation", EvaluationManager, "evaluate", _first_arg, "call"),
    ("core.evaluation", EvaluationManager, "poll", None, "call"),
    ("core.satisfaction", satisfaction_mod, "evaluate_condition", None, "call"),
    ("core.satisfaction", evaluation_mod, "evaluate_condition", None, "call"),
    ("core.compensation", CompensationManager, "stage", None, "call"),
    ("core.compensation", CompensationManager, "release", _first_arg, "call"),
    ("core.compensation", CompensationManager, "discard", _first_arg, "call"),
    ("mq.manager", QueueManager, "put", None, "call"),
    ("mq.manager", QueueManager, "put_many", None, "call"),
    ("mq.manager", QueueManager, "put_remote", None, "call"),
    ("mq.manager", QueueManager, "get", None, "call"),
    ("mq.manager", QueueManager, "get_wait", None, "call"),
    ("mq.manager", QueueManager, "recover", None, "classmethod"),
    ("mq.persistence", Journal, "log_put", None, "call"),
    ("mq.persistence", Journal, "log_put_many", None, "call"),
    ("mq.persistence", Journal, "log_get", None, "call"),
    ("mq.persistence", Journal, "append_many", None, "call"),
    ("mq.persistence", Journal, "recover", None, "call"),
    ("mq.persistence", BinaryRecordCodec, "encode_record", None, "call"),
    ("mq.persistence", FileJournal, "_write_serialized", None, "call"),  # private
    ("mq.sqlstore", SqlQueueStore, "transaction", None, "context"),
    ("mq.sqlstore", SqlMessageQueue, "put", None, "call"),
    ("mq.sqlstore", SqlMessageQueue, "put_many", None, "call"),
    ("mq.sqlstore", SqlMessageQueue, "get", None, "call"),
    ("mq.network", MessageNetwork, "send", None, "call"),
    ("mq.network", MessageNetwork, "_attempt_transfer", None, "call"),  # private
    ("net.wire", WireHost, "send", _spooled_message_id, "call"),
    ("net.wire", WireHost, "_pump", None, "call"),  # private
    ("net.wire", WireHost, "_deliver", None, "call"),  # private
    ("net.wire", WireHost, "_handle_sender_events", None, "call"),  # private
    ("net.protocol", ChannelEngine, "send_message", _wire_message_id, "call"),
    ("net.protocol", ChannelEngine, "receive_bytes", None, "call"),
    ("net.protocol", ChannelEngine, "data_to_send", None, "call"),
    ("net.protocol", ChannelEngine, "confirm_delivery", None, "call"),
    ("net.framing", framing_mod, "encode_frame", None, "call"),
    ("net.framing", FrameDecoder, "feed", None, "call"),
    ("mq.pubsub", TopicBroker, "publish", None, "call"),
    ("mq.pubsub", TopicBroker, "subscriptions_for", None, "call"),
    ("mq.pubsub", SubscriptionTrie, "match", None, "call"),
    # Everything the event loop runs that no span above covers: asyncio's
    # own stream and task machinery plus the load generator's coroutines.
    ("eventloop", asyncio.events.Handle, "_run", None, "call"),  # private
]


class _SpanContext:
    """Context-manager span for ``@contextmanager`` entry points."""

    __slots__ = ("tracer", "key", "inner", "seq", "start")

    def __init__(self, tracer: "SpanTracer", key: int, inner: Any) -> None:
        self.tracer = tracer
        self.key = key
        self.inner = inner

    def __enter__(self) -> Any:
        tracer = self.tracer
        self.seq = tracer._next_seq()
        tracer._stack.append(self.seq)
        self.start = time.perf_counter_ns()
        return self.inner.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            end = time.perf_counter_ns()
            stack = self.tracer._stack
            stack.pop()
            self.tracer.spans.append(
                (self.key, self.seq, stack[-1] if stack else -1, self.start, end, None)
            )


class SpanTracer:
    """Installs the wrappers, collects spans, restores the originals.

    A wrapper does the least it can while the program runs — two clock
    reads, a stack push and pop, one tuple appended when the call
    returns; self times are worked out afterwards by :meth:`summarize`.
    """

    COLUMNS = ("key", "seq", "parent_seq", "start_ns", "end_ns", "id")

    def __init__(self) -> None:
        self.keys: List[Tuple[str, str]] = []
        #: one row per finished span, in order of completion (COLUMNS)
        self.spans: List[Tuple[int, int, int, int, int, Any]] = []
        self._stack: List[int] = []
        self._next_seq = itertools.count().__next__
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        self._originals: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget spans recorded so far (set-up and warm-up)."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self.spans.clear()

    def summarize(self) -> None:
        """Self time and call count per span name, from the recorded rows.

        A span's self time is its duration minus its children's; rows are
        in completion order, so every child precedes its parent.
        """
        self.self_ns.clear()
        self.calls.clear()
        children: Dict[int, int] = {}
        for key, seq, parent, start, end, _ident in self.spans:
            duration = end - start
            if parent >= 0:
                children[parent] = children.get(parent, 0) + duration
            name = self.keys[key]
            self.self_ns[name] = (
                self.self_ns.get(name, 0) + duration - children.pop(seq, 0)
            )
            self.calls[name] = self.calls.get(name, 0) + 1

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for layer, owner, attribute, ident, kind in WRAP_TABLE:
            original = owner.__dict__[attribute]
            owner_name = getattr(owner, "__name__", repr(owner)).rsplit(".", 1)[-1]
            label = (layer, f"{owner_name}.{attribute}")
            if label in self.keys:
                key = self.keys.index(label)
            else:
                key = len(self.keys)
                self.keys.append(label)
            target = original.__func__ if kind == "classmethod" else original
            wrapper = self._wrap(key, target, ident, kind)
            if kind == "classmethod":
                wrapper = classmethod(wrapper)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(
        self, key: int, fn: Callable, ident: Optional[Callable], kind: str
    ) -> Callable:
        if kind == "context":

            def context_wrapper(*args: Any, **kwargs: Any) -> Any:
                return _SpanContext(self, key, fn(*args, **kwargs))

            return context_wrapper

        next_seq = self._next_seq
        stack = self._stack
        push, pop = stack.append, stack.pop
        record = self.spans.append
        clock = time.perf_counter_ns

        if ident is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                seq = next_seq()
                push(seq)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    pop()
                    record((key, seq, stack[-1] if stack else -1, start, end, None))

            return wrapper

        def identifying_wrapper(*args: Any, **kwargs: Any) -> Any:
            seq = next_seq()
            push(seq)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                pop()
                record(
                    (key, seq, stack[-1] if stack else -1, start, end,
                     ident(args, result))
                )

        return identifying_wrapper

    # -- results --------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (layer, _name), nanos in self.self_ns.items():
            totals[layer] = totals.get(layer, 0.0) + nanos / 1e9
        return totals

    def self_s(self, layer: str, *names: str) -> float:
        """Self seconds of the named spans of a layer (all when none named)."""
        return sum(
            nanos / 1e9
            for (span_layer, name), nanos in self.self_ns.items()
            if span_layer == layer and (not names or name.rsplit(".", 1)[-1] in names)
        )

    def call_count(self, layer: str, *names: str) -> int:
        return sum(
            count
            for (span_layer, name), count in self.calls.items()
            if span_layer == layer and (not names or name.rsplit(".", 1)[-1] in names)
        )

    def spans_named(self, layer: str, name: str) -> List[Tuple]:
        wanted = {
            index
            for index, (span_layer, span_name) in enumerate(self.keys)
            if span_layer == layer and span_name.rsplit(".", 1)[-1] == name
        }
        return [span for span in self.spans if span[0] in wanted]

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """One JSON file: the key table, then spans as compact rows."""
        document = {
            **extra,
            "keys": [list(key) for key in self.keys],
            "columns": list(self.COLUMNS),
            "self_ns": {f"{l}:{n}": v for (l, n), v in sorted(self.self_ns.items())},
            "calls": {f"{l}:{n}": v for (l, n), v in sorted(self.calls.items())},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
