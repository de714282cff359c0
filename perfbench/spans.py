"""Spans around the program's layer boundaries, recorded from outside.

The traced run replaces public functions of each layer with wrappers
that record one span per call: name, start, end, parent span and trace
id.  Spans nest per thread; a span opened with no open parent starts a
new trace, so every span of one published batch (the ingress flush and
the broker hops, matching and dispatch beneath it) shares one id.  Spans
stay in memory and are written out when the run ends.  A layer's self
time is its duration minus the time its child spans cover.

Awaited coroutines (``PubSubClient.publish``) are recorded as root spans
without children: other tasks run on the loop while they wait.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (span id, name, start, end, parent id or -1, trace id, thread id)
Span = Tuple[int, str, float, float, int, int, int]


class Tracer:
    """Records spans while :attr:`active`; patches and restores callables."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self.values: Dict[str, float] = {}
        self._ids = itertools.count()
        self._values_lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        """Accumulate a named counter (recorded only while active)."""
        if self.active:
            with self._values_lock:
                self.values[name] = self.values.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable[..., Any],
             on_result: Optional[Callable[[Any], None]] = None) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent, trace = stack[-1] if stack else (-1, span_id)
            stack.append((span_id, trace))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, trace,
                                     threading.get_ident()))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.add(name, 1)
            return fn(*args, **kwargs)

        return counted

    def wrap_async(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return await fn(*args, **kwargs)
            span_id = next(tracer._ids)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append((span_id, name, start, time.perf_counter(), -1,
                                     span_id, threading.get_ident()))

        return traced

    def patch(self, owner: Any, attribute: str, name: str, *,
              on_result: Optional[Callable[[Any], None]] = None,
              kind: str = "function") -> None:
        """Replace ``owner.attribute`` with a traced wrapper.

        ``kind`` is ``"function"`` (plain functions and methods),
        ``"classmethod"``, ``"async"``, or ``"count"`` (no span, only a
        call counter under ``name``, for calls too many and too small to
        keep one span each).
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        if kind == "classmethod":
            replacement: Any = classmethod(self.wrap(name, original.__func__, on_result))
        elif kind == "count":
            replacement = self.counted(name, original)
        elif kind == "async":
            replacement = self.wrap_async(name, original)
        else:
            replacement = self.wrap(name, original, on_result)
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every patched callable back."""
        self.active = False
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, outer seconds and self seconds.

        ``outer_s`` sums only spans with no ancestor of the same name, so
        re-entrant and recursive calls are not counted twice; ``self_s``
        subtracts the time child spans cover.
        """
        by_id = {span[0]: span for span in self.spans}
        child_time: Dict[int, float] = {}
        for _sid, _name, start, end, parent, _trace, _thread in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        table: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, parent, _trace, _thread in self.spans:
            row = table.setdefault(name, {"calls": 0, "outer_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time.get(sid, 0.0)
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[1] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                row["outer_s"] += end - start
        return table

    def durations(self, name: str) -> List[float]:
        return [end - start for _sid, span_name, start, end, _p, _t, _th in self.spans
                if span_name == name]

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span in id order."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                             "trace", "thread"]}) + "\n")
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the per-layer metrics name."""
    from repro import (
        AdaptiveController,
        AdaptivePruner,
        AsyncDeliverySink,
        Broker,
        BrokerNetwork,
        CountingMatcher,
        FrameDecoder,
        Ingress,
        OnlineEventStatistics,
        PubSubClient,
        SelectivityEstimator,
    )
    from repro.events import EventColumns
    from repro.matching.predicate_index import PredicateIndexSet
    from repro.matching.treeval import TreePrograms
    import repro.transport.client
    import repro.transport.protocol
    import repro.transport.server

    def count_flush(published: int) -> None:
        if published:
            tracer.add("service.flushes", 1)
            tracer.add("service.flushed_events", published)

    def count_frame(frame: bytes) -> None:
        tracer.add("transport.frames", 1)
        tracer.add("transport.bytes", len(frame))

    tracer.patch(EventColumns, "from_events", "events.columnarize", kind="classmethod")
    tracer.patch(CountingMatcher, "match_batch", "matching.match_batch")
    tracer.patch(PredicateIndexSet, "collect_batch", "matching.probe")
    tracer.patch(TreePrograms, "evaluate", "matching.tree_eval")
    tracer.patch(TreePrograms, "evaluate_dense", "matching.tree_eval")
    for method in ("register", "unregister", "replace"):
        tracer.patch(CountingMatcher, method, "matching.churn")
    tracer.patch(Broker, "route_batch", "routing.route_batch")
    tracer.patch(BrokerNetwork, "publish_batch", "routing.publish_batch")
    for method in ("subscribe", "unsubscribe", "replace_subscription"):
        tracer.patch(BrokerNetwork, method, "routing.flood")
    tracer.patch(Ingress, "flush", "service.flush", on_result=count_flush)
    tracer.patch(AdaptiveController, "run_cycle", "adaptive.cycle")
    tracer.patch(OnlineEventStatistics, "observe_batch", "adaptive.observe")
    tracer.patch(AdaptivePruner, "__init__", "core.replan")
    tracer.patch(AdaptivePruner, "optimize", "core.optimize")
    tracer.patch(SelectivityEstimator, "estimate", "selectivity.estimates", kind="count")
    for module in (repro.transport.protocol, repro.transport.server,
                   repro.transport.client):
        tracer.patch(module, "encode_frame", "transport.encode", on_result=count_frame)
    tracer.patch(FrameDecoder, "feed", "transport.decode")
    tracer.patch(PubSubClient, "publish", "transport.publish_rtt", kind="async")
    tracer.patch(AsyncDeliverySink, "deliver", "transport.pump_deliver")


def install_dispatch_span(tracer: Tracer) -> None:
    """Wrap the delivery hook the service installs on its network.

    The hook is installed when the service is built, so this patch goes
    in before set-up; its spans are recorded only while the tracer is
    active.
    """
    from repro import BrokerNetwork

    original = BrokerNetwork.set_delivery_hook

    def set_delivery_hook(network: Any, hook: Any) -> None:
        if hook is not None:
            hook = tracer.wrap("service.dispatch", hook)
        original(network, hook)

    BrokerNetwork.set_delivery_hook = set_delivery_hook  # type: ignore[method-assign]
    tracer._patched.append((BrokerNetwork, "set_delivery_hook", original))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    before: Dict[str, float],
    after: Dict[str, float],
    *,
    events: int,
    churn_ops: int,
    overhead: float,
    high_water: int,
    scale: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced phase.

    Publish-path times are seconds per published event of the phase,
    churn-path times seconds per churn operation, all multiplied by the
    phase's host-speed ``scale`` (see :mod:`calibrate`); layers a
    workload does not exercise read 0.
    """
    table = tracer.summary()

    def outer(name: str) -> float:
        return table.get(name, {}).get("outer_s", 0.0) * scale

    def own(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) * scale

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    deliveries = delta("deliveries")
    broker_events = delta("match.events")
    candidates = delta("match.candidates")
    flushes = tracer.values.get("service.flushes", 0.0)
    cycles = calls("adaptive.cycle")
    replans = calls("core.replan")
    rtts = sorted(tracer.durations("transport.publish_rtt"))
    return {
        "events.columnarize_s": (_ratio(outer("events.columnarize"), events), "s/event"),
        "matching.match_batch_s": (_ratio(outer("matching.match_batch"), events), "s/event"),
        "matching.probe_s": (_ratio(outer("matching.probe"), events), "s/event"),
        "matching.tree_eval_s": (_ratio(outer("matching.tree_eval"), events), "s/event"),
        "matching.candidates_per_event": (_ratio(candidates, broker_events), "count"),
        "matching.tree_evaluations_per_event": (
            _ratio(delta("match.tree_evaluations"), broker_events), "count"),
        "matching.matches_per_candidate": (
            _ratio(delta("match.matches"), candidates), "ratio"),
        "matching.churn_s_per_op": (_ratio(outer("matching.churn"), churn_ops), "s/op"),
        "routing.route_batch_self_s": (_ratio(own("routing.route_batch"), events), "s/event"),
        "routing.publish_batch_self_s": (
            _ratio(own("routing.publish_batch"), events), "s/event"),
        "routing.event_bytes_per_event": (_ratio(delta("event_bytes"), events), "bytes"),
        "routing.flood_s_per_op": (_ratio(own("routing.flood"), churn_ops), "s/op"),
        "service.flush_s": (_ratio(outer("service.flush"), flushes), "s/flush"),
        "service.events_per_flush": (
            _ratio(tracer.values.get("service.flushed_events", 0.0), flushes), "count"),
        "service.dispatch_s": (_ratio(outer("service.dispatch"), events), "s/event"),
        "service.deliveries_per_event": (_ratio(deliveries, events), "count"),
        "service.queue_high_water": (float(high_water), "count"),
        "adaptive.cycles": (float(cycles), "count"),
        "adaptive.cycle_s": (_ratio(outer("adaptive.cycle"), cycles), "s/cycle"),
        "adaptive.observe_s": (_ratio(outer("adaptive.observe"), events), "s/event"),
        "core.replans": (float(replans), "count"),
        "core.replan_s": (_ratio(outer("core.replan"), replans), "s/replan"),
        "core.optimize_s": (_ratio(outer("core.optimize"), calls("core.optimize")), "s/call"),
        "core.prunings_applied": (delta("prunings_applied"), "count"),
        "core.prunings_reverted": (delta("prunings_reverted"), "count"),
        "selectivity.estimates": (tracer.values.get("selectivity.estimates", 0.0), "count"),
        "transport.encode_s": (_ratio(outer("transport.encode"), events), "s/event"),
        "transport.frames_encoded": (tracer.values.get("transport.frames", 0.0), "count"),
        "transport.decode_s": (_ratio(outer("transport.decode"), events), "s/event"),
        "transport.bytes_per_delivery": (
            _ratio(tracer.values.get("transport.bytes", 0.0), deliveries), "bytes"),
        "transport.publish_rtt_p50_ms": (
            rtts[len(rtts) // 2] * 1e3 * scale if rtts else 0.0, "ms"),
        "transport.pump_deliver_s": (
            _ratio(outer("transport.pump_deliver"), deliveries), "s/delivery"),
        "tracing.events": (float(events), "count"),
        "tracing.overhead": (overhead, "ratio"),
    }
