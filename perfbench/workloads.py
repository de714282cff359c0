"""The three workloads: set-up, timed phase, checks and metrics.

``auction-line`` and ``churn-adaptive`` drive ``PubSubService`` sessions
in process over a 3-broker line (publisher at ``b0``, subscriber at
``b2``).  ``wire-fanout`` drives ``PubSubServer``/``PubSubClient`` over
loopback TCP on a 2-broker line (publisher connection at ``b0``,
subscriber connection at ``b1``).  One asyncio loop in one thread runs
every workload; the in-process benches simply never wait.

A run builds its bench ``setup_repeats`` times (``setup_s`` is the
median), publishes two untimed warm-up rounds, then publishes whole
rounds until the requested seconds have passed, and finally checks every
delivery it observed (see :mod:`oracle`).  Rates are the median over ten
windows of consecutive rounds, so one stalled window cannot move them.
With tracing on, the first half of the measured time runs untraced and
the second half traced; the slowdown between the two is the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    AdaptiveConfig,
    CallbackSink,
    PubSubClient,
    PubSubServer,
    PubSubService,
    line_topology,
)

import inputs
from calibrate import HostSpeed
from oracle import ChurnLog, Deliveries, check_deliveries
from spans import Tracer, install_dispatch_span, install_layer_spans, per_layer_metrics

clock = time.perf_counter

#: Distinct events per run; sequence ``s`` publishes ``pool[s % EVENT_POOL]``.
EVENT_POOL = 4096
#: Spare trees that churn operations register, in turn.
SPARE_TREES = 512
#: Windows a timed phase is split into for its median rates.
WINDOWS = 10
#: Where traced runs write their spans: ``.bench_out/`` of the checkout.
OUTPUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      ".bench_out")


@dataclass(frozen=True)
class Spec:
    """The fixed shape of one workload (only the seed varies)."""

    subscriptions: int
    max_batch: int             # the service's ingress batch size
    round_events: int          # events published per round
    churn_every: int           # events between churn steps in a round (0: none)
    setup_repeats: int
    oracle_sample: int         # events checked against the oracle
    adaptive: bool = False
    wire: bool = False


SPECS: Dict[str, Spec] = {
    "auction-line": Spec(subscriptions=5000, max_batch=32, round_events=32,
                         churn_every=0, setup_repeats=3, oracle_sample=48),
    "churn-adaptive": Spec(subscriptions=1000, max_batch=16, round_events=128,
                           churn_every=64, setup_repeats=3, oracle_sample=160,
                           adaptive=True),
    "wire-fanout": Spec(subscriptions=300, max_batch=16, round_events=16,
                        churn_every=0, setup_repeats=5, oracle_sample=400,
                        wire=True),
}
#: Churn-only steps after the timed phase, timed for ``churn_ops_s``.
TAIL_STEPS = 1200
#: One churn step: two replaces, then one unsubscribe + subscribe pair.
STEP_REPLACES, STEP_SWAPS = 2, 1
#: ``churn-adaptive`` runs one adaptive cycle per round.
CYCLE_EVENTS = 128
#: ``churn-adaptive``'s routing-table budget: far below the exact table
#: (about 600 kB at 1,000 subscriptions; the home broker's never-pruned
#: third alone exceeds it), so memory is the stressed dimension on every
#: cycle whatever the speed, and the wall-clock bandwidth and filter
#: signals never decide what is pruned.
MEMORY_BUDGET_BYTES = 150_000
#: ``wire-fanout``: average deliveries per event.
FANOUT = 10


@dataclass
class Phase:
    """One timed phase: per-round events and durations."""

    first_event: int
    first_churn: int
    counts: List[int] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)  # reference seconds
    wall: List[float] = field(default_factory=list)       # wall-clock seconds

    def rate(self) -> float:
        return _windowed_rate(self.counts, self.reference)


class Outcome:
    """What one run measured and found."""

    def __init__(self) -> None:
        #: end-to-end metrics (from the untraced phase)
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: per-layer metrics (from the traced phase, if any)
        self.layers: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0

    def result(self) -> Dict[str, Any]:
        """The run's result line: per-layer metrics if it was traced."""
        metrics = self.layers or self.metrics
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": len(self.problems),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def _quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _windowed_rate(counts: Sequence[float], seconds: Sequence[float]) -> float:
    """Median over up to ``WINDOWS`` contiguous windows of count / seconds."""
    windows = min(WINDOWS, len(counts))
    rates = []
    for index in range(windows):
        low = index * len(counts) // windows
        high = (index + 1) * len(counts) // windows
        rates.append(sum(counts[low:high]) / sum(seconds[low:high]))
    return statistics.median(rates)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# benches: one built service with a publisher and a subscriber
# ---------------------------------------------------------------------------


class InProcessBench:
    """A service driven through in-process sessions."""

    def __init__(self, spec: Spec, published: List[Any]) -> None:
        adaptive = None
        if spec.adaptive:
            adaptive = AdaptiveConfig(
                cycle_events=CYCLE_EVENTS, batch_size=16,
                memory_budget_bytes=MEMORY_BUDGET_BYTES, stop_degradation=None)
        self.service = PubSubService(topology=line_topology(3),
                                     max_batch=spec.max_batch, adaptive=adaptive)
        self.deliveries = Deliveries(published)
        add = self.deliveries.add
        self.subscriber = self.service.connect(
            "b2", "subscriber", CallbackSink(lambda note: add(note, clock())))
        self.publisher = self.service.connect("b0", "publisher")

    async def start(self, trees: List) -> None:
        self.handles = [self.subscriber.subscribe(tree) for tree in trees]

    async def publish(self, events: Sequence, sent_at: List[float]) -> None:
        publish = self.publisher.publish
        for event in events:
            sent_at.append(clock())
            publish(event)
        self.service.flush()

    async def settle(self) -> float:
        """Deliveries finish inside the flush, so they are all in."""
        return clock()

    async def replace(self, slot: int, tree: object) -> int:
        self.handles[slot].replace(tree)
        return self.handles[slot].id

    async def unsubscribe(self, slot: int) -> int:
        self.handles[slot].unsubscribe()
        return self.handles[slot].id

    async def subscribe(self, slot: int, tree: object) -> int:
        self.handles[slot] = self.subscriber.subscribe(tree)
        return self.handles[slot].id

    async def close(self) -> None:
        """Nothing to release: an unsharded service holds no threads or
        processes, and closing it unsubscribes the whole table one
        subscription at a time, which takes far longer than building it."""


class WireBench:
    """A server over its own service, with two client connections."""

    def __init__(self, spec: Spec, published: List[Any]) -> None:
        self.service = PubSubService(topology=line_topology(2), max_batch=spec.max_batch)
        self.server = PubSubServer(self.service, "b1")
        self.deliveries = Deliveries(published)

    async def start(self, trees: List) -> None:
        await self.server.start()
        add = self.deliveries.add
        self.subscriber = PubSubClient(
            "127.0.0.1", self.server.port, "subscriber", broker="b1",
            on_event=lambda note: add(note, clock()))
        self.publisher = PubSubClient("127.0.0.1", self.server.port, "publisher",
                                      broker="b0")
        await self.subscriber.connect()
        await self.publisher.connect()
        self.handles = [await self.subscriber.subscribe(tree) for tree in trees]

    async def publish(self, events: Sequence, sent_at: List[float]) -> None:
        publish = self.publisher.publish
        for event in events:
            sent_at.append(clock())
            await publish(event)
        # The client keeps every notification it decodes; what
        # ``self.deliveries`` recorded is all this benchmark needs.
        self.subscriber.notifications.clear()

    def session(self, client: str) -> Any:
        return next(s for s in self.service.sessions if s.client == client)

    async def settle(self) -> float:
        """Wait for every notification of every event published so far;
        returns the last arrival.

        A round normally fills the ingress batch exactly, but a publish
        that waits past the server's linger deadline flushes a partial
        batch, so the flush here drains whatever is still buffered.
        """
        await asyncio.to_thread(self.service.flush)
        expected = self.session("subscriber").delivery_count
        deadline = clock() + 60.0
        arrived = self.deliveries
        while len(arrived) < expected:
            if clock() > deadline or not self.subscriber.connected:
                raise RuntimeError("%d of %d notifications arrived"
                                   % (len(arrived), expected))
            await asyncio.sleep(0.0005)
        return arrived.arrival[-1] if len(arrived) else clock()

    async def replace(self, slot: int, tree: object) -> int:
        await self.handles[slot].replace(tree)
        return self.handles[slot].id

    async def unsubscribe(self, slot: int) -> int:
        await self.handles[slot].unsubscribe()
        return self.handles[slot].id

    async def subscribe(self, slot: int, tree: object) -> int:
        self.handles[slot] = await self.subscriber.subscribe(tree)
        return self.handles[slot].id

    async def close(self) -> None:
        await self.publisher.close()
        await self.subscriber.close()
        await self.server.close()
        self.service.close()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    """One run of one workload: inputs, bench, timed phases and checks."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.spec = spec = SPECS[name]
        if spec.wire:
            self.trees = inputs.fanout_subscriptions(
                seed, spec.subscriptions, spec.subscriptions, FANOUT)
            self.spares = inputs.fanout_subscriptions(
                seed, SPARE_TREES, spec.subscriptions, FANOUT,
                stream="spare-subscriptions")
            self.pool = inputs.fanout_events(seed, EVENT_POOL)
        else:
            auction = inputs.AuctionInputs(seed)
            self.trees = auction.subscriptions(spec.subscriptions)
            self.spares = auction.subscriptions(SPARE_TREES, stream="spare-subscriptions")
            self.pool = auction.events(EVENT_POOL)
        self.script = inputs.churn_steps(seed, spec.subscriptions,
                                         STEP_REPLACES, STEP_SWAPS)
        self.published: List[Any] = []
        self.sent_at: List[float] = []
        #: host-speed scale of each published event's step
        self.scales: List[float] = []
        #: reference seconds of each churn operation
        self.churn_times: List[float] = []
        self.speed = HostSpeed()
        self.tracer = Tracer()

    async def main(self, seconds: float, trace: bool, outcome: Outcome) -> None:
        if trace:
            install_dispatch_span(self.tracer)
        try:
            await self.setup(outcome)
            try:
                await self.measure(seconds, trace, outcome)
            finally:
                self.tracer.restore()
            self.check(outcome)
        finally:
            if hasattr(self, "bench"):
                await self.bench.close()
        if trace:
            os.makedirs(OUTPUT, exist_ok=True)
            path = os.path.join(OUTPUT, "trace-%s-seed%d.jsonl" % (self.name, self.seed))
            self.tracer.write(path)
            outcome.notes.append("spans written to %s" % path)

    async def setup(self, outcome: Outcome) -> None:
        times = []
        for _ in range(self.spec.setup_repeats):
            if hasattr(self, "bench"):
                await self.bench.close()
                del self.bench
            gc.collect()
            scale = self.speed.refresh(probes=3)
            start = clock()
            bench = (WireBench if self.spec.wire else InProcessBench)(self.spec,
                                                                     self.published)
            self.bench = bench
            await bench.start(self.trees)
            times.append((clock() - start) * scale)
        outcome.metrics["setup_s"] = (statistics.median(times), "s")
        self.churn = ChurnLog({h.id: tree for h, tree in zip(self.bench.handles, self.trees)})

    # -- operations -----------------------------------------------------------

    async def publish(self, count: int) -> None:
        first = len(self.published)
        events = [self.pool[s % EVENT_POOL] for s in range(first, first + count)]
        self.published += events
        self.scales += [self.speed.scale] * count
        await self.bench.publish(events, self.sent_at)

    async def churn_step(self) -> None:
        """One step of the seeded churn script (after all pending events)."""
        bench = self.bench
        for kind, slot in next(self.script):
            before = len(self.published)
            tree = None
            if kind != "unsubscribe":
                tree = self.spares[len(self.churn_times) % SPARE_TREES]
            start = clock()
            if kind == "replace":
                sub_id = await bench.replace(slot, tree)
            elif kind == "unsubscribe":
                sub_id = await bench.unsubscribe(slot)
            else:
                sub_id = await bench.subscribe(slot, tree)
            self.churn_times.append((clock() - start) * self.speed.scale)
            self.churn.record(before, sub_id, tree)

    async def calibrate(self) -> None:
        """Probe the host's speed if a probe is due, with no work in flight."""
        if self.speed.due():
            await self.bench.settle()
            self.speed.refresh()

    async def round(self) -> Tuple[float, float]:
        """One round; returns its duration in reference and wall seconds.

        Events go out one ingress batch at a time, each behind a host-speed
        probe when one is due; churn steps follow every ``churn_every``
        events.
        """
        spec = self.spec
        reference = wall = 0.0
        for published in range(spec.max_batch, spec.round_events + 1, spec.max_batch):
            await self.calibrate()
            start = clock()
            await self.publish(spec.max_batch)
            if spec.churn_every and published % spec.churn_every == 0:
                await self.churn_step()
            elapsed = clock() - start
            reference += elapsed * self.speed.scale
            wall += elapsed
        return reference, wall

    # -- measuring ------------------------------------------------------------

    async def phase(self, seconds: float) -> "Phase":
        """Whole rounds until ``seconds`` have passed."""
        phase = Phase(len(self.published), len(self.churn_times))
        gc.collect()
        start = clock()
        while True:
            reference, wall = await self.round()
            phase.counts.append(self.spec.round_events)
            phase.reference.append(reference)
            phase.wall.append(wall)
            if clock() - start >= seconds:
                break
        # Over the wire the last round's deliveries may still be in flight.
        last = clock()
        tail = max(0.0, await self.bench.settle() - last)
        phase.reference[-1] += tail * self.speed.scale
        phase.wall[-1] += tail
        return phase

    async def measure(self, seconds: float, trace: bool, outcome: Outcome) -> None:
        network = self.bench.service.network
        for _ in range(2):  # warm-up rounds, untimed
            await self.round()
        await self.bench.settle()
        first_note = len(self.bench.deliveries)
        report = network.report()
        untraced = await self.phase(seconds / 2 if trace else seconds)
        outcome.notes.append("publish_eps in wall-clock seconds: %.6g"
                             % _windowed_rate(untraced.counts, untraced.wall))
        if trace:
            install_layer_spans(self.tracer)
            before = _snapshot(self.bench.service)
            self.tracer.active = True
            traced = await self.phase(seconds / 2)
        else:
            after = network.report()
            outcome.metrics["publish_eps"] = (untraced.rate(), "1/s")
            got = self.bench.deliveries
            latencies = [(at - self.sent_at[sequence]) * self.scales[sequence]
                         for sequence, at in zip(got.sequence[first_note:],
                                                 got.arrival[first_note:])]
            outcome.metrics["delivery_p50_ms"] = (_quantile(latencies, 0.5) * 1e3, "ms")
            outcome.metrics["delivery_p90_ms"] = (_quantile(latencies, 0.9) * 1e3, "ms")
            outcome.notes.append("delivery latency samples: %d" % len(latencies))
            events = len(self.published) - untraced.first_event
            outcome.metrics["event_msgs_per_event"] = (
                (after.event_messages - report.event_messages) / events, "count")
            outcome.metrics["table_bytes"] = (float(network.table_size_bytes), "bytes")
            outcome.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        tail = len(self.churn_times)
        block = TAIL_STEPS // WINDOWS
        for step in range(TAIL_STEPS):
            if step % block == 0:  # each rate window gets fresh probes
                await self.bench.settle()
                self.speed.refresh(probes=3)
            await self.churn_step()
        if trace:
            self.tracer.active = False
            outcome.layers.update(per_layer_metrics(
                self.tracer, before, _snapshot(self.bench.service),
                events=len(self.published) - traced.first_event,
                churn_ops=len(self.churn_times) - traced.first_churn,
                overhead=untraced.rate() / traced.rate() - 1.0,
                scale=statistics.median(self.scales[traced.first_event:]),
                high_water=_queue_high_water(self.bench.service)))
        else:
            churn_times = self.churn_times[tail:]
            outcome.metrics["churn_ops_s"] = (
                _windowed_rate([1] * len(churn_times), churn_times), "1/s")
        # One more round after all churn; every one of its events is checked.
        self.final_round = len(self.published)
        await self.round()
        await self.bench.settle()
        outcome.attempted = len(self.published) + len(self.churn_times)
        outcome.notes.append("host speed: median scale %.3f over %d probes (raw "
                             "timings are multiplied by it)" % (
                                 statistics.median(self.speed.scales),
                                 len(self.speed.scales)))

    # -- checking -------------------------------------------------------------

    def check(self, outcome: Outcome) -> None:
        service = self.bench.service
        network = service.network
        report = network.report()
        sample = list(inputs.sample_positions(self.seed, self.final_round,
                                              self.spec.oracle_sample))
        sample += range(self.final_round, len(self.published))
        outcome.problems += check_deliveries(
            {"subscriber": self.bench.deliveries}, self.published, sample,
            self.churn, report.deliveries)
        counted = sum(session.delivery_count for session in service.sessions)
        if counted != report.deliveries:
            outcome.problems.append("session delivery counts sum to %d, network "
                                    "counted %d" % (counted, report.deliveries))
        if self.spec.wire:
            client = self.bench.subscriber
            if client.duplicates or client.protocol_errors:
                outcome.problems.append("subscriber saw %d duplicates and %d protocol "
                                        "errors" % (client.duplicates,
                                                    len(client.protocol_errors)))
        if service.adaptive is not None:
            telemetry = service.adaptive.report()
            if not telemetry["prunings_applied"]:
                outcome.problems.append("the adaptive loop applied no pruning")
            if any(dimension != "mem" for dimension, _ in telemetry["dimension_history"]):
                outcome.problems.append("a cycle pruned for another dimension than "
                                        "memory: %s" % telemetry["dimension_history"])
            exact = sum(entry.original.size_bytes for broker in network.brokers.values()
                        for entry in broker.entries.values())
            if network.table_size_bytes > exact:
                outcome.problems.append("pruned table (%d bytes) exceeds the exact "
                                        "table (%d bytes)" % (network.table_size_bytes,
                                                              exact))


def _queue_high_water(service: PubSubService) -> int:
    queues = [session.queue for session in service.sessions if session.queue is not None]
    return max((queue.high_water for queue in queues), default=0)


def _snapshot(service: PubSubService) -> Dict[str, float]:
    """Counters the per-layer metrics difference across the traced phase."""
    network = service.network
    report = network.report()
    values: Dict[str, float] = {"deliveries": report.deliveries,
                                "event_bytes": report.event_bytes}
    for field in ("events", "candidates", "tree_evaluations", "matches"):
        values["match." + field] = sum(getattr(broker.matcher.statistics, field)
                                       for broker in network.brokers.values())
    if service.adaptive is not None:
        telemetry = service.adaptive.report()
        values["prunings_applied"] = telemetry["prunings_applied"]
        values["prunings_reverted"] = telemetry["prunings_reverted"]
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    asyncio.run(Run(workload, seed).main(seconds, trace, outcome))
    return outcome
