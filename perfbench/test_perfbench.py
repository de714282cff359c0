"""Tests of the benchmark's own checking code.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

They show that the independent oracle agrees with the program's
``NaiveMatcher`` on random trees over all twelve operators, and that the
delivery check fails when one notification is dropped or one extra
notification is added.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
from oracle import ChurnLog, Deliveries, check_deliveries, holds  # noqa: E402
from repro import (  # noqa: E402
    And,
    CallbackSink,
    Event,
    NaiveMatcher,
    Not,
    Or,
    P,
    PubSubService,
    Subscription,
    line_topology,
)
from repro.service import Notification  # noqa: E402
from repro.subscriptions import ConstNode  # noqa: E402

ATTRIBUTES = ["a", "b", "c", "d"]
VALUES = [0, 1, 2, 2.5, -1, "x", "xy", "yx", "", True, False]
STRINGS = ["x", "xy", "y", ""]


def _leaf(rng: random.Random):
    attribute = P(rng.choice(ATTRIBUTES))
    kind = rng.randrange(12)
    value = rng.choice(VALUES)
    if kind == 0:
        return attribute == value
    if kind == 1:
        return attribute != value
    if kind in (2, 3, 4, 5):
        number = rng.choice([0, 1, 2.5, -1, "x", "xy"])
        return [attribute.lt, attribute.le, attribute.gt, attribute.ge][kind - 2](number)
    if kind in (6, 7):
        members = rng.sample(VALUES, rng.randint(1, 3))
        return attribute.in_(members) if kind == 6 else attribute.not_in(members)
    text = rng.choice(STRINGS)
    if kind == 8:
        return attribute.prefix(text)
    if kind == 9:
        return Not(attribute.prefix(text))
    if kind == 10:
        return attribute.contains(text)
    return Not(attribute.contains(text))


def _tree(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return _leaf(rng) if rng.random() < 0.95 else ConstNode(rng.random() < 0.5)
    children = [_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    if roll < 0.6:
        return And(*children)
    if roll < 0.9:
        return Or(*children)
    return Not(And(*children) if rng.random() < 0.5 else Or(*children))


def _event(rng: random.Random) -> Event:
    return Event({name: rng.choice(VALUES) for name in ATTRIBUTES if rng.random() < 0.8})


def test_oracle_agrees_with_naive_matcher_on_random_trees():
    rng = random.Random(2006)
    matcher = NaiveMatcher()
    trees = {}
    for sub_id in range(400):
        trees[sub_id] = _tree(rng, 3)
        matcher.register(Subscription(sub_id, trees[sub_id]))
    operators = set()
    for tree in trees.values():
        for leaf in Subscription(0, tree).tree.predicates():
            operators.add(leaf.operator.value)
    assert len(operators) == 12
    for _ in range(300):
        event = _event(rng)
        expected = sorted(matcher.match(event))
        assert sorted(i for i, tree in trees.items() if holds(tree, event)) == expected


def test_oracle_semantics_on_hand_picked_cases():
    event = Event({"price": 5, "title": "dune", "flag": True})
    assert holds(P("price") <= 5.0, event)
    assert not holds(P("price") == "5", event)
    assert not holds(P("flag") == 1, event)
    assert not holds(P("title") < 3, event)
    assert not holds(Not(P("missing") == 1), event)
    assert holds(Not(P("title").prefix("x")), event)
    assert holds(Not(And(P("price") > 9, P("title") == "dune")), event)


def _small_run(seed: int):
    """A tiny service run: its deliveries, events, table and network."""
    auction = inputs.AuctionInputs(seed)
    trees = auction.subscriptions(120)
    events = auction.events(64)
    service = PubSubService(topology=line_topology(3), max_batch=8)
    notes = []
    subscriber = service.connect("b2", "subscriber", CallbackSink(notes.append))
    handles = [subscriber.subscribe(tree) for tree in trees]
    publisher = service.connect("b0", "publisher")
    for event in events:
        publisher.publish(event)
    service.flush()
    table = {handle.id: tree for handle, tree in zip(handles, trees)}
    return notes, events, table, service.network.report().deliveries


def _problems(notes, events, table, deliveries, sample=None):
    log = Deliveries(events)
    for note in notes:
        log.add(note, 0.0)
    if sample is None:
        sample = range(len(events))
    return check_deliveries({"subscriber": log}, events, sample,
                            ChurnLog(table), deliveries)


def test_check_passes_on_a_correct_run_with_two_seeds():
    for seed in (1, 2):
        notes, events, table, deliveries = _small_run(seed)
        assert notes, "the sample run must deliver something"
        assert _problems(notes, events, table, deliveries) == []


def test_check_fails_when_one_notification_is_dropped():
    notes, events, table, deliveries = _small_run(1)
    for dropped in (0, len(notes) // 2, len(notes) - 1):
        kept = notes[:dropped] + notes[dropped + 1:]
        assert _problems(kept, events, table, deliveries)
        # Even with the network counter agreeing, the oracle sees the loss.
        assert _problems(kept, events, table, deliveries - 1)


def test_check_fails_when_one_notification_is_added():
    notes, events, table, deliveries = _small_run(1)
    last = notes[-1]
    delivered = {(note.sequence, note.subscription_id) for note in notes}
    sequence = next(s for s in range(len(events)) for sub_id in table
                    if (s, sub_id) not in delivered)
    sub_id = next(i for i in table if (sequence, i) not in delivered)
    extra = Notification(events[sequence], sequence, last.client, last.broker_id,
                         sub_id, last.delivery_seq + 1)
    assert _problems(notes + [extra], events, table, deliveries)
    assert _problems(notes + [extra], events, table, deliveries + 1)


def test_property_checks_alone_catch_a_gap_a_miscount_and_a_wrong_event():
    notes, events, table, deliveries = _small_run(1)
    middle = len(notes) // 2
    kept = notes[:middle] + notes[middle + 1:]
    assert any("gaps" in p for p in _problems(kept, events, table, deliveries - 1, []))
    assert any("network counted" in p
               for p in _problems(notes[:-1], events, table, deliveries, []))
    other = next(event for event in events if event != notes[middle].event)
    swapped = notes[:middle] + [notes[middle]._replace(event=other)] + notes[middle + 1:]
    assert any("another event" in p
               for p in _problems(swapped, events, table, deliveries, []))


def test_churn_log_replays_changes_in_publish_order():
    churn = ChurnLog({1: "a", 2: "b"})
    churn.record(5, 1, None)
    churn.record(5, 3, "c")
    churn.record(9, 2, "b2")
    assert churn.table_at(4) == {1: "a", 2: "b"}
    assert churn.table_at(5) == {2: "b", 3: "c"}
    assert churn.table_at(10) == {2: "b2", 3: "c"}
