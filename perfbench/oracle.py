"""The benchmark's own delivery oracle and property checks.

:func:`holds` decides whether an event satisfies a subscription tree by
walking the tree's public node fields and applying the twelve predicate
operators itself.  It never calls ``Node.evaluate``, ``NaiveMatcher`` or
any matcher, so a fault in the program's evaluation code cannot hide
behind an oracle that shares it.

Semantics follow the subscription model: a predicate on an attribute the
event does not carry is unfulfilled for every operator; equality never
holds across strings, numbers and booleans; ordered comparisons need two
numbers or two strings; ``NOT`` complements predicates (De Morgan over
connectives), so a negated predicate still needs its attribute.

:class:`Deliveries` keeps the notifications a run observed and
:func:`check_deliveries` checks them: gapless per-session ``delivery_seq``, no duplicate (event,
subscription) pair, every notification carrying the event published under
its sequence, and the exact delivered set of a seeded sample of events
against :func:`holds`, with churn replayed in publish order.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.service import Notification
from repro.subscriptions import AndNode, ConstNode, NotNode, OrNode, PredicateLeaf

_COMPLEMENT = {
    "==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<=",
    "in": "not-in", "not-in": "in", "prefix": "not-prefix",
    "not-prefix": "prefix", "contains": "not-contains",
    "not-contains": "contains",
}


def _kind(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return "str" if isinstance(value, str) else "other"


def _equal(left: object, right: object) -> bool:
    return _kind(left) == _kind(right) and left == right


def _test(operator: str, constant: object, value: object) -> bool:
    """One predicate operator applied to a present attribute value."""
    if operator == "==":
        return _equal(value, constant)
    if operator == "!=":
        return not _equal(value, constant)
    if operator in ("<", "<=", ">", ">="):
        kind = _kind(value)
        if kind not in ("number", "str") or kind != _kind(constant):
            return False
        if operator == "<":
            return value < constant  # type: ignore[operator]
        if operator == "<=":
            return value <= constant  # type: ignore[operator]
        if operator == ">":
            return value > constant  # type: ignore[operator]
        return value >= constant  # type: ignore[operator]
    if operator == "in":
        return any(_equal(value, member) for member in constant)  # type: ignore[attr-defined]
    if operator == "not-in":
        return not any(_equal(value, member) for member in constant)  # type: ignore[attr-defined]
    if not isinstance(value, str):
        return False
    if operator == "prefix":
        return value.startswith(constant)  # type: ignore[arg-type]
    if operator == "not-prefix":
        return not value.startswith(constant)  # type: ignore[arg-type]
    if operator == "contains":
        return constant in value  # type: ignore[operator]
    if operator == "not-contains":
        return constant not in value  # type: ignore[operator]
    raise ValueError("unknown operator %r" % operator)


def holds(node: object, event: Mapping[str, object], negated: bool = False) -> bool:
    """Whether ``event`` satisfies ``node`` (or its negation)."""
    if isinstance(node, PredicateLeaf):
        predicate = node.predicate
        if predicate.attribute not in event:
            return False
        operator = predicate.operator.value
        if negated:
            operator = _COMPLEMENT[operator]
        return _test(operator, predicate.value, event[predicate.attribute])
    if isinstance(node, ConstNode):
        return node.value != negated
    if isinstance(node, NotNode):
        return holds(node.child, event, not negated)
    if isinstance(node, (AndNode, OrNode)):
        conjunction = isinstance(node, AndNode) != negated
        verdicts = (holds(child, event, negated) for child in node.children)
        return all(verdicts) if conjunction else any(verdicts)
    raise TypeError("unknown node type %s" % type(node).__name__)


class ChurnLog:
    """The subscription table as the benchmark changed it, in publish order.

    ``record`` notes a table change that took effect before the event
    with sequence ``before_sequence`` was published; ``table_at`` replays
    the changes up to a sequence.  Sequences must be asked for in
    ascending order.
    """

    def __init__(self, initial: Mapping[int, object]) -> None:
        self._table: Dict[int, object] = dict(initial)
        self._changes: List[Tuple[int, int, Optional[object]]] = []
        self._applied = 0

    def record(self, before_sequence: int, subscription_id: int,
               tree: Optional[object]) -> None:
        """``tree`` is the new tree, or ``None`` for an unsubscribe."""
        self._changes.append((before_sequence, subscription_id, tree))

    def table_at(self, sequence: int) -> Dict[int, object]:
        while (self._applied < len(self._changes)
               and self._changes[self._applied][0] <= sequence):
            _, subscription_id, tree = self._changes[self._applied]
            if tree is None:
                del self._table[subscription_id]
            else:
                self._table[subscription_id] = tree
            self._applied += 1
        return self._table


class Deliveries:
    """What a run keeps of one session's notifications, as they arrive.

    Compact arrays rather than the notifications themselves, so the
    benchmark's own memory barely grows with the delivery rate.
    """

    def __init__(self, published: Sequence[object]) -> None:
        self.published = published
        self.sequence = array("q")
        self.subscription = array("q")
        self.delivery_seq = array("q")
        self.arrival = array("d")
        #: notifications that did not carry the event published under
        #: their sequence
        self.wrong_event = 0

    def add(self, note: Notification, arrival: float) -> None:
        sequence = note.sequence
        published = self.published
        if not (0 <= sequence < len(published) and (
                note.event is published[sequence] or note.event == published[sequence])):
            self.wrong_event += 1
        self.sequence.append(sequence)
        self.subscription.append(note.subscription_id)
        self.delivery_seq.append(note.delivery_seq)
        self.arrival.append(arrival)

    def __len__(self) -> int:
        return len(self.sequence)


def check_deliveries(
    sessions: Mapping[str, Deliveries],
    published: Sequence[object],
    sample: Iterable[int],
    churn: ChurnLog,
    network_deliveries: int,
) -> List[str]:
    """Every property violated, as one line each (empty when correct).

    ``published[s]`` is the event published under sequence ``s``;
    ``sample`` the sequences checked against the oracle (ascending);
    ``network_deliveries`` the substrate's delivery counter.
    """
    problems: List[str] = []
    delivered: Dict[int, List[int]] = {}
    for session, log in sessions.items():
        if list(log.delivery_seq) != list(range(len(log))):
            problems.append("session %s: delivery_seq has gaps or duplicates" % session)
        if log.wrong_event:
            problems.append("session %s: %d notifications carry another event than "
                            "the one published under their sequence"
                            % (session, log.wrong_event))
        for sequence, subscription_id in zip(log.sequence, log.subscription):
            delivered.setdefault(sequence, []).append(subscription_id)
    for sequence, ids in delivered.items():
        if len(ids) != len(set(ids)):
            problems.append("event %d delivered twice to one subscription" % sequence)
    total = sum(len(log) for log in sessions.values())
    if total != network_deliveries:
        problems.append("sessions saw %d deliveries, network counted %d"
                        % (total, network_deliveries))
    for sequence in sample:
        event = published[sequence]
        expected = sorted(sub_id for sub_id, tree in churn.table_at(sequence).items()
                          if holds(tree, event))
        got = sorted(delivered.get(sequence, []))
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            problems.append("event %d: missing %s, extra %s"
                            % (sequence, missing[:5], extra[:5]))
    return problems
