"""Seeded inputs for the end-to-end benchmark.

Everything the program under test receives is generated here, from the
``--seed`` argument alone: subscription trees (built with the public
builder DSL), events, and the churn script of ``churn-adaptive``.  The
generator is the benchmark's own, so a change to the program's workload
module cannot change what the benchmark feeds it.

The auction schema mirrors the paper's online book-auction setting:
thirteen attributes per event, Zipf-skewed titles, authors and categories,
log-normal prices.  Subscriptions come in three classes:

* specific-item (35%): a flat conjunction on one title (or a series
  prefix) with a price cap and optional condition/format constraints;
* category-interest (40%): a category (sometimes a small disjunction of
  categories), a price band and a minimum seller rating, plus optional
  negated condition, format and year constraints;
* collector (25%): an OR of two to four author- or title-anchored
  clauses under global constraints, including negations -- the general
  trees the counting engine must evaluate.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro import And, Event, Not, Or, P

CATEGORIES = [
    "fiction", "mystery", "science-fiction", "fantasy", "romance",
    "history", "biography", "science", "philosophy", "poetry",
    "travel", "cooking", "art", "children", "reference",
    "business", "self-help", "religion", "comics", "drama",
    "technology", "nature", "sports", "music",
]
CONDITIONS = ["new", "like-new", "very-good", "good", "acceptable", "poor"]
CONDITION_WEIGHTS = [0.15, 0.20, 0.25, 0.20, 0.12, 0.08]
FORMATS = ["hardcover", "paperback", "audiobook", "ebook"]
FORMAT_WEIGHTS = [0.30, 0.45, 0.10, 0.15]
EVENT_TYPES = ["listed", "bid", "sold"]
EVENT_TYPE_WEIGHTS = [0.40, 0.50, 0.10]

N_TITLES = 2000
N_SERIES = 60
N_AUTHORS = 600


def _zipf(count: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=np.float64) ** (-exponent)
    return weights / weights.sum()


def _rng(seed: int, stream: str) -> np.random.Generator:
    """One independent generator per (seed, concern)."""
    return np.random.default_rng([seed, *stream.encode("utf-8")])


def _price_at(quantile: float) -> float:
    """Inverse CDF of the log-normal price model, rounded to cents."""
    return round(12.0 * math.exp(0.9 * NormalDist().inv_cdf(quantile)), 2)


class AuctionInputs:
    """The auction catalogue plus seeded event and subscription draws."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        series = int(N_TITLES * 0.3)
        self.titles = ["series-%02d vol %d" % (i % N_SERIES, i // N_SERIES + 1)
                       for i in range(series)]
        self.titles += ["book-%04d" % i for i in range(N_TITLES - series)]
        self.authors = ["author-%03d" % i for i in range(N_AUTHORS)]
        self.title_weights = _zipf(N_TITLES, 0.8)
        self.author_weights = _zipf(N_AUTHORS, 0.8)
        self.category_weights = _zipf(len(CATEGORIES), 0.6)

    # -- events ----------------------------------------------------------------

    def events(self, count: int, stream: str = "events") -> List[Event]:
        """``count`` auction events; every attribute present on every event."""
        rng = _rng(self.seed, stream)
        title = rng.choice(N_TITLES, size=count, p=self.title_weights)
        author = rng.choice(N_AUTHORS, size=count, p=self.author_weights)
        category = rng.choice(len(CATEGORIES), size=count, p=self.category_weights)
        condition = rng.choice(len(CONDITIONS), size=count, p=CONDITION_WEIGHTS)
        fmt = rng.choice(len(FORMATS), size=count, p=FORMAT_WEIGHTS)
        kind = rng.choice(len(EVENT_TYPES), size=count, p=EVENT_TYPE_WEIGHTS)
        price = np.clip(np.round(12.0 * np.exp(0.9 * rng.standard_normal(count)), 2),
                        0.5, 500.0)
        rating = np.round(np.clip(5.0 - rng.exponential(0.6, count), 0.0, 5.0), 1)
        shipping = np.round(rng.gamma(2.0, 2.2, count), 2)
        year = 2006 - np.minimum(56, rng.geometric(0.08, count) - 1)
        bids = rng.geometric(0.25, count) - 1
        hours = np.round(rng.uniform(0.0, 168.0, count), 1)
        buy_now = rng.random(count) < 0.25
        return [
            Event({
                "title": self.titles[int(title[i])],
                "author": self.authors[int(author[i])],
                "category": CATEGORIES[int(category[i])],
                "price": float(price[i]),
                "seller_rating": float(rating[i]),
                "condition": CONDITIONS[int(condition[i])],
                "format": FORMATS[int(fmt[i])],
                "year": int(year[i]),
                "bid_count": int(bids[i]),
                "ends_in_hours": float(hours[i]),
                "shipping_cost": float(shipping[i]),
                "buy_now": bool(buy_now[i]),
                "event_type": EVENT_TYPES[int(kind[i])],
            })
            for i in range(count)
        ]

    # -- subscriptions ---------------------------------------------------------

    def subscriptions(self, count: int, stream: str = "subscriptions") -> List:
        """``count`` subscription trees of the three auction classes."""
        rng = _rng(self.seed, stream)
        # Exact class shares in a seeded order: the mix itself does not
        # vary from seed to seed, only which trees are drawn.
        specific = round(0.35 * count)
        collectors = round(0.25 * count)
        classes = np.array([0] * specific + [2] * collectors
                           + [1] * (count - specific - collectors))
        rng.shuffle(classes)
        makers = (self._specific_item, self._category_interest, self._collector)
        return [makers[int(kind)](rng) for kind in classes]

    def _price(self, rng: np.random.Generator, low: float, high: float) -> float:
        """A price at a uniformly drawn quantile of the price distribution."""
        return _price_at(rng.uniform(low, high))

    def _title(self, rng: np.random.Generator) -> str:
        return self.titles[int(rng.choice(N_TITLES, p=self.title_weights))]

    def _specific_item(self, rng: np.random.Generator):
        if rng.random() < 0.2:
            parts = [P("title").prefix("series-%02d" % int(rng.integers(N_SERIES)))]
        else:
            parts = [P("title") == self._title(rng)]
        parts.append(P("price") <= self._price(rng, 0.3, 0.9))
        if rng.random() < 0.5:
            parts.append(P("condition").in_(CONDITIONS[: int(rng.integers(2, 5))]))
        if rng.random() < 0.3:
            parts.append(P("format") == FORMATS[int(rng.integers(len(FORMATS)))])
        if rng.random() < 0.25:
            parts.append(P("buy_now") == True)  # noqa: E712 (builder DSL)
        return And(*parts)

    def _category_interest(self, rng: np.random.Generator):
        parts = []
        if rng.random() < 0.4:
            picked = rng.choice(len(CATEGORIES), size=int(rng.integers(2, 4)),
                                replace=False)
            parts.append(Or(*[P("category") == CATEGORIES[int(i)] for i in picked]))
        else:
            index = int(rng.choice(len(CATEGORIES), p=self.category_weights))
            parts.append(P("category") == CATEGORIES[index])
        start = rng.uniform(0.05, 0.72)
        width = rng.uniform(0.08, 0.25)
        low = _price_at(start)
        high = max(low + 2.0, _price_at(min(0.97, start + width)))
        parts.append(P("price") >= low)
        parts.append(P("price") <= high)
        parts.append(P("seller_rating") >= round(float(rng.uniform(3.0, 4.8)), 1))
        if rng.random() < 0.5:
            parts.append(Not(P("condition") == "poor"))
        if rng.random() < 0.4:
            parts.append(P("format") == FORMATS[int(rng.integers(len(FORMATS)))])
        if rng.random() < 0.3:
            parts.append(P("year") >= int(rng.integers(1970, 2004)))
        return And(*parts)

    def _collector(self, rng: np.random.Generator):
        clauses = []
        for _ in range(int(rng.integers(2, 5))):
            if rng.random() < 0.5:
                index = int(rng.choice(N_AUTHORS, p=self.author_weights))
                clause = [P("author") == self.authors[index]]
            else:
                clause = [P("title") == self._title(rng)]
            clause.append(P("price") <= self._price(rng, 0.3, 0.95))
            if rng.random() < 0.4:
                clause.append(P("condition").in_(CONDITIONS[: int(rng.integers(2, 5))]))
            if rng.random() < 0.2:
                clause.append(P("seller_rating") >= round(float(rng.uniform(3.5, 4.6)), 1))
            clauses.append(And(*clause))
        parts = [Or(*clauses)]
        if rng.random() < 0.6:
            parts.append(Not(P("condition") == "poor"))
        if rng.random() < 0.4:
            parts.append(P("shipping_cost") <= round(float(rng.uniform(3.0, 9.0)), 2))
        if rng.random() < 0.3:
            parts.append(P("event_type").in_(["listed", "bid"]))
        if rng.random() < 0.2:
            parts.append(Not(P("title").contains("vol 1")))
        return And(*parts)


def churn_steps(seed: int, live: int, replaces: int,
                swaps: int) -> Iterator[List[Tuple[str, int]]]:
    """A fixed, seeded sequence of churn steps, one list of operations each.

    Each operation is ``(kind, slot)``: ``kind`` is ``"replace"``,
    ``"unsubscribe"`` or ``"subscribe"``; ``slot`` indexes the benchmark's
    list of ``live`` handles.  A step replaces ``replaces`` subscriptions
    and swaps ``swaps`` more out (an unsubscribe, then a subscribe that
    refills the same slot), so the table keeps its size.
    """
    rng = _rng(seed, "churn")
    while True:
        ops = [("replace", int(rng.integers(live))) for _ in range(replaces)]
        for _ in range(swaps):
            slot = int(rng.integers(live))
            ops += [("unsubscribe", slot), ("subscribe", slot)]
        yield ops


def fanout_subscriptions(seed: int, count: int, table: int, fanout: int,
                         stream: str = "fanout-subscriptions") -> List:
    """Flat subscriptions for the ``wire-fanout`` workload.

    Each is ``category == c AND price <= cap`` with a uniform category and
    a cap near the price quantile at which a table of ``table`` such
    subscriptions delivers each event to about ``fanout`` of them.
    """
    rng = _rng(seed, stream)
    share = min(1.0, fanout * len(CATEGORIES) / table)
    trees = []
    for _ in range(count):
        category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        quantile = float(np.clip(rng.normal(share, 0.1), 0.02, 0.999))
        trees.append(And(P("category") == category,
                         P("price") <= round(100.0 * quantile, 2)))
    return trees


def fanout_events(seed: int, count: int) -> List[Event]:
    """Small listing events: uniform category and price on [0, 100)."""
    rng = _rng(seed, "fanout-events")
    categories = rng.integers(len(CATEGORIES), size=count)
    prices = np.round(rng.uniform(0.0, 100.0, count), 2)
    listings = rng.integers(0, 10**6, size=count)
    return [
        Event({"category": CATEGORIES[int(categories[i])],
               "price": float(prices[i]), "listing": int(listings[i])})
        for i in range(count)
    ]


def sample_positions(seed: int, total: int, count: int) -> Sequence[int]:
    """A seeded, sorted sample of ``count`` positions out of ``total``."""
    rng = _rng(seed, "oracle-sample")
    count = min(count, total)
    return sorted(int(i) for i in rng.choice(total, size=count, replace=False))

