"""Seeded data and request streams for the four end-to-end workloads.

Everything here is a pure function of ``--seed``: the same seed gives the
same relations, the same request texts and, for the open loop, the same
arrival schedule.  The query shapes are the paper's bag-sensitive examples
(3.1 π-with-duplicates and δ, 3.2 Γ-AVG over ⋈, 4.1 structure-preserving
update); ``README.md`` records why each workload exists.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.database import Database
from repro.relation import Relation
from repro.workloads import BEER_SCHEMA, BREWERY_SCHEMA, BeerWorkload

#: Frozen open-loop arrival rate of ``oltp_open`` (all connections together).
RATE_OPS_PER_S = 50.0
#: An op slower than this from its due time misses the latency limit.
LATENCY_LIMIT_MS = 25.0
#: The load generator's threads; one TCP connection each (``nproc`` is 2).
CONNECTIONS = 2


class Request(NamedTuple):
    """One wire round trip.  ``rows`` is the bag cardinality the first
    result must have, when the generator can know it from the data."""

    op: str
    text: str = ""
    rows: Optional[int] = None


class Op(NamedTuple):
    """One counted operation: a read, a write, or a whole transaction."""

    kind: str  # "read" | "write" | "txn"
    requests: Tuple[Request, ...]


#: A connection's work: ``(due, op)`` with ``due`` seconds after the window
#: opens, or ``None`` for a closed loop (send as soon as the last one ends).
Item = Tuple[Optional[float], Op]


class Tables:
    """One beer/brewery pair and the constants the templates draw from."""

    def __init__(self, beer: str, brewery: str, generator: BeerWorkload) -> None:
        beer_rows = generator.beer_rows()
        self.beer_name = beer
        self.brewery_name = brewery
        self.beer = Relation(BEER_SCHEMA, beer_rows).rename(beer)
        self.brewery = Relation(BREWERY_SCHEMA, generator.brewery_rows()).rename(brewery)
        self.by_brewery = Counter(row[1] for row in beer_rows)
        self.by_name = Counter(row[0] for row in beer_rows)
        self._alcs = sorted(row[2] for row in beer_rows)

    def threshold(self, share: float) -> float:
        """The ``alcperc`` value that about ``share`` of the beers exceed."""
        return self._alcs[int(len(self._alcs) * (1.0 - share))]

    def rows_above(self, threshold: float) -> int:
        return len(self._alcs) - bisect_right(self._alcs, threshold)


class Dataset:
    """The database of one run: full-size tables plus a 1/10 slice.

    The slice (``beer_v``/``brewery_v``) is small enough for the reference
    evaluator's σ(×) join, so every query template is checked against the
    oracle there before anything is timed.
    """

    def __init__(self, seed: int, smoke: bool = False) -> None:
        shrink = 10 if smoke else 1
        self.full = Tables("beer", "brewery", self._generator(seed, shrink))
        self.slice = Tables("beer_v", "brewery_v", self._generator(seed, 10 * shrink))

    @staticmethod
    def _generator(seed: int, shrink: int) -> BeerWorkload:
        return BeerWorkload(
            beers=20_000 // shrink,
            breweries=400 // shrink,
            name_pool=2_000 // shrink,
            seed=seed,
        )

    def relations(self) -> List[Relation]:
        return [self.full.beer, self.full.brewery, self.slice.beer, self.slice.brewery]

    def database(self) -> Database:
        """An in-process copy (the oracle's, the replay's, the final check's)."""
        database = Database()
        for relation in self.relations():
            database.create_relation(relation.schema, relation)
        return database


# -- request texts -----------------------------------------------------------


def by_brewery(tables: Tables, key: str, sql: bool) -> Request:
    text = (
        f"SELECT * FROM {tables.beer_name} WHERE brewery = '{key}'"
        if sql
        else f"? sel[brewery = '{key}']({tables.beer_name});"
    )
    return Request("sql" if sql else "xra", text, tables.by_brewery[key])


def by_name(tables: Tables, key: str, sql: bool) -> Request:
    text = (
        f"SELECT name FROM {tables.beer_name} WHERE name = '{key}'"
        if sql
        else f"? proj[%1](sel[name = '{key}']({tables.beer_name}));"
    )
    return Request("sql" if sql else "xra", text, tables.by_name[key])


def avg_by_country(tables: Tables, x: str, sql: bool) -> Request:
    """Example 3.2: Γ-AVG over ⋈ (duplicates must survive the join)."""
    beer, brewery = tables.beer_name, tables.brewery_name
    if sql:
        return Request(
            "sql",
            f"SELECT {brewery}.country, AVG({beer}.alcperc) FROM {beer}, {brewery} "
            f"WHERE {beer}.brewery = {brewery}.name AND {beer}.alcperc > {x} "
            f"GROUP BY {brewery}.country",
        )
    return Request(
        "xra",
        f"? groupby[(country), AVG, alcperc]"
        f"(join[%2 = %4](sel[alcperc > {x}]({beer}), {brewery}));",
    )


def distinct_countries(tables: Tables, x: str, sql: bool) -> Request:
    """Example 3.1 under δ: π-with-duplicates, then duplicate removal."""
    beer, brewery = tables.beer_name, tables.brewery_name
    if sql:
        return Request(
            "sql",
            f"SELECT DISTINCT {brewery}.country FROM {beer}, {brewery} "
            f"WHERE {beer}.brewery = {brewery}.name AND {beer}.alcperc > {x}",
        )
    return Request(
        "xra",
        f"? unique(proj[%6](sel[%3 > {x}](join[%2 = %4]({beer}, {brewery}))));",
    )


def bulk_projection(tables: Tables, share: float) -> Request:
    x = tables.threshold(share)
    return Request(
        "xra",
        f"? proj[%1, %3](sel[alcperc > {x}]({tables.beer_name}));",
        tables.rows_above(x),
    )


def bulk_join(tables: Tables, share: float) -> Request:
    x = tables.threshold(share)
    return Request(
        "xra",
        f"? proj[%1, %6](join[%2 = %4](sel[alcperc > {x}]({tables.beer_name}), "
        f"{tables.brewery_name}));",
        tables.rows_above(x),  # every beer joins exactly one brewery
    )


def _read(request: Request) -> Op:
    return Op("read", (request,))


def _zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    return list(itertools.accumulate(rank**-exponent for rank in range(1, count + 1)))


# -- the workloads -----------------------------------------------------------


class Workload:
    """Base: a named traffic mix over one :class:`Dataset`."""

    name = ""
    loop = "closed"
    #: Ops in the traced sample (live spans + in-process replay).
    sample = 300
    #: True when the stream writes, so answers depend on commit order.
    writes = False

    def __init__(self, data: Dataset, seed: int, instance: int) -> None:
        self.data = data
        self.seed = seed
        #: Which of the unit's server instances this is: the data and the
        #: keys stay, the timed stream differs.
        self.instance = instance

    def rng(self, *scope: object) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{scope}")

    def verification(self) -> List[Request]:
        """Every read template, instantiated over the verification slice."""
        raise NotImplementedError

    def warmup(self, connection: int) -> List[Op]:
        """Ops one connection sends before the first timed op."""
        raise NotImplementedError

    def stream(self, connection: int, seconds: float) -> Iterator[Item]:
        """The timed ops of one connection."""
        raise NotImplementedError


class _PointKeys:
    """Hot keys with Zipf(1.1) popularity over one :class:`Tables`."""

    def __init__(self, tables: Tables, rng: random.Random) -> None:
        self.tables = tables
        breweries = sorted(tables.by_brewery)
        names = sorted(tables.by_name)
        self.breweries = rng.sample(breweries, min(64, len(breweries)))
        self.names = rng.sample(names, min(32, len(names)))
        self._brewery_weights = _zipf_weights(len(self.breweries))
        self._name_weights = _zipf_weights(len(self.names))

    def requests(self) -> List[Request]:
        """Every distinct text the stream can send (≤ 192)."""
        return [
            shape(self.tables, key, sql)
            for shape, keys in ((by_brewery, self.breweries), (by_name, self.names))
            for key in keys
            for sql in (False, True)
        ]

    def draw(self, rng: random.Random) -> Request:
        sql = rng.random() < 0.2
        if rng.random() < 0.7:
            key = rng.choices(self.breweries, cum_weights=self._brewery_weights)[0]
            return by_brewery(self.tables, key, sql)
        key = rng.choices(self.names, cum_weights=self._name_weights)[0]
        return by_name(self.tables, key, sql)


class _PointReads(Workload):
    """Base of the two workloads whose reads are hot point queries."""

    def __init__(self, data: Dataset, seed: int, instance: int) -> None:
        super().__init__(data, seed, instance)
        self.keys = _PointKeys(data.full, self.rng("keys"))

    def verification(self) -> List[Request]:
        return _PointKeys(self.data.slice, self.rng("verify")).requests()[::8]


class PointHot(_PointReads):
    name = "point_hot"

    def warmup(self, connection: int) -> List[Op]:
        # Every distinct text once, so the window starts on a full cache.
        return [_read(request) for request in self.keys.requests()[connection::CONNECTIONS]]

    def stream(self, connection: int, seconds: float) -> Iterator[Item]:
        rng = self.rng("stream", self.instance, connection)
        while True:
            yield None, _read(self.keys.draw(rng))


class AnalyticCold(Workload):
    name = "analytic_cold"

    _SHAPES = (
        (0.35, avg_by_country, False),
        (0.70, distinct_countries, False),
        (0.85, avg_by_country, True),
        (1.00, distinct_countries, True),
    )

    def _draw(self, tables: Tables, rng: random.Random, serial: int) -> Request:
        # Three random digits pick the selectivity; the serial makes the
        # text (hence the plan key and the fingerprint) unique for ever.
        x = f"{rng.uniform(0.5, 6.0):.3f}{serial:06d}"
        pick = rng.random()
        for limit, shape, sql in self._SHAPES:
            if pick < limit:
                return shape(tables, x, sql)
        raise AssertionError("unreachable")

    def verification(self) -> List[Request]:
        return [
            shape(self.data.slice, x, sql)
            for _limit, shape, sql in self._SHAPES
            for x in ("0.75", "5.5")
        ]

    _WARMUP_OPS = 40

    def _ops(self, connection: int, scope: object, first: int) -> Iterator[Op]:
        rng = self.rng(scope, connection)
        for count in itertools.count(first):
            yield _read(self._draw(self.data.full, rng, count * CONNECTIONS + connection))

    def warmup(self, connection: int) -> List[Op]:
        return list(itertools.islice(self._ops(connection, "warmup", 0), self._WARMUP_OPS))

    def stream(self, connection: int, seconds: float) -> Iterator[Item]:
        # Serials continue past the warm-up's, so no text ever repeats.
        for op in self._ops(connection, ("stream", self.instance), self._WARMUP_OPS):
            yield None, op


class BulkResult(Workload):
    name = "bulk_result"
    sample = 60

    #: Share of ``beer`` each text keeps: ≈5 000 distinct pairs (≈100 kB).
    _SHARES = (0.300, 0.305, 0.310, 0.315, 0.320, 0.325)

    def _requests(self, tables: Tables) -> List[Request]:
        requests = [bulk_projection(tables, share) for share in self._SHARES]
        requests.insert(2, bulk_join(tables, 0.31))
        requests.append(bulk_join(tables, 0.32))
        return requests

    def verification(self) -> List[Request]:
        return self._requests(self.data.slice)

    def warmup(self, connection: int) -> List[Op]:
        return [_read(request) for request in self._requests(self.data.full)]

    def stream(self, connection: int, seconds: float) -> Iterator[Item]:
        ops = [_read(request) for request in self._requests(self.data.full)]
        offset = connection * len(ops) // CONNECTIONS
        for op in itertools.cycle(ops[offset:] + ops[:offset]):
            yield None, op


class OltpOpen(_PointReads):
    """Reads beside writes, on a fixed Poisson arrival schedule.

    Keys are partitioned by connection — a brewery belongs to connection
    ``index % 2``, inserted names carry their connection's number — so the
    writes of different connections commute and the final state can be
    checked against a serial replay of whatever was acknowledged.  Inserted
    rows name a brewery no read asks for, so every point read still has a
    known cardinality while the table changes under it.
    """

    name = "oltp_open"
    loop = "open"
    writes = True

    def __init__(self, data: Dataset, seed: int, instance: int) -> None:
        super().__init__(data, seed, instance)
        self.breweries = sorted(data.full.by_brewery)

    # The write templates (Definition 4.1, Example 4.1).

    def _insert(self, name: str, connection: int) -> Request:
        return Request(
            "xra",
            f"insert(beer, tuples[('{name}', 'Tapkamer-{connection}', 5.0)]);",
        )

    @staticmethod
    def _delete(name: str) -> Request:
        return Request("xra", f"delete(beer, sel[name = '{name}'](beer));")

    @staticmethod
    def _update(brewery: str) -> Request:
        return Request(
            "xra",
            f"update(beer, sel[brewery = '{brewery}'](beer), (%1, %2, %3 * 1.1));",
        )

    def _bracket(self, name: str, connection: int) -> Op:
        return Op(
            "txn",
            (
                Request("begin"),
                self._insert(name, connection),
                Request("xra", f"? sel[name = '{name}'](beer);", 1),
                Request("commit"),
            ),
        )

    def _own_brewery(self, rng: random.Random, connection: int) -> str:
        index = rng.randrange(len(self.breweries) // CONNECTIONS)
        return self.breweries[index * CONNECTIONS + connection]

    def _owner(self, request: Request) -> int:
        """Connection affinity of a read: a stable function of its text."""
        return sum(request.text.encode()) % CONNECTIONS

    def warmup(self, connection: int) -> List[Op]:
        rng = self.rng("warmup", connection)
        name = f"ins-{connection}-warm"
        ops = [
            _read(request)
            for request in self.keys.requests()
            if self._owner(request) == connection
        ]
        ops += [
            Op("write", (self._insert(name, connection),)),
            Op("write", (self._delete(name),)),
            Op("write", (self._update(self._own_brewery(rng, connection)),)),
            self._bracket(f"txn-{connection}-warm", connection),
        ]
        return ops

    def schedule(self, seconds: float) -> List[List[Item]]:
        """Per-connection FIFO queues of ``(due, op)`` for the whole window.

        A Poisson process conditioned on its count: exactly ``rate × seconds``
        arrivals at sorted uniform times, and exactly the stated mix in a
        shuffled order — so every seed executes the same amount of work and
        only *when* and *on which key* differs.
        """
        rng = self.rng("schedule", self.instance)
        count = round(RATE_OPS_PER_S * seconds)
        kinds = (
            ["read"] * (count // 2) + ["churn"] * (count // 5) + ["update"] * (count * 3 // 20)
        )
        kinds += ["txn"] * (count - len(kinds))
        rng.shuffle(kinds)
        queues: List[List[Item]] = [[] for _ in range(CONNECTIONS)]
        churned = [0] * CONNECTIONS
        brackets = [0] * CONNECTIONS
        for due, kind in zip(sorted(rng.uniform(0.0, seconds) for _ in kinds), kinds):
            connection = rng.randrange(CONNECTIONS)
            if kind == "read":
                request = self.keys.draw(rng)
                connection, op = self._owner(request), _read(request)
            elif kind == "churn":
                # Alternate: insert a fresh key, then delete it again, so
                # |beer| stays put.
                serial, second = divmod(churned[connection], 2)
                churned[connection] += 1
                name = f"ins-{connection}-{serial}"
                request = self._delete(name) if second else self._insert(name, connection)
                op = Op("write", (request,))
            elif kind == "update":
                op = Op("write", (self._update(self._own_brewery(rng, connection)),))
            else:
                op = self._bracket(f"txn-{connection}-{brackets[connection]}", connection)
                brackets[connection] += 1
            queues[connection].append((due, op))
        return queues

    def stream(self, connection: int, seconds: float) -> Iterator[Item]:
        return iter(self.schedule(seconds)[connection])


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (PointHot, AnalyticCold, BulkResult, OltpOpen)
}


def write_requests(ops: Sequence[Op]) -> Iterator[Request]:
    """The state-changing statements among ``ops``, in order."""
    for op in ops:
        for request in op.requests:
            if request.op == "xra" and not request.text.startswith("?"):
                yield request
