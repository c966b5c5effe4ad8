"""Query workload generation.

The paper's simulated workload (Section 4.1 / 4.3) executes one query every
``T_q`` seconds at the cache.  Each query computes either the SUM or the MAX
of the values hosted by a randomly chosen subset of sources (10 of the 50
hosts for the network-monitoring experiments) and carries a precision
constraint drawn from the configured constraint distribution.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator


class Query:
    """One bounded-aggregate query issued at the cache.

    A ``__slots__`` value object (one is created per simulated query tick).
    """

    __slots__ = ("time", "kind", "keys", "constraint")

    def __init__(
        self,
        time: float,
        kind: AggregateKind,
        keys: Tuple[Hashable, ...],
        constraint: float,
    ) -> None:
        if not keys:
            raise ValueError("a query must touch at least one key")
        if constraint < 0:
            raise ValueError("constraint must be non-negative")
        if time < 0:
            raise ValueError("query time must be non-negative")
        self.time = time
        self.kind = kind
        self.keys = keys
        self.constraint = constraint

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Query(time={self.time!r}, kind={self.kind!r}, "
            f"keys={self.keys!r}, constraint={self.constraint!r})"
        )


class QueryWorkload:
    """Generates the periodic bounded-aggregate query stream.

    Parameters
    ----------
    keys:
        The population of value identifiers queries can touch.
    period:
        ``T_q`` — seconds between consecutive queries.
    constraint_generator:
        Source of per-query precision constraints.
    query_size:
        Number of distinct values each query touches (10 in the paper's
        network experiments; clamped to the population size).
    aggregates:
        The aggregate kinds to alternate among, chosen uniformly at random
        per query (the paper uses SUM or MAX; single-kind workloads pass a
        one-element sequence).
    rng:
        Randomness source (pass a seeded instance for reproducibility).
    """

    def __init__(
        self,
        keys: Sequence[Hashable],
        period: float,
        constraint_generator: PrecisionConstraintGenerator,
        query_size: int = 10,
        aggregates: Sequence[AggregateKind] = (AggregateKind.SUM,),
        rng: Optional[random.Random] = None,
    ) -> None:
        if not keys:
            raise ValueError("the workload needs at least one key")
        if period <= 0:
            raise ValueError("query period (T_q) must be positive")
        if query_size < 1:
            raise ValueError("query_size must be at least 1")
        if not aggregates:
            raise ValueError("at least one aggregate kind is required")
        self._keys = list(keys)
        self._period = float(period)
        self._constraints = constraint_generator
        self._query_size = min(query_size, len(self._keys))
        self._aggregates = list(aggregates)
        self._rng = rng if rng is not None else random.Random()
        # ``generate`` replays ``rng.sample`` and ``rng.choice`` draw for draw
        # straight off ``getrandbits``, skipping their per-call set-up and
        # the ``_randbelow`` call per draw.  That is only the same stream when
        # the generator uses the stdlib's getrandbits-based methods; any
        # other ``Random`` subclass keeps calling its own ``sample``/``choice``.
        rng_type = type(self._rng)
        randbelow = getattr(rng_type, "_randbelow", None)
        self._stdlib_draws = (
            randbelow is random.Random._randbelow_with_getrandbits
            and rng_type.sample is random.Random.sample
            and rng_type.choice is random.Random.choice
        )
        # ``random.Random.sample`` keeps a swap pool when the population list
        # is no larger than the set it would otherwise track the picks in.
        population = len(self._keys)
        setsize = 21
        if self._query_size > 5:
            setsize += 4 ** math.ceil(math.log(self._query_size * 3, 4))
        self._pool_draws = population <= setsize
        # Each draw is ``_randbelow(bound)``: ``getrandbits(bound.bit_length())``
        # repeated until the result falls below ``bound``.  The pool shrinks
        # by one per pick; the set branch always draws below the population.
        self._key_bounds = tuple(
            (population - index, (population - index).bit_length())
            for index in range(self._query_size)
        )
        self._aggregate_bits = len(self._aggregates).bit_length()

    @property
    def period(self) -> float:
        """Seconds between queries (``T_q``)."""
        return self._period

    @property
    def query_size(self) -> int:
        """Number of values each query touches."""
        return self._query_size

    @property
    def constraint_generator(self) -> PrecisionConstraintGenerator:
        """The constraint distribution used by this workload."""
        return self._constraints

    def query_times(self, duration: float) -> List[float]:
        """Return all query instants in ``(0, duration]``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        times = []
        time = self._period
        while time <= duration + 1e-9:
            times.append(round(time, 9))
            time += self._period
        return times

    def generate(self, time: float) -> Query:
        """Generate the query issued at ``time``.

        The keys are ``rng.sample(keys, query_size)`` and the kind is
        ``rng.choice(aggregates)``, drawn in that order.
        """
        if self._stdlib_draws:
            getrandbits = self._rng.getrandbits
            picked = []
            if self._pool_draws:
                pool = self._keys.copy()
                for bound, bits in self._key_bounds:
                    index = getrandbits(bits)
                    while index >= bound:
                        index = getrandbits(bits)
                    picked.append(pool[index])
                    pool[index] = pool[bound - 1]
            else:
                population = self._keys
                bound, bits = self._key_bounds[0]
                selected = set()
                for _ in range(self._query_size):
                    index = getrandbits(bits)
                    while index >= bound or index in selected:
                        index = getrandbits(bits)
                    selected.add(index)
                    picked.append(population[index])
            keys = tuple(picked)
            aggregates = self._aggregates
            bits = self._aggregate_bits
            index = getrandbits(bits)
            while index >= len(aggregates):
                index = getrandbits(bits)
            kind = aggregates[index]
        else:
            keys = tuple(self._rng.sample(self._keys, self._query_size))
            kind = self._rng.choice(self._aggregates)
        constraint = self._constraints.sample()
        return Query(time=time, kind=kind, keys=keys, constraint=constraint)
