"""Query workload generation.

The paper's simulated workload (Section 4.1 / 4.3) executes one query every
``T_q`` seconds at the cache.  Each query computes either the SUM or the MAX
of the values hosted by a randomly chosen subset of sources (10 of the 50
hosts for the network-monitoring experiments) and carries a precision
constraint drawn from the configured constraint distribution.

A seeded stream's draws depend only on its seed, key order, query size and
aggregate set, plus one uniform per query scaled into ``[delta_min,
delta_max]``.  A parameter sweep replays the same few draw sequences under
many policies and constraint ranges, so each sequence is drawn once per
process as a :class:`DrawScript` and shared by every workload replaying it
(:func:`shared_draw_script`, called by
:meth:`~repro.simulation.config.SimulationConfig.build_workload`).
"""

from __future__ import annotations

import copy
import math
import random
from collections import OrderedDict
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.checks import at_least, positive
from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator

#: A shared script stops growing at this many queries, so a cached script
#: never pins more than a few megabytes of draws.  Consumers that run past
#: it continue the sequence on private copies of the script's generators.
_SCRIPT_MAX_QUERIES = 20_000

#: Shared scripts kept between workloads.  A sweep builds its runs one after
#: another, so the most recent sequence is the only one worth keeping.
_SCRIPT_CACHE_ENTRIES = 1

QueryDraw = Tuple[Tuple[Hashable, ...], AggregateKind, float]


class Query:
    """One bounded-aggregate query issued at the cache.

    A ``__slots__`` value object, built per query by
    :meth:`QueryWorkload.generate`.
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
        if not constraint >= 0:
            raise ValueError("constraint must be non-negative")
        if not time >= 0:
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


class _KeyDraws:
    """Draws each query's keys and kind off one generator.

    The keys are ``rng.sample(keys, query_size)`` and the kind is
    ``rng.choice(aggregates)``, drawn in that order.  :meth:`draw` replays
    both draw for draw straight off ``getrandbits``, skipping their per-call
    set-up and the ``_randbelow`` call per draw.  That is only the same
    stream when the generator uses the stdlib's getrandbits-based methods;
    any other ``Random`` subclass keeps calling its own ``sample``/``choice``.
    """

    __slots__ = (
        "_rng",
        "_keys",
        "_query_size",
        "_aggregates",
        "_stdlib_draws",
        "_pool_draws",
        "_key_bounds",
        "_aggregate_bits",
    )

    def __init__(
        self,
        rng: random.Random,
        keys: List[Hashable],
        query_size: int,
        aggregates: List[AggregateKind],
    ) -> None:
        self._rng = rng
        self._keys = keys
        self._query_size = query_size
        self._aggregates = aggregates
        rng_type = type(rng)
        randbelow = getattr(rng_type, "_randbelow", None)
        self._stdlib_draws = (
            randbelow is random.Random._randbelow_with_getrandbits
            and rng_type.sample is random.Random.sample
            and rng_type.choice is random.Random.choice
        )
        # ``random.Random.sample`` keeps a swap pool when the population list
        # is no larger than the set it would otherwise track the picks in.
        population = len(keys)
        setsize = 21
        if query_size > 5:
            setsize += 4 ** math.ceil(math.log(query_size * 3, 4))
        self._pool_draws = population <= setsize
        # Each draw is ``_randbelow(bound)``: ``getrandbits(bound.bit_length())``
        # repeated until the result falls below ``bound``.  The pool shrinks
        # by one per pick; the set branch always draws below the population.
        self._key_bounds = tuple(
            (population - index, (population - index).bit_length())
            for index in range(query_size)
        )
        self._aggregate_bits = len(aggregates).bit_length()

    def draw(self) -> Tuple[Tuple[Hashable, ...], AggregateKind]:
        """Draw the next query's ``(keys, kind)``."""
        if not self._stdlib_draws:
            keys = tuple(self._rng.sample(self._keys, self._query_size))
            return keys, self._rng.choice(self._aggregates)
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
        aggregates = self._aggregates
        bits = self._aggregate_bits
        index = getrandbits(bits)
        while index >= len(aggregates):
            index = getrandbits(bits)
        return tuple(picked), aggregates[index]


class DrawScript:
    """One seeded query draw sequence, drawn once and shared by its replays.

    ``draws[i]`` is query *i*'s ``(keys, kind)``, drawn off
    ``random.Random(seed)``; ``uniforms[i]`` is its ``random.Random(seed +
    1).random()``, which a workload scales into its own constraint range.
    Both columns grow together, one query at a time, as the furthest
    consumer asks for it.  The script stops growing at
    :data:`_SCRIPT_MAX_QUERIES` queries or once it leaves the shared cache,
    and its generators then stay where the columns end.
    """

    __slots__ = ("draws", "uniforms", "rng", "uniform_rng", "_key_draws", "growing")

    def __init__(
        self,
        seed: int,
        keys: List[Hashable],
        query_size: int,
        aggregates: List[AggregateKind],
    ) -> None:
        self.draws: List[Tuple[Tuple[Hashable, ...], AggregateKind]] = []
        self.uniforms: List[float] = []
        self.rng = random.Random(seed)
        self.uniform_rng = random.Random(seed + 1)
        self._key_draws = _KeyDraws(self.rng, keys, query_size, aggregates)
        self.growing = True

    def extend(self) -> bool:
        """Draw one more query; false, drawing nothing, once growth stopped."""
        if not self.growing:
            return False
        self.draws.append(self._key_draws.draw())
        self.uniforms.append(self.uniform_rng.random())
        if len(self.draws) >= _SCRIPT_MAX_QUERIES:
            self.growing = False
        return True


_shared_scripts: "OrderedDict[tuple, DrawScript]" = OrderedDict()


def shared_draw_script(
    seed: int,
    keys: Sequence[Hashable],
    query_size: int,
    aggregates: Sequence[AggregateKind],
) -> DrawScript:
    """The process's script of the stream seeded by ``seed``.

    Every workload looking up the same seed, key sequence, query size and
    aggregate set gets the same script.  The key types are part of the
    lookup, so keys that compare equal across types (``1`` and ``1.0``)
    never hand a workload another workload's key objects.  An evicted
    script stops growing; its workloads continue privately past its end.
    """
    query_size = min(query_size, len(keys))
    lookup = (
        seed,
        query_size,
        tuple(aggregates),
        tuple(keys),
        tuple(map(type, keys)),
    )
    script = _shared_scripts.get(lookup)
    if script is not None:
        _shared_scripts.move_to_end(lookup)
        return script
    script = DrawScript(seed, list(keys), query_size, list(aggregates))
    _shared_scripts[lookup] = script
    while len(_shared_scripts) > _SCRIPT_CACHE_ENTRIES:
        _, evicted = _shared_scripts.popitem(last=False)
        evicted.growing = False
    return script


class QueryWorkload:
    """Generates the periodic bounded-aggregate query stream.

    A workload made by :meth:`~repro.simulation.config.SimulationConfig.`
    ``build_workload`` replays its seed's shared :class:`DrawScript`, so the
    per-query cost is a list index and one multiply-add; one made with an
    ``rng`` draws privately off it.  Either way :meth:`next_query` hands out
    ``(keys, kind, constraint)`` (the simulator's per-tick read) and
    :meth:`generate` the same draw as a :class:`Query`.

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
    script:
        The shared :class:`DrawScript` of a seeded stream, in place of
        ``rng``.  Query *i* then replays the script's draw *i*, and its
        constraint is ``delta_min + (delta_max - delta_min) * uniforms[i]``
        (``delta_min`` alone when the range is a point), which is
        ``random.Random.uniform``'s own expression.  ``constraint_generator``
        only supplies the range: ``build_workload`` derives both it and the
        script from the config's seed.
    """

    def __init__(
        self,
        keys: Sequence[Hashable],
        period: float,
        constraint_generator: PrecisionConstraintGenerator,
        query_size: int = 10,
        aggregates: Sequence[AggregateKind] = (AggregateKind.SUM,),
        rng: Optional[random.Random] = None,
        script: Optional[DrawScript] = None,
    ) -> None:
        if not keys:
            raise ValueError("the workload needs at least one key")
        positive("period (T_q)", period, finite=True)
        at_least("query_size", query_size, 1, finite=True)
        if not aggregates:
            raise ValueError("at least one aggregate kind is required")
        if rng is not None and script is not None:
            raise ValueError("pass either rng or script, not both")
        self._keys = list(keys)
        self._period = float(period)
        self._constraints = constraint_generator
        self._query_size = min(query_size, len(self._keys))
        self._aggregates = list(aggregates)
        distribution = constraint_generator.distribution
        self._constraint_low = distribution.minimum
        self._constraint_span: Optional[float] = (
            None
            if distribution.minimum == distribution.maximum
            else distribution.maximum - distribution.minimum
        )
        self._script = script
        self._position = 0
        # Past a script's end the workload draws on its own generators:
        # the caller's ``rng`` and constraint generator, or copies of the
        # script's generators taken where its columns stop.
        self._rng: Optional[random.Random] = None
        self._uniform_rng: Optional[random.Random] = None
        self._key_draws: Optional[_KeyDraws] = None
        if script is None:
            self._draw_privately(rng if rng is not None else random.Random())

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

    def _draw_privately(self, rng: random.Random) -> None:
        self._rng = rng
        self._key_draws = _KeyDraws(rng, self._keys, self._query_size, self._aggregates)

    def next_query(self) -> QueryDraw:
        """Draw the next query's ``(keys, kind, constraint)``."""
        index = self._position
        self._position = index + 1
        script = self._script
        if script is not None and (index < len(script.draws) or script.extend()):
            keys, kind = script.draws[index]
            uniform = script.uniforms[index]
        else:
            if script is not None:
                # The script stopped growing here: continue on copies of its
                # generators, which stand exactly at this query.
                self._script = None
                self._draw_privately(copy.copy(script.rng))
                self._uniform_rng = copy.copy(script.uniform_rng)
            keys, kind = self._key_draws.draw()
            if self._uniform_rng is None:
                return keys, kind, self._constraints.sample()
            uniform = self._uniform_rng.random()
        span = self._constraint_span
        if span is None:
            return keys, kind, self._constraint_low
        return keys, kind, self._constraint_low + span * uniform

    def generate(self, time: float) -> Query:
        """Generate the query issued at ``time``: the next draw, as a value."""
        keys, kind, constraint = self.next_query()
        return Query(time=time, kind=kind, keys=keys, constraint=constraint)
