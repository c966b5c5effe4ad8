"""``QueryWorkload.generate`` draws exactly what the stdlib calls would.

``generate`` replays ``random.Random.sample`` (both of its branches: the
swap pool when the population is small, the selected-index set otherwise)
and ``random.Random.choice`` straight off ``getrandbits``.  The reference
below is the plain loop it replaces — ``rng.sample`` + ``rng.choice`` on the
workload generator, ``rng.uniform`` on the constraint generator — run on
identically seeded generators, so any divergence from the running
interpreter's ``random`` module shows up as a different query.
"""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest

from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator
from repro.queries.workload import QueryWorkload

AGGREGATE_SETS = {
    "one-kind": (AggregateKind.SUM,),
    "two-kinds": (AggregateKind.SUM, AggregateKind.MAX),
    "four-kinds": (
        AggregateKind.SUM,
        AggregateKind.MAX,
        AggregateKind.MIN,
        AggregateKind.AVG,
    ),
}

#: ``(population, query size)`` pairs covering both ``sample`` branches:
#: the pool when ``population <= 21 (+ 4**ceil(log(3k, 4)) for k > 5)``,
#: the set otherwise, on both sides of the ``k > 5`` table-size step.
SHAPES = [
    (1, 1),
    (2, 2),
    (4, 3),
    (21, 5),
    (22, 5),
    (25, 5),
    (25, 25),
    (36, 6),
    (50, 10),
    (85, 7),
    (86, 7),
    (100, 36),
    (250, 40),
    (300, 40),
    (1000, 23),
]

SEEDS = (0, 1, 7, 42, 2024)


def _uses_pool(population: int, size: int) -> bool:
    setsize = 21
    if size > 5:
        setsize += 4 ** math.ceil(math.log(size * 3, 4))
    return population <= setsize


def test_shapes_cover_both_sample_branches():
    branches = {_uses_pool(population, size) for population, size in SHAPES}
    assert branches == {True, False}
    assert any(size > 5 and not _uses_pool(n, size) for n, size in SHAPES)
    assert any(size > 5 and _uses_pool(n, size) for n, size in SHAPES)


@pytest.mark.parametrize("aggregates", sorted(AGGREGATE_SETS))
@pytest.mark.parametrize("population,size", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_generate_matches_sample_choice_uniform(population, size, aggregates, seed):
    keys = [f"host-{index}" for index in range(population)]
    kinds = AGGREGATE_SETS[aggregates]
    workload = QueryWorkload(
        keys=keys,
        period=1.0,
        constraint_generator=PrecisionConstraintGenerator(
            average=10.0, variation=1.0, rng=random.Random(seed + 1)
        ),
        query_size=size,
        aggregates=kinds,
        rng=random.Random(seed),
    )
    reference_rng = random.Random(seed)
    constraint_rng = random.Random(seed + 1)
    for step in range(1, 13):
        query = workload.generate(float(step))
        expected_keys = tuple(reference_rng.sample(keys, size))
        expected_kind = reference_rng.choice(kinds)
        expected_constraint = constraint_rng.uniform(0.0, 20.0)
        assert query.keys == expected_keys
        assert query.kind is expected_kind
        assert query.constraint == expected_constraint
    # The two generators end in the same state, so later draws agree too.
    assert workload._rng.getstate() == reference_rng.getstate()


class _ScaledRandom(random.Random):
    """A generator whose draws do not come from ``getrandbits``."""

    def random(self):
        return super().random() * 0.5


def test_custom_generator_keeps_its_own_sample_and_choice():
    keys = [f"host-{index}" for index in range(30)]
    kinds = AGGREGATE_SETS["four-kinds"]
    workload = QueryWorkload(
        keys=keys,
        period=1.0,
        constraint_generator=PrecisionConstraintGenerator(average=10.0, variation=0.0),
        query_size=4,
        aggregates=kinds,
        rng=_ScaledRandom(5),
    )
    reference_rng = _ScaledRandom(5)
    for step in range(1, 9):
        query = workload.generate(float(step))
        assert query.keys == tuple(reference_rng.sample(keys, 4))
        assert query.kind is reference_rng.choice(kinds)


def _pickled(workload):
    return pickle.loads(pickle.dumps(workload))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
def test_copied_workload_continues_the_same_stream(clone):
    keys = [f"host-{index}" for index in range(25)]
    workload = QueryWorkload(
        keys=keys,
        period=1.0,
        constraint_generator=PrecisionConstraintGenerator(average=10.0, variation=1.0),
        query_size=5,
        aggregates=AGGREGATE_SETS["two-kinds"],
        rng=random.Random(9),
    )
    workload.generate(1.0)
    twin = clone(workload)
    for step in range(2, 8):
        query, twin_query = workload.generate(float(step)), twin.generate(float(step))
        assert (twin_query.keys, twin_query.kind) == (query.keys, query.kind)
