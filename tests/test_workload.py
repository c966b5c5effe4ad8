"""Unit tests for the query workload generator."""

import math
import random

import pytest

from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator
from repro.queries.workload import Query, QueryWorkload


def _workload(
    keys=("a", "b", "c", "d"),
    period=2.0,
    query_size=2,
    aggregates=(AggregateKind.SUM,),
    seed=0,
):
    return QueryWorkload(
        keys=list(keys),
        period=period,
        constraint_generator=PrecisionConstraintGenerator(
            average=10.0, variation=1.0, rng=random.Random(seed)
        ),
        query_size=query_size,
        aggregates=aggregates,
        rng=random.Random(seed),
    )


class TestQueryDataclass:
    def test_valid_query(self):
        query = Query(time=1.0, kind=AggregateKind.SUM, keys=("a",), constraint=5.0)
        assert query.keys == ("a",)

    def test_rejects_empty_keys(self):
        with pytest.raises(ValueError):
            Query(time=1.0, kind=AggregateKind.SUM, keys=(), constraint=5.0)

    def test_rejects_negative_constraint(self):
        with pytest.raises(ValueError):
            Query(time=1.0, kind=AggregateKind.SUM, keys=("a",), constraint=-1.0)
        with pytest.raises(ValueError):
            Query(time=1.0, kind=AggregateKind.SUM, keys=("a",), constraint=math.nan)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Query(time=-1.0, kind=AggregateKind.SUM, keys=("a",), constraint=1.0)
        with pytest.raises(ValueError):
            Query(time=math.nan, kind=AggregateKind.SUM, keys=("a",), constraint=1.0)


class TestWorkloadGeneration:
    def test_generated_query_has_requested_size(self):
        workload = _workload(query_size=3)
        query = workload.generate(2.0)
        assert len(query.keys) == 3
        assert len(set(query.keys)) == 3

    def test_query_size_clamped_to_population(self):
        workload = _workload(keys=("a", "b"), query_size=10)
        assert workload.query_size == 2

    def test_keys_drawn_from_population(self):
        workload = _workload()
        query = workload.generate(2.0)
        assert set(query.keys) <= {"a", "b", "c", "d"}

    def test_aggregate_kind_drawn_from_configured_set(self):
        workload = _workload(aggregates=(AggregateKind.MAX,))
        assert all(workload.generate(1.0).kind is AggregateKind.MAX for _ in range(5))

    def test_mixed_aggregates_both_appear(self):
        workload = _workload(aggregates=(AggregateKind.SUM, AggregateKind.MAX), seed=2)
        kinds = {workload.generate(float(step)).kind for step in range(1, 50)}
        assert kinds == {AggregateKind.SUM, AggregateKind.MAX}

    def test_constraints_within_distribution(self):
        workload = _workload()
        dist = workload.constraint_generator.distribution
        for step in range(1, 50):
            constraint = workload.generate(float(step)).constraint
            assert dist.minimum <= constraint <= dist.maximum

    def test_reproducible_with_seed(self):
        first = _workload(seed=9)
        second = _workload(seed=9)
        queries_a = [first.generate(float(t)) for t in range(1, 6)]
        queries_b = [second.generate(float(t)) for t in range(1, 6)]
        assert [q.keys for q in queries_a] == [q.keys for q in queries_b]
        assert [q.constraint for q in queries_a] == [q.constraint for q in queries_b]

    def test_validation(self):
        generator = PrecisionConstraintGenerator(average=1.0)
        with pytest.raises(ValueError):
            QueryWorkload(keys=[], period=1.0, constraint_generator=generator)
        with pytest.raises(ValueError):
            QueryWorkload(keys=["a"], period=0.0, constraint_generator=generator)
        with pytest.raises(ValueError):
            QueryWorkload(keys=["a"], period=math.nan, constraint_generator=generator)
        with pytest.raises(ValueError):
            QueryWorkload(
                keys=["a"], period=1.0, constraint_generator=generator, query_size=0
            )
        with pytest.raises(ValueError):
            QueryWorkload(
                keys=["a"], period=1.0, constraint_generator=generator, aggregates=()
            )

    def test_period_accessor(self):
        assert _workload(period=3.0).period == 3.0
