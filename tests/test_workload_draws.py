"""``QueryWorkload`` draws exactly what the stdlib calls would.

The key draw replays ``random.Random.sample`` (both of its branches: the
swap pool when the population is small, the selected-index set otherwise)
and ``random.Random.choice`` straight off ``getrandbits``.  The reference
below is the plain loop it replaces — ``rng.sample`` + ``rng.choice`` on the
workload generator, ``rng.uniform`` on the constraint generator — run on
identically seeded generators, so any divergence from the running
interpreter's ``random`` module shows up as a different query.  The same
reference checks the shared draw scripts every ``build_workload`` workload
replays: interleaved, extended, copied, capped and evicted.
"""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest

from repro.queries import workload as workload_module
from repro.queries.aggregates import AggregateKind
from repro.queries.constraints import PrecisionConstraintGenerator
from repro.queries.workload import QueryWorkload
from repro.simulation.config import SimulationConfig

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


# ----------------------------------------------------------------------
# Shared draw scripts: every workload ``build_workload`` makes replays the
# process's one script of its seeded stream.
# ----------------------------------------------------------------------
#: ``(delta_avg, sigma)`` pairs: a proper range, a point, delta = 0, delta =
#: inf as a point (sigma < 1) and as ``[0, inf]`` (sigma > 1, clamped).
CONSTRAINT_RANGES = [
    (10.0, 1.0),
    (10.0, 0.0),
    (0.0, 1.0),
    (math.inf, 0.5),
    (math.inf, 2.0),
    (10.0, 3.0),
]


def _shared(keys, size, kinds, seed, ranges=0):
    average, variation = CONSTRAINT_RANGES[ranges]
    config = SimulationConfig(
        duration=1.0,
        query_size=size,
        aggregates=kinds,
        constraint_average=average,
        constraint_variation=variation,
        seed=seed,
    )
    return config.build_workload(keys)


def _reference(keys, size, kinds, seed, ranges=0):
    """The plain ``sample``/``choice``/``uniform`` stream, query by query."""
    average, variation = CONSTRAINT_RANGES[ranges]
    low = max(average * (1.0 - variation), 0.0)
    high = average * (1.0 + variation)
    rng = random.Random(seed)
    constraint_rng = random.Random(seed + 1)
    while True:
        picked = tuple(rng.sample(keys, size))
        kind = rng.choice(kinds)
        constraint = low if low == high else constraint_rng.uniform(low, high)
        yield picked, kind, constraint


def _assert_draw(workload, expected, step):
    query = workload.generate(float(step))
    assert (query.keys, query.kind, query.constraint) == next(expected)


@pytest.fixture
def fresh_scripts():
    workload_module._shared_scripts.clear()
    yield
    workload_module._shared_scripts.clear()


@pytest.mark.parametrize("aggregates", sorted(AGGREGATE_SETS))
@pytest.mark.parametrize("population,size", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_shared_scripts_match_the_reference(
    population, size, aggregates, seed, fresh_scripts
):
    keys = [f"host-{index}" for index in range(population)]
    kinds = AGGREGATE_SETS[aggregates]
    # A short run, a longer one extending the script, a short one again.
    for length, ranges in ((4, 0), (17, 1), (6, 4)):
        workload = _shared(keys, size, kinds, seed, ranges)
        expected = _reference(keys, size, kinds, seed, ranges)
        for step in range(1, length + 1):
            _assert_draw(workload, expected, step)
    # Consumers at different paces over every constraint range.
    consumers = [
        (
            _shared(keys, size, kinds, seed, ranges),
            _reference(keys, size, kinds, seed, ranges),
            pace,
        )
        for ranges, pace in enumerate((1, 3, 2, 5, 1, 4))
    ]
    for round_ in range(1, 9):
        for workload, expected, pace in consumers:
            for _ in range(pace):
                _assert_draw(workload, expected, round_)
    (script,) = workload_module._shared_scripts.values()
    assert len(script.draws) == 8 * 5 == len(script.uniforms)


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_uniform_is_uniforms_own_expression(seed):
    """``low + (high - low) * u`` is ``Random.uniform``, bit for bit."""
    uniforms = random.Random(seed)
    reference = random.Random(seed)
    for low, high in ((0.0, 20.0), (5.0, 15.0), (0.0, math.inf), (1e-9, 3e6)):
        for _ in range(50):
            expected = reference.uniform(low, high)
            assert low + (high - low) * uniforms.random() == expected


def _shared_workloads(seed):
    keys = [f"host-{index}" for index in range(50)]
    kinds = AGGREGATE_SETS["two-kinds"]

    def workload(ranges=0):
        return _shared(keys, 10, kinds, seed, ranges)

    def reference(ranges=0):
        return _reference(keys, 10, kinds, seed, ranges)

    return workload, reference


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("seed", SEEDS)
def test_copy_of_a_shared_workload_continues_the_stream(clone, seed, fresh_scripts):
    workload, reference = _shared_workloads(seed)
    original, expected = workload(), reference()
    for step in range(1, 8):
        _assert_draw(original, expected, step)
    twin, twin_expected = clone(original), reference()
    for _ in range(7):
        next(twin_expected)
    for step in range(8, 30):
        _assert_draw(twin, twin_expected, step)
        _assert_draw(original, expected, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_runs_past_the_cap_continue_privately(seed, fresh_scripts, monkeypatch):
    monkeypatch.setattr(workload_module, "_SCRIPT_MAX_QUERIES", 6)
    workload, reference = _shared_workloads(seed)
    first, first_expected = workload(0), reference(0)
    second, second_expected = workload(3), reference(3)
    for step in range(1, 21):
        _assert_draw(first, first_expected, step)
        if step % 2:
            _assert_draw(second, second_expected, step)
    third, third_expected = workload(4), reference(4)
    for step in range(1, 16):
        _assert_draw(third, third_expected, step)
        _assert_draw(second, second_expected, step)
    # The cached script kept the cap's worth of draws, no more.
    (script,) = workload_module._shared_scripts.values()
    assert len(script.draws) == len(script.uniforms) == 6


@pytest.mark.parametrize("seed", SEEDS)
def test_an_evicted_script_stops_growing(seed, fresh_scripts):
    """A workload whose script left the cache continues on its own."""
    workload, reference = _shared_workloads(seed)
    early, early_expected = workload(), reference()
    for step in range(1, 4):
        _assert_draw(early, early_expected, step)
    evicted = early._script
    other_keys = [f"peer-{index}" for index in range(30)]
    other = _shared(other_keys, 5, AGGREGATE_SETS["one-kind"], seed + 1000)
    other_expected = _reference(other_keys, 5, AGGREGATE_SETS["one-kind"], seed + 1000)
    late, late_expected = workload(), reference()
    assert late._script is not evicted
    for step in range(4, 30):
        _assert_draw(early, early_expected, step)
        _assert_draw(other, other_expected, step)
        _assert_draw(late, late_expected, step)
    assert len(evicted.draws) == 3


def test_equal_keys_of_other_types_get_their_own_script(fresh_scripts):
    """``1 == 1.0``, but a float-keyed workload must query float keys."""
    int_keys = list(range(12))
    float_keys = [float(key) for key in int_keys]
    kinds = AGGREGATE_SETS["one-kind"]
    ints = _shared(int_keys, 4, kinds, 3).generate(1.0)
    floats = _shared(float_keys, 4, kinds, 3).generate(1.0)
    assert ints.keys == floats.keys
    assert {type(key) for key in ints.keys} == {int}
    assert {type(key) for key in floats.keys} == {float}
