"""``DivergenceCachingPolicy.choose_allowance`` against the quadratic scan.

``choose_allowance`` prices every candidate allowance in one sweep: the read
and write rates are computed once and the constraints below a candidate are
counted in the sorted window.  The reference below is the scan it replaced —
one full :meth:`projected_cost` (rates and a window count included) per
candidate in ``{0, inf} ∪ set(constraints)`` — and the two must pick the
bit-identical allowance on every window: duplicates, ``0.0`` and ``inf``
constraints, empty and full windows, read-only and write-only histories.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.policies.divergence import DivergenceCachingPolicy


def reference_allowance(policy: DivergenceCachingPolicy, key, now: float) -> float:
    """The candidate scan ``choose_allowance`` used before the single sweep."""
    window = policy._window(key)
    if not window.write_times and not window.read_times:
        return policy._initial_allowance
    candidates = [0.0, math.inf]
    candidates.extend(sorted(set(window.constraints)))
    best_allowance = candidates[0]
    best_cost = math.inf
    for candidate in candidates:
        cost = policy.projected_cost(key, candidate, now)
        improves = cost < best_cost - 1e-12
        ties_with_smaller = (
            abs(cost - best_cost) <= 1e-12 and candidate < best_allowance
        )
        if improves or ties_with_smaller:
            best_cost = cost
            best_allowance = candidate
    return best_allowance


#: Constraints drawn from a small pool (so windows hold duplicates) plus
#: arbitrary non-negative floats, ``0.0`` and ``inf``.
constraints = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, math.inf)),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)

#: One observation: ``(kind, time step, constraint)``.
observations = st.tuples(
    st.sampled_from(("read", "write", "both")),
    st.sampled_from((0.0, 0.25, 1.0, 3.0)),
    constraints,
)


def _feed(policy, history):
    time = 0.0
    for kind, step, constraint in history:
        time += step
        if kind in ("write", "both"):
            policy.record_write("a", time)
        if kind in ("read", "both"):
            policy.record_read("a", time, served_from_cache=True)
            policy.record_constraint("a", constraint, time)
    return time


@given(
    window_size=st.sampled_from((1, 2, 5, 23)),
    history=st.lists(observations, max_size=80),
    lag=st.sampled_from((0.0, 0.5, 10.0)),
    costs=st.sampled_from(((1.0, 2.0), (4.0, 2.0), (1.0, 1.0), (0.3, 7.0))),
)
@settings(max_examples=400, deadline=None)
def test_sweep_matches_candidate_scan(window_size, history, lag, costs):
    value_cost, query_cost = costs
    policy = DivergenceCachingPolicy(
        value_refresh_cost=value_cost,
        query_refresh_cost=query_cost,
        window_size=window_size,
    )
    now = _feed(policy, history) + lag
    expected = reference_allowance(policy, "a", now)
    chosen = policy.choose_allowance("a", now)
    assert chosen == expected
    assert math.copysign(1.0, chosen) == math.copysign(1.0, expected)


@given(
    window=st.lists(constraints, min_size=23, max_size=23),
    write_steps=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_full_window_matches_candidate_scan(window, write_steps):
    policy = DivergenceCachingPolicy()
    for step, constraint in enumerate(window):
        policy.record_read("a", float(step), served_from_cache=False)
        policy.record_constraint("a", constraint, float(step))
    for step in range(write_steps):
        policy.record_write("a", step * 0.5)
    now = float(len(window))
    assert policy.choose_allowance("a", now) == reference_allowance(policy, "a", now)


def test_empty_windows_return_the_initial_allowance():
    policy = DivergenceCachingPolicy(initial_allowance=3.5)
    assert policy.choose_allowance("a", 10.0) == 3.5
    assert reference_allowance(policy, "a", 10.0) == 3.5


def test_writes_without_reads_match():
    policy = DivergenceCachingPolicy()
    for step in range(5):
        policy.record_write("a", float(step))
    assert policy.choose_allowance("a", 6.0) == reference_allowance(policy, "a", 6.0)
