"""Shared test fixtures."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package (offline editable
# installs are not always possible); the src/ layout keeps imports unambiguous.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.parameters import PrecisionParameters  # noqa: E402


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for reproducible tests."""
    return random.Random(12345)


@pytest.fixture
def default_parameters() -> PrecisionParameters:
    """The paper's rho = 1 parameter bundle with alpha = 1."""
    return PrecisionParameters(
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        adaptivity=1.0,
    )


@pytest.fixture
def rho4_parameters() -> PrecisionParameters:
    """The paper's rho = 4 (two-phase locking) parameter bundle."""
    return PrecisionParameters(
        value_refresh_cost=4.0,
        query_refresh_cost=2.0,
        adaptivity=1.0,
    )
