"""Shared fixtures. Set SUMSETS_TEST_SEED to reseed every randomized suite."""
import dataclasses
import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from sumsets.bounds import FORMULAS

settings.register_profile(
    "sumsets",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sumsets")

DEFAULT_SEED = 214769


def suite_seed() -> int:
    return int(os.environ.get("SUMSETS_TEST_SEED", DEFAULT_SEED))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(suite_seed())


def random_elements(rng: random.Random, k: int, family: str, hi: int = 40) -> list[int]:
    """Distinct elements for one random set of the requested family."""
    if family == "any":
        return rng.sample(range(-hi, hi + 1), k)
    if family == "positive":
        return rng.sample(range(1, hi + 1), k)
    if family == "zero":
        return [0] + rng.sample(range(1, hi + 1), k - 1)
    raise ValueError(family)


def overcounting(naive):
    """A stand-in for ``sumset_naive`` whose cardinality is one too many."""
    return lambda a, h, kind: SimpleNamespace(cardinality=naive(a, h, kind).cardinality + 1)


def bound_one_above(monkeypatch, formula_id: str) -> None:
    """Patch a bound formula to one above its true value, so a set at the
    bound falls short of it."""
    formula = FORMULAS[formula_id]
    monkeypatch.setitem(FORMULAS, formula_id, dataclasses.replace(
        formula, value=lambda k, h: formula.value(k, h) + 1
    ))
