"""Shared fixtures. Set SUMSETS_TEST_SEED to reseed every randomized suite."""
import concurrent.futures
import dataclasses
import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from sumsets import explorer
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


def unstacked(value: int, frame) -> list[int]:
    """The layers 0..depth of a stacked DP int of ``frame``, layer j read
    from bits j*W on, each as ``kernel.advance`` holds it in a list."""
    return [value >> j * frame.width & frame.mask for j in range(frame.depth + 1)]


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


def record_pools(monkeypatch, pool_class) -> list[int]:
    """Route the process pools that scans start to ``pool_class``; returns
    the worker count of each pool started, in order."""
    started = []

    def pool(max_workers):
        started.append(max_workers)
        return pool_class(max_workers=max_workers)

    # scan imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return started


@pytest.fixture
def pool_at_any_size(monkeypatch) -> None:
    """Scans with more than one job start a pool however little work they
    have, so a test-sized scan still goes through it."""
    monkeypatch.setattr(explorer, "POOLED_SET_FOLDS", 1)


@pytest.fixture
def real_pool(pool_at_any_size, monkeypatch) -> list[int]:
    """Scans with more than one job run in a real process pool of at least
    two workers, even on one usable CPU; the worker counts of the pools
    started."""
    cpus = explorer._usable_cpus()
    monkeypatch.setattr(explorer, "_usable_cpus", lambda: max(2, cpus))
    return record_pools(monkeypatch, concurrent.futures.ProcessPoolExecutor)
