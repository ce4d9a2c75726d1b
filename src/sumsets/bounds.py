"""Closed-form lower bounds for |h^+-A| and the audit that checks a
concrete set against every applicable one.

Formula ids follow the established numbering used across the toolkit
(``T*`` theorem-backed, ``C*`` conjectured, ``TA_Nathanson`` the classical
restricted-sumset bound, which is checked against |h^A| rather than
|h^+-A|).  A VIOLATION of a theorem-backed formula can only mean an engine
bug and aborts; a conjectured formula's violation is re-verified with the
naive oracle and, if confirmed, reported as a counterexample candidate.

``confirm`` is that re-verification, and the only one: ``audit`` and every
scan check call it before a cardinality is raised or reported, and it
raises ``EngineMismatch`` when the oracle disagrees with the layered engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Callable

from .core import FiniteIntSet, SetFamily, SumsetKind, family_of
from .errors import EngineMismatch, NotApplicable, TheoremViolation
from .kernel import require_fold, sumset_layered, sumset_naive


class BoundStatus(str, Enum):
    STRICT = "Strict"
    EQUALITY = "Equality"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class BoundFormula:
    id: str
    family: SetFamily
    theorem_backed: bool
    kind: SumsetKind
    validity: Callable[[int, int], bool]
    value: Callable[[int, int], int]
    description: str

    def applies_to(self, family: SetFamily, k: int, h: int) -> bool:
        if self.family is not SetFamily.ANY and self.family is not family:
            return False
        return self.validity(k, h)

    def folds(self, k: int) -> tuple[int, ...]:
        """Every fold h at which the formula is valid for k-sets."""
        return tuple(h for h in range(1, k + 1) if self.validity(k, h))


FORMULAS: dict[str, BoundFormula] = {
    f.id: f
    for f in (
        BoundFormula(
            "T2_1",
            SetFamily.POSITIVE,
            True,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: 1 <= h <= k,
            lambda k, h: 2 * (h * k - h * h) + comb(h + 1, 2) + 1,
            "baseline bound for positive sets; tight for h in {1, 2, k}",
        ),
        BoundFormula(
            "T3_1",
            SetFamily.CONTAINS_ZERO,
            True,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: 1 <= h <= k,
            lambda k, h: 2 * (h * k - h * h) + comb(h, 2) + 1,
            "baseline bound for zero-containing sets; tight for h in {1, 2, k}",
        ),
        BoundFormula(
            "C2_1",
            SetFamily.POSITIVE,
            False,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: k >= 4 and 3 <= h <= k - 1,
            lambda k, h: 2 * h * k - h * h + 1,
            "conjectured bound for positive sets at interior folds",
        ),
        BoundFormula(
            "C3_1",
            SetFamily.CONTAINS_ZERO,
            False,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: k >= 5 and 3 <= h <= k - 1,
            lambda k, h: 2 * h * k - h * (h + 1) + 1,
            "conjectured bound for zero-containing sets at interior folds",
        ),
        BoundFormula(
            "T2_4",
            SetFamily.POSITIVE,
            True,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: k >= 4 and h == 3,
            lambda k, h: 6 * k - 8,
            "proven h = 3 bound for positive sets",
        ),
        BoundFormula(
            "T3_4",
            SetFamily.CONTAINS_ZERO,
            True,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: k >= 5 and h == 3,
            lambda k, h: 6 * k - 11,
            "proven h = 3 bound for zero-containing sets, k >= 5",
        ),
        BoundFormula(
            "T3_5",
            SetFamily.CONTAINS_ZERO,
            True,
            SumsetKind.RESTRICTED_SIGNED,
            lambda k, h: k == 4 and h == 3,
            lambda k, h: 12,
            "proven h = 3 bound for zero-containing quadruples",
        ),
        BoundFormula(
            "TA_Nathanson",
            SetFamily.ANY,
            True,
            SumsetKind.RESTRICTED,
            lambda k, h: 1 <= h <= k,
            lambda k, h: h * k - h * h + 1,
            "classical bound on the plain restricted sumset |h^A|",
        ),
    )
}


def bound_value(formula_id: str, k: int, h: int) -> int:
    """Evaluate a formula at (k, h); NotApplicable outside its validity."""
    try:
        formula = FORMULAS[formula_id]
    except KeyError:
        raise NotApplicable(f"unknown bound formula {formula_id!r}") from None
    if not formula.validity(k, h):
        raise NotApplicable(
            f"{formula_id} does not apply at k={k}, h={h}"
        )
    return formula.value(k, h)


@dataclass(frozen=True)
class BoundEntry:
    id: str
    value: int
    status: BoundStatus

    def to_json_dict(self) -> dict:
        return {"id": self.id, "value": self.value, "status": self.status.value}


@dataclass(frozen=True)
class BoundReport:
    set: FiniteIntSet
    h: int
    cardinality: int
    restricted_cardinality: int
    bounds: tuple[BoundEntry, ...]

    @property
    def has_conjecture_violation(self) -> bool:
        return any(e.status is BoundStatus.VIOLATION for e in self.bounds)

    def to_json_dict(self) -> dict:
        return {
            "set": self.set.canonical(),
            "h": self.h,
            "cardinality": self.cardinality,
            "restricted_cardinality": self.restricted_cardinality,
            "bounds": [e.to_json_dict() for e in self.bounds],
        }


def _status(cardinality: int, bound: int) -> BoundStatus:
    if cardinality < bound:
        return BoundStatus.VIOLATION
    if cardinality == bound:
        return BoundStatus.EQUALITY
    return BoundStatus.STRICT


def confirm(a: FiniteIntSet, h: int, kind: SumsetKind, card: int) -> int:
    """The oracle's |h^A| of the kind, which must equal the layered ``card``."""
    naive = sumset_naive(a, h, kind).cardinality
    if naive != card:
        raise EngineMismatch(f"engines disagree on {a}, h={h}: {card} vs {naive}")
    return naive


def audit(a: FiniteIntSet, h: int) -> BoundReport:
    """Compute |h^+-A| and |h^A| and grade every applicable formula.

    Theorem-backed violations abort (after confirming with the naive engine
    whether the fault is the layered engine or the formula table).
    Conjectured violations are kept in the report only when both engines
    agree on the cardinality.
    """
    family = family_of(a)
    require_fold(a.k, h, SumsetKind.RESTRICTED_SIGNED)
    cardinality = sumset_layered(a, h, SumsetKind.RESTRICTED_SIGNED).cardinality
    restricted = sumset_layered(a, h, SumsetKind.RESTRICTED).cardinality

    entries = []
    for formula in FORMULAS.values():
        if not formula.applies_to(family, a.k, h):
            continue
        observed = (
            restricted if formula.kind is SumsetKind.RESTRICTED else cardinality
        )
        value = formula.value(a.k, h)
        status = _status(observed, value)
        if status is BoundStatus.VIOLATION:
            confirm(a, h, formula.kind, observed)
            if formula.theorem_backed:
                raise TheoremViolation(
                    f"{formula.id} violated on {a}, h={h}: cardinality "
                    f"{observed} < bound {value} (both engines agree); "
                    "this is a bug, not a discovery"
                )
        entries.append(BoundEntry(formula.id, value, status))
    return BoundReport(
        set=a,
        h=h,
        cardinality=cardinality,
        restricted_cardinality=restricted,
        bounds=tuple(entries),
    )
