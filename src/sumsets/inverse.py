"""Structure detection and classification of bound-equality sets.

The proven inverse results cover h = 2, h = 3 and h = k.  They and the
conjectured ones are rows of one table, ``THEOREMS``: each row names its
fold, k range, bound formula and extremal family.  For each covered
(h, k, family) combination the classifier looks up the predicted family,
tests membership against the family's shape in ``witness.FAMILY_SHAPES``,
recomputes the sumset cardinality (never trusting a caller-supplied
number), and reports whether observation and prediction agree.  Outside
the proven coverage it returns a first-class "not covered" result.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .core import FiniteIntSet, SetFamily, SumsetKind, family_of
from .errors import DegenerateSet
from .kernel import sumset_layered
from .witness import FAMILY_SHAPES, FamilyName, gen_family
from .bounds import FORMULAS, bound_value


@dataclass(frozen=True)
class ExtremalClassification:
    """Verdict of one set against the inverse theory for its (h, k)."""

    set: FiniteIntSet
    h: int
    covered: bool
    theorem: str | None
    bound: int | None
    cardinality: int
    equality: bool
    family: str | None          # predicted family name when A matches it
    params: dict | None         # regeneration parameters for gen_family
    consistent: bool            # equality holds AND the set matches

    def to_json_dict(self) -> dict:
        return {
            "set": self.set.canonical(),
            "h": self.h,
            "cardinality": self.cardinality,
            "bound": self.bound,
            "equality": self.equality,
            "family": self.family,
            "params": self.params,
            "theorem": self.theorem,
        }


def regenerate(classification: ExtremalClassification) -> FiniteIntSet:
    """Rebuild the matched family instance from its stored parameters."""
    if classification.family is None:
        raise DegenerateSet("classification matched no family")
    return gen_family(classification.family, **classification.params)


@dataclass(frozen=True)
class InverseTheorem:
    """One inverse result: on its folds and k range, equality in the bound
    forces the extremal family.  The row's set family, and whether it is
    proven, are those of its bound formula."""

    id: str
    fold: int | str         # 2, 3, "k" (h = k), or "interior": the bound's valid folds
    k_min: int
    k_max: int | None
    bound: str              # id in bounds.FORMULAS
    extremal: FamilyName    # the extremal family at every k not in ``at_k``
    at_k: dict = field(default_factory=dict)

    def k_range(self) -> str:
        if self.k_max is None:
            return f"k >= {self.k_min}"
        return f"{self.k_min} <= k <= {self.k_max}"

    def covers_k(self, k: int) -> bool:
        return self.k_min <= k and (self.k_max is None or k <= self.k_max)

    def folds(self, k: int) -> tuple[int, ...]:
        if self.fold == "interior":
            return FORMULAS[self.bound].folds(k)
        return (k if self.fold == "k" else self.fold,)

    def extremal_at(self, k: int) -> FamilyName:
        return self.at_k.get(k, self.extremal)


_F = FamilyName

# The proven inverse theorems, then the conjectured ones.  C2_2 and C3_2 are
# the inverse halves of C2_1 and C3_1 and share their bound: equality only
# means something against the conjectured minimum, so a conjecture scan
# checks the bound and the family on every pass.
THEOREMS: dict[str, InverseTheorem] = {
    row.id: row
    for row in (
        InverseTheorem("T2_2", 2, 2, None, "T2_1", _F.ODD_AP, {2: _F.PAIR}),
        InverseTheorem(
            "T2_3", "k", 3, None, "T2_1", _F.INTERVAL_1K, {3: _F.SUM_CLOSED_3}
        ),
        InverseTheorem("T2_4", 3, 4, None, "T2_4", _F.ODD_AP),
        InverseTheorem("T3_2", 2, 2, None, "T3_1", _F.INTERVAL_0K, {2: _F.ZERO_PAIR}),
        InverseTheorem(
            "T3_3", "k", 3, None, "T3_1", _F.INTERVAL_0K,
            {3: _F.ZERO_TRIPLE, 4: _F.SUM_CLOSED_4},
        ),
        InverseTheorem("T3_5", 3, 4, 4, "T3_5", _F.SPECIAL_0124),
        InverseTheorem("T3_4", 3, 5, None, "T3_4", _F.INTERVAL_0K),
        InverseTheorem("C2_1", "interior", 4, None, "C2_1", _F.ODD_AP),
        InverseTheorem("C2_2", "interior", 4, None, "C2_1", _F.ODD_AP),
        InverseTheorem("C3_1", "interior", 5, None, "C3_1", _F.INTERVAL_0K),
        InverseTheorem("C3_2", "interior", 5, None, "C3_1", _F.INTERVAL_0K),
    )
}


def match_family(elements: tuple[int, ...], name: FamilyName) -> dict | None:
    """The gen_family parameters that regenerate the set of ``elements``
    byte for byte from the named family, or None when it is not a member.
    A family with free elements reads its params from them; any other is a
    dilation of its d = 1 member.

    The elements must be a valid input of the family: strictly increasing,
    nonnegative with a positive one, and k in the family's range.
    ``family_of`` and the theorem rows ensure this for every caller.
    """
    shape = FAMILY_SHAPES[name]
    k = len(elements)
    if shape.free is not None:
        params = list(elements[shape.free])
        if shape.member(k, params) == list(elements):
            return {"k": k, "params": params}
        return None
    d = gcd(*elements)
    if shape.member(k, ()) == [x // d for x in elements]:
        return {"k": k, "d": d}
    return None


def inverse_coverage(family: SetFamily, k: int, h: int) -> str | None:
    """Which proven inverse theorem covers (family, k, h), if any."""
    for row in THEOREMS.values():
        formula = FORMULAS[row.bound]
        if (
            formula.theorem_backed
            and formula.family is family
            and row.covers_k(k)
            and h in row.folds(k)
        ):
            return row.id
    return None


def classify_extremal(a: FiniteIntSet, h: int) -> ExtremalClassification:
    """Classify a set against the inverse theorem for its (h, k).

    The sumset is recomputed here rather than trusted from callers, so a
    scan pipeline cannot pair a stale cardinality with the wrong set.
    """
    family = family_of(a)
    cardinality = sumset_layered(a, h, SumsetKind.RESTRICTED_SIGNED).cardinality
    theorem = inverse_coverage(family, a.k, h)
    bound = name = params = None
    if theorem is not None:
        row = THEOREMS[theorem]
        bound = bound_value(row.bound, a.k, h)
        name = row.extremal_at(a.k)
        params = match_family(a.elements, name)
    equality = cardinality == bound
    return ExtremalClassification(
        set=a,
        h=h,
        covered=theorem is not None,
        theorem=theorem,
        bound=bound,
        cardinality=cardinality,
        equality=equality,
        family=name.value if params is not None else None,
        params=params,
        consistent=equality and params is not None,
    )
