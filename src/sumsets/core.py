"""Domain types and elementary set transformations.

A finite integer set is kept as a strictly increasing tuple of distinct
integers.  All types here are immutable and safe to share across workers;
every operation is a pure function.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import itemgetter, lt, neg
from typing import Iterable, Iterator

from .errors import DomainViolation, InvalidDilation, InvalidSet, InvalidSetLiteral

# The naive engine rejects inputs whose h * max|a_i| exceeds this.  Python
# ints do not overflow, so the reason is output: past it, sums can outgrow
# Python's 4300-digit limit on int-to-decimal conversion.  Without the guard,
# `compute --set=<5*10^4299>,<6*10^4299> --h 2 --engine naive` reaches a sum
# of 4301 digits and dies printing it with a ValueError (exit 1, with or
# without --json) instead of a KernelOverflow (exit 65).  Any value far below
# 10^4299 would do; 2^62 is kept.  The layered engine has its own budget on
# the size of its bitmasks.
MAX_SAFE_MAGNITUDE = 2**62


class SumsetKind(str, Enum):
    """The four h-fold sumset notions, keyed by coefficient constraint."""

    UNRESTRICTED = "unrestricted"          # coefficients in N, sum = h
    RESTRICTED = "restricted"              # coefficients in {0,1}, h ones
    SIGNED = "signed"                      # coefficients in Z, |weight| = h
    RESTRICTED_SIGNED = "restricted-signed"  # coefficients in {-1,0,1}

    # Plain member attributes, not properties: the DP reads them per step.
    bounded_fold: bool  # each element carries at most weight 1, forcing 1 <= h <= k
    symmetric: bool     # value sets satisfy S = -S

    def __init__(self, value: str) -> None:
        self.bounded_fold = value in ("restricted", "restricted-signed")
        self.symmetric = value in ("signed", "restricted-signed")


class SetFamily(str, Enum):
    """Input families the bound and inverse machinery distinguishes."""

    POSITIVE = "positive"
    CONTAINS_ZERO = "contains-zero"
    ANY = "any"


@dataclass(frozen=True)
class FiniteIntSet:
    """A = {a_0 < a_1 < ... < a_{k-1}}, a nonempty set of integers."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise InvalidSet("a finite integer set must be nonempty")
        if any(b <= a for a, b in zip(self.elements, self.elements[1:])):
            raise InvalidSet(
                f"elements must be strictly increasing, got {self.elements}"
            )

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def max_magnitude(self) -> int:
        return max(abs(self.elements[0]), abs(self.elements[-1]))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def canonical(self) -> str:
        """Canonical serialization: ascending comma-separated decimals."""
        return ",".join(str(a) for a in self.elements)

    def __str__(self) -> str:
        return self.canonical()


@dataclass(frozen=True)
class SumsetResult:
    """A computed sumset: sorted distinct values and their kind."""

    values: tuple[int, ...]
    kind: SumsetKind

    def __post_init__(self) -> None:
        v = self.values
        if not all(map(lt, v, v[1:])):
            raise InvalidSet("sumset values must be strictly increasing")
        # a strictly increasing tuple is closed under negation iff it is its
        # own mirror image
        if self.kind.symmetric and v != tuple(map(neg, reversed(v))):
            raise InvalidSet(
                f"{self.kind.value} sumset must be symmetric, got {self.values}"
            )

    @property
    def cardinality(self) -> int:
        return len(self.values)


def make_set(raw: Iterable[int]) -> FiniteIntSet:
    """Sort and deduplicate ``raw`` into a FiniteIntSet; an empty input
    raises InvalidSet."""
    items = list(raw)
    if not items:
        raise InvalidSet("cannot build a set from an empty sequence")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in items):
        raise InvalidSet(f"set elements must be integers, got {items!r}")
    distinct = sorted(set(items))
    return FiniteIntSet(tuple(distinct))


def parse_set_literal(text: str) -> FiniteIntSet:
    """Parse the shared set literal format, e.g. ``1,3,5,7``.

    The canonical form is ascending with no whitespace; parsing is liberal
    about order and duplicates but any non-integer token is an error.
    """
    if not text or any(ch.isspace() for ch in text):
        raise InvalidSetLiteral(f"malformed set literal: {text!r}")
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidSetLiteral(f"malformed set literal: {text!r}") from None
    return make_set(values)


def dilate(a: FiniteIntSet, alpha: int) -> FiniteIntSet:
    """The alpha-dilation {alpha * x : x in A}; order reverses for alpha < 0."""
    if alpha == 0:
        raise InvalidDilation("dilation by 0 would collapse the set")
    scaled = [alpha * x for x in a.elements]
    if alpha < 0:
        scaled.reverse()
    return FiniteIntSet(tuple(scaled))


def family_of(a: FiniteIntSet) -> SetFamily:
    """Classify a set into the positive / zero-containing input families."""
    if a.elements[0] > 0:
        return SetFamily.POSITIVE
    if a.elements[0] == 0:
        return SetFamily.CONTAINS_ZERO
    raise DomainViolation(
        f"set {a} is outside the positive / zero-containing families"
    )


@dataclass(frozen=True)
class Table:
    """Records of one shape kept as columns: ``columns[i]`` holds every
    record's value for ``keys[i]``, in record order.  ``canonical_json``
    writes a table as the list of its records' dicts, straight from the
    columns; ``dicts()`` builds those dicts."""

    keys: tuple[str, ...]
    columns: tuple[list, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    def column(self, key: str) -> list:
        return self.columns[self.keys.index(key)]

    def dicts(self) -> tuple[dict, ...]:
        return tuple(map(dict, map(zip, repeat(self.keys), zip(*self.columns))))


def canonical_json(obj: object) -> str:
    """Single JSON serialization used everywhere, so that parsing a report
    and re-serializing it is byte-identical.

    The text is ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` byte
    for byte, with a ``Table`` written as the list of its records' dicts.
    Strs, ints, nonempty lists and tuples, nonempty dicts with str keys and
    tables are written here directly, which skips the stdlib's pure-Python
    indenting encoder.  A list of only strs or only ints goes through one C
    loop; any other list is written an item at a time.  A table of columns
    fills one ``%``-format string, built once from the sorted keys, with a
    tuple per record: a column of ints (not bools, which are written
    "true") fills a ``%d`` slot, and any other column is itself written as
    a list, lazily.  A lone dict is a one-row table.  Any other value
    (floats, bools, None, empty containers, enum members, non-str keys)
    goes to ``json.dumps``, whose newlines, never raw inside a JSON string,
    are re-indented to the value's depth."""
    return _json_text(obj, "\n") + "\n"


_json_str = json.encoder.encode_basestring_ascii


def _json_text(obj: object, pad: str) -> str:
    """``obj``'s canonical text; ``pad`` is a newline and the indent of the
    line that ``obj`` ends on."""
    cls = type(obj)
    if cls is str:
        return _json_str(obj)
    if cls is int:
        return int.__repr__(obj)
    if cls is dict and obj and all(type(key) is str for key in obj):
        return next(_records(obj, [[value] for value in obj.values()], pad))
    inner = pad + "  "
    if cls is Table and obj:
        texts = _records(obj.keys, obj.columns, inner)
    elif (cls is list or cls is tuple) and obj:
        texts = _json_texts(obj, inner)
    elif cls is Table:  # no records
        return "[]"
    else:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _json_texts(items: list | tuple, pad: str) -> Iterator[str]:
    """The canonical texts of nonempty ``items``, each ending on ``pad``."""
    kinds = set(map(type, items))
    if kinds == {str}:
        return map(_json_str, items)
    if kinds == {int}:  # bools are not ints here: True is written "true"
        return map(int.__repr__, items)
    return map(_json_text, items, repeat(pad))


def _records(keys: Iterable[str], columns: Iterable[list], pad: str) -> Iterator[str]:
    """The texts of the records whose value for ``keys[i]`` is in
    ``columns[i]``, each ending on ``pad``: one format string, with its
    keys sorted, filled from the columns a record at a time."""
    inner = pad + "  "
    slots, values = [], []
    for key, column in sorted(zip(keys, columns), key=itemgetter(0)):
        ints = set(map(type, column)) == {int}
        slots.append(_json_str(key).replace("%", "%%") + (": %d" if ints else ": %s"))
        values.append(column if ints else _json_texts(column, inner))
    fmt = "{" + inner + ("," + inner).join(slots) + pad + "}"
    return map(fmt.__mod__, zip(*values))
