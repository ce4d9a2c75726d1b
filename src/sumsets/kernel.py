"""Exact h-fold sumset computation by two independent engines.

For A = {a_0 < ... < a_{k-1}} and a fold count h, the four kinds collect
sums  sum(lambda_i * a_i)  over coefficient vectors lambda with

    unrestricted       lambda_i >= 0        and sum(lambda_i) = h
    restricted         lambda_i in {0,1}    and sum(lambda_i) = h
    signed             lambda_i in Z        and sum(|lambda_i|) = h
    restricted-signed  lambda_i in {-1,0,1} and sum(|lambda_i|) = h

The two engines are deliberately unrelated in structure:

* ``sumset_naive`` enumerates every coefficient vector (grouped by support
  and sign pattern so itertools drives the inner loops) and accumulates the
  distinct values in a hash set.  It is the oracle.
* ``sumset_layered`` runs a dynamic program over elements with layers
  indexed by consumed weight j = 0..h.  Layer j is a dense bitmask that
  stores value v at bit v + j*m for any frame m >= max|a|, so adding
  +-c*a_i to layer j - c is a left shift by c*(m +- a_i) >= 0.  ``advance``
  is the one transition: it folds elements in, j from h down to 1 in
  place; the engine folds all of A (m = max|a|), the explorer's scan one
  element per set-tree node (m = its largest element).  It is the fast path.
* ``leaf_cards`` is the scan's leaf step: from the layers of a set P it
  reads |h^(P + {x})| for many last elements x without folding each x
  into a copy of every layer, and reports only cardinalities at most a
  bound.  It takes the bounded-fold kinds, the only ones a scan walks,
  where x fills one unit: one shift per sign of layer h - 1.  A property
  test pins it to ``advance``.

Agreement of the two engines on a value set is the package's primary
correctness evidence; the explorer module re-checks every would-be
counterexample with both.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import mul
from typing import Iterable, Iterator, Sequence

from .core import (
    MAX_SAFE_MAGNITUDE,
    CoefficientVector,
    FiniteIntSet,
    SumsetKind,
    SumsetResult,
)
from .errors import InvalidFold, KernelOverflow


def require_fold(k: int, h: int, kind: SumsetKind) -> None:
    """Refuse a fold h outside the kind's range: 1..k, or h >= 1 when unbounded."""
    if kind.bounded_fold:
        if not 1 <= h <= k:
            raise InvalidFold(f"{kind.value} needs 1 <= h <= k={k}, got h={h}")
    elif h < 1:
        raise InvalidFold(f"{kind.value} needs h >= 1, got h={h}")


def _require_safe_magnitude(a: FiniteIntSet, h: int) -> None:
    if h * a.max_magnitude > MAX_SAFE_MAGNITUDE:
        raise KernelOverflow(
            f"h * max|a_i| = {h} * {a.max_magnitude} exceeds 2^62"
        )


# The layered DP holds h + 1 masks of at most 2h*max|a| + 1 bits each (a scan
# walk holds several copies); inputs whose masks would total more than this
# are refused before any allocation.
MAX_LAYERED_BITS = 2**32


def _require_layered_budget(h: int, magnitude: int, copies: int = 1) -> None:
    bits = copies * (h + 1) * (2 * h * magnitude + 1)
    if bits > MAX_LAYERED_BITS:
        raise KernelOverflow(
            f"layered DP needs {copies} x (h+1)*(2h*max|a_i|+1) = {bits} bits, over 2^32"
        )


# The oracle adds up to h terms for each coefficient vector; inputs that would
# take more than this many additions are refused before enumerating.
MAX_ORACLE_TERMS = 2**27


def _require_oracle_budget(k: int, h: int, kind: SumsetKind) -> None:
    # The count is at least C(2r, r) >= 2^r vectors for r = min(k - h, h)
    # (restricted) or min(k - 1, h) (the other kinds), and counting it
    # exactly costs about r big multiplications, so a wide input is refused
    # on r alone.
    r = min(k - h if kind is SumsetKind.RESTRICTED else k - 1, h)
    if r >= MAX_ORACLE_TERMS.bit_length():
        raise KernelOverflow(
            f"oracle needs at least 2^{r} terms ({kind.value}, k={k}, h={h}), over 2^27"
        )
    terms = coefficient_space_size(k, h, kind) * h
    if terms > MAX_ORACLE_TERMS:
        raise KernelOverflow(
            f"oracle needs {terms} terms ({kind.value} vectors times h), over 2^27"
        )


def enumerate_coefficients(
    k: int, h: int, kind: SumsetKind
) -> Iterator[CoefficientVector]:
    """Yield every coefficient vector of the kind with weight exactly h,
    each once, in lexicographic order over coefficient tuples."""
    require_fold(k, h, kind)

    def rec(prefix: list[int], remaining: int) -> Iterator[CoefficientVector]:
        pos = len(prefix)
        if pos == k:
            if remaining == 0:
                yield CoefficientVector(tuple(prefix))
            return
        if kind.bounded_fold and remaining > k - pos:
            return  # cannot place the leftover weight one unit at a time
        if kind is SumsetKind.UNRESTRICTED:
            candidates = range(0, remaining + 1)
        elif kind is SumsetKind.RESTRICTED:
            candidates = range(0, min(1, remaining) + 1)
        elif kind is SumsetKind.SIGNED:
            candidates = range(-remaining, remaining + 1)
        else:
            candidates = range(-1, 2)
        for c in candidates:
            if abs(c) <= remaining:
                prefix.append(c)
                yield from rec(prefix, remaining - abs(c))
                prefix.pop()

    return rec([], h)


def coefficient_space_size(k: int, h: int, kind: SumsetKind) -> int:
    """Number of coefficient vectors of the kind with weight exactly h."""
    require_fold(k, h, kind)
    if kind is SumsetKind.RESTRICTED:
        return comb(k, h)
    if kind is SumsetKind.RESTRICTED_SIGNED:
        return comb(k, h) * 2**h
    if kind is SumsetKind.UNRESTRICTED:
        return comb(k + h - 1, h)
    # signed: choose s nonzero slots, a composition of h into s positive
    # parts, and a sign per slot
    return sum(
        comb(k, s) * comb(h - 1, s - 1) * 2**s for s in range(1, min(k, h) + 1)
    )


_SIGN_PATTERNS: dict[int, list[tuple[int, ...]]] = {}


def _sign_patterns(n: int) -> list[tuple[int, ...]]:
    if n not in _SIGN_PATTERNS:
        _SIGN_PATTERNS[n] = list(product((1, -1), repeat=n))
    return _SIGN_PATTERNS[n]


def _naive_values(elements: tuple[int, ...], h: int, kind: SumsetKind) -> set[int]:
    k = len(elements)
    if kind is SumsetKind.RESTRICTED:
        return {sum(c) for c in combinations(elements, h)}
    if kind is SumsetKind.UNRESTRICTED:
        return {sum(c) for c in combinations_with_replacement(elements, h)}
    if kind is SumsetKind.RESTRICTED_SIGNED:
        patterns = _sign_patterns(h)
        return {
            sum(map(mul, support, signs))
            for support in combinations(elements, h)
            for signs in patterns
        }
    # signed: a vector is a support subset, a sign per support slot, and a
    # composition of h into positive parts; compositions m_i = 1 + n_i are
    # enumerated as multisets of extra copies
    values: set[int] = set()
    for s in range(1, min(k, h) + 1):
        patterns = _sign_patterns(s)
        extra = h - s
        for support in combinations(elements, s):
            for signs in patterns:
                signed = tuple(map(mul, support, signs))
                base = sum(signed)
                if extra == 0:
                    values.add(base)
                else:
                    for copies in combinations_with_replacement(signed, extra):
                        values.add(base + sum(copies))
    return values


def advance(layers: list[int], elements: Iterable[int], m: int, kind: SumsetKind) -> None:
    """Fold each element into the DP ``layers`` in place; layer j stores
    value v at bit v + j*m, for a frame m >= max|a| over every element."""
    signed_fold = kind.symmetric
    unit_fold = kind.bounded_fold
    for x in elements:
        up, down = m + x, m - x
        for j in range(len(layers) - 1, 0, -1):  # downward: layers[j - c] is still pre-x
            acc = layers[j]
            if unit_fold:
                prev = layers[j - 1]
                acc |= prev << up
                if signed_fold:
                    acc |= prev << down
            else:
                for c in range(1, j + 1):
                    prev = layers[j - c]
                    acc |= prev << c * up
                    if signed_fold:
                        acc |= prev << c * down
            layers[j] = acc


def leaf_cards(
    layers: list[int], xs: Iterable[int], m: int, kind: SumsetKind,
    bounds: Sequence[tuple[int, int]],
) -> Iterator[tuple[int, int, int]]:
    """The leaf step: (x, h, |h^(P + {x})|) for each x in ``xs`` and each
    (h, bound) in ``bounds`` with that cardinality at most bound, read from
    the ``layers`` of P as ``advance`` would fold x into a copy of them.
    The kind must be bounded-fold."""
    # one unit of x: layer h gains layer h - 1 shifted by m + x (and m - x)
    rows = [(h, bound, layers[h], layers[h - 1]) for h, bound in bounds]
    signed_fold = kind.symmetric
    for x in xs:
        up, down = m + x, m - x
        for h, bound, top, prev in rows:
            layer = top | prev << up
            if signed_fold:
                layer |= prev << down
            if (card := layer.bit_count()) <= bound:
                yield x, h, card


def _layered_values(elements: tuple[int, ...], h: int, kind: SumsetKind) -> list[int]:
    m = max(abs(elements[0]), abs(elements[-1]))
    layers = [1] + [0] * h
    advance(layers, elements, m, kind)
    mask = layers[h]
    offset = h * m
    values = []
    while mask:
        low = mask & -mask
        values.append(low.bit_length() - 1 - offset)
        mask ^= low
    return values


def sumset_naive(
    a: FiniteIntSet,
    h: int,
    kind: SumsetKind = SumsetKind.RESTRICTED_SIGNED,
) -> SumsetResult:
    """Oracle engine: direct enumeration of every coefficient vector."""
    require_fold(a.k, h, kind)
    _require_safe_magnitude(a, h)
    _require_oracle_budget(a.k, h, kind)
    values = tuple(sorted(_naive_values(a.elements, h, kind)))
    return SumsetResult(values=values, kind=kind)


def sumset_layered(
    a: FiniteIntSet,
    h: int,
    kind: SumsetKind = SumsetKind.RESTRICTED_SIGNED,
) -> SumsetResult:
    """Fast engine: weight-layered dynamic program over dense bitmasks."""
    require_fold(a.k, h, kind)
    _require_layered_budget(h, a.max_magnitude)
    values = tuple(_layered_values(a.elements, h, kind))
    return SumsetResult(values=values, kind=kind)
