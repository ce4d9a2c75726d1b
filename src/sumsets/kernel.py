"""Exact h-fold sumset computation by two independent engines.

For A = {a_0 < ... < a_{k-1}} and a fold count h, the four kinds collect
sums  sum(lambda_i * a_i)  over coefficient vectors lambda with

    unrestricted       lambda_i >= 0        and sum(lambda_i) = h
    restricted         lambda_i in {0,1}    and sum(lambda_i) = h
    signed             lambda_i in Z        and sum(|lambda_i|) = h
    restricted-signed  lambda_i in {-1,0,1} and sum(|lambda_i|) = h

The two engines are deliberately unrelated in structure:

* ``sumset_naive`` enumerates every coefficient vector once, as a support
  times a composition of h into positive parts (signed kinds) times an
  itertools ``product`` of the signs, and sums each vector in C; only the
  final hash set merges equal values.  A signed vector is one vector of
  weight w on the low half of A joined with one of weight h - w on the high
  half: each w in 1..h-1 adds every low-half sum to every high-half sum in
  C, and the end weights w = h and w = 0 stream one half's sums unlisted.
  It is the oracle.
* ``sumset_layered`` runs a dynamic program over elements with layers
  indexed by consumed weight j = 0..h.  Layer j is a dense bitmask that
  stores value v at bit v + j*m for any frame m >= max|a|, so adding
  +-c*a_i to layer j - c is a left shift by c*(m +- a_i) >= 0.  ``advance``
  is the one transition: it folds elements in, j from h down to 1 in
  place; the engine folds all of A / d for d = gcd(A) (m = max|a| / d) and
  scales the values back by d, since h^(d*A) = d * h^A; the explorer's scan
  folds one element per set-tree node (m = its largest element).  The
  engine's budget is still on the raw max|a|.  It is the fast path.
* ``leaf_cards`` is the scan's leaf step: from the layers of a set P it
  reads |h^(P + {x})| for many last elements x without folding each x
  into a copy of every layer, and reports only cardinalities at most a
  bound.  It takes the bounded-fold kinds, the only ones a scan walks,
  where x fills one unit: one shift per sign of layer h - 1.  A property
  test pins it to ``advance``.  Before its x loop it drops each (h, bound)
  row whose layer h or h - 1 of P already holds more than bound values,
  since layer h of P + {x} holds a copy of each, and with no row left it
  reads no x.  That is ``live_folds`` at one missing element: a set that
  adds ``left`` elements to P has |h^A| >= |L_{h-j}(P)| for j up to
  min(left, h), the window rule the explorer's walk prunes its subtrees by.
* ``live_children`` is the same rule one level up: from the layers of a
  set P it finds the x for which ``live_folds`` at one missing element
  keeps a row on P + {x}.  It makes only the child's layers h and h - 1,
  L_j | L_{j-1} << (m + x) (| L_{j-1} << (m - x)), reads layer 0 as P's,
  and stops at the first live row, so the walk builds only those children.

Agreement of the two engines on a value set is the package's primary
correctness evidence.  ``bounds.confirm`` is the one place that compares
them on a reported cardinality: ``audit`` and the explorer's two scan
checks, ``_check_verify`` and ``_check_conjecture``, call it before they
raise or record one.
"""
from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement, product, starmap
from math import comb, gcd
from operator import add
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
            f"h * max|a_i| is a {(h * a.max_magnitude).bit_length()}-bit number,"
            " which exceeds 2^62"
        )


# The layered DP holds h + 1 masks of at most 2h*max|a| + 1 bits each (a scan
# walk holds several copies); inputs whose masks would total more than this
# are refused before any allocation.
MAX_LAYERED_BITS = 2**32


def _require_layered_budget(h: int, magnitude: int, copies: int = 1) -> None:
    bits = copies * (h + 1) * (2 * h * magnitude + 1)
    if bits > MAX_LAYERED_BITS:
        raise KernelOverflow(
            f"layered DP needs {copies} x (h+1)*(2h*max|a_i|+1) bits,"
            f" a {bits.bit_length()}-bit count, over 2^32"
        )


# The oracle adds up to h terms for each coefficient vector; inputs that would
# take more than this many additions are refused before enumerating.
MAX_ORACLE_TERMS = 2**27


def _require_oracle_budget(k: int, h: int, kind: SumsetKind) -> None:
    # The count is at least C(2r, r) >= 2^r vectors for r = min(k - h, h)
    # (restricted) or min(k - 1, h) (the other kinds), and counting it
    # exactly costs about r big multiplications, so a wide input is refused
    # on r alone.  The budget is the same for the signed oracle's split into
    # halves: it lists the two halves' sums of one split weight at a time, at
    # most 107,200 of them on one side (k=39, h=5), and streams the end
    # weights, which as lists would reach 16.8M sums (k=5791, h=2).
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

    def candidates(pos: int, remaining: int) -> Iterator[int]:
        # remaining >= 1 here: a coefficient that uses it up ends the vector
        if kind.bounded_fold:
            if remaining > k - pos:
                return iter(())  # cannot place the leftover weight one unit at a time
            return iter((-1, 0, 1) if kind.symmetric else (0, 1))
        return iter(range(-remaining if kind.symmetric else 0, remaining + 1))

    def walk() -> Iterator[CoefficientVector]:
        # stack[i] holds the untried coefficients for position i, so a long
        # set does not recurse once per element; vec holds the choices for
        # the positions below the top and zeros from there on
        vec = [0] * k
        remaining = h
        stack = [candidates(0, h)]
        while stack:
            pos = len(stack) - 1
            c = next(stack[-1], None)
            if c is None:
                stack.pop()
                if pos:
                    remaining += abs(vec[pos - 1])
                    vec[pos - 1] = 0
            elif remaining == abs(c):  # every later coefficient is 0
                vec[pos] = c
                yield CoefficientVector(tuple(vec))
                vec[pos] = 0
            elif pos + 1 < k:
                vec[pos] = c
                remaining -= abs(c)
                stack.append(candidates(pos + 1, remaining))

    return walk()


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


def _signed_sums(elements: tuple[int, ...], w: int) -> Iterator[int]:
    """One sum per signed coefficient vector of weight w >= 1 on ``elements``:
    a support of s slots, a composition of w into s positive parts (cut
    1..w-1 at s-1 places) and a sign per slot, each vector summed in C."""
    return chain.from_iterable(
        map(sum, product(*[(c * a, -c * a) for c, a in zip(parts, support)]))
        for s in range(1, min(len(elements), w) + 1)
        # combinations holds its whole pool of w - 1 cut points, so s = 1,
        # which cuts nothing, passes none: w runs to 2^26 on one element
        for cuts in combinations(range(1, w) if s > 1 else (), s - 1)
        for parts in [[hi - lo for lo, hi in zip((0, *cuts), (*cuts, w))]]
        for support in combinations(elements, s)
    )


def _signed_split_sums(elements: tuple[int, ...], h: int) -> Iterator[int]:
    """One sum per signed coefficient vector of weight h on ``elements``.  A
    vector is one of weight w on the low half joined with one of weight
    h - w on the high half: w = h and w = 0 stream one half's sums, and each
    w in 1..h-1 adds every low-half sum to every high-half sum in C."""
    low, high = elements[:len(elements) // 2], elements[len(elements) // 2:]
    return chain(
        _signed_sums(low, h),
        _signed_sums(high, h),
        chain.from_iterable(
            starmap(add, product(_signed_sums(low, w), _signed_sums(high, h - w)))
            # one element leaves the low half empty, with h up to 2^26
            for w in (range(1, h) if low else ())
        ),
    )


def _naive_values(elements: tuple[int, ...], h: int, kind: SumsetKind) -> set[int]:
    if kind is SumsetKind.RESTRICTED:
        return set(map(sum, combinations(elements, h)))
    if kind is SumsetKind.UNRESTRICTED:
        # one element has one vector, (h), summing to h*a; combinations would
        # hold it as h copies, about 16 bytes a term, and h runs to 2^27
        if len(elements) == 1:
            return {h * elements[0]}
        return set(map(sum, combinations_with_replacement(elements, h)))
    values: set[int] = set()
    if kind is SumsetKind.RESTRICTED_SIGNED:
        for support in combinations(elements, h):
            values.update(map(sum, product(*[(a, -a) for a in support])))
        return values
    return set(_signed_split_sums(elements, h))


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


def live_folds(
    layers: list[int], left: int, bounds: Sequence[tuple[int, int | float]],
) -> list[tuple[int, int | float]]:
    """The (h, bound) rows of ``bounds`` that a set A = P + X can still meet,
    for P with DP ``layers`` and X any ``left`` >= 1 further elements, in a
    bounded-fold kind.  Layer h of A holds layer h - j of P shifted by the
    sum of j elements of X, so |h^A| >= |L_{h-j}(P)| for j = 0..min(left, h):
    a row whose window of layers max(0, h - left)..h holds a layer of more
    than ``bound`` bits is dead for every such A."""
    live = []
    for row in bounds:
        h, bound = row
        # layer h first: in a scan it is the one most often already too wide
        if layers[h].bit_count() <= bound:
            for layer in layers[h - left if h > left else 0:h]:
                if layer.bit_count() > bound:
                    break
            else:
                live.append(row)
    return live


def live_children(
    layers: list[int], xs: Iterable[int], m: int, kind: SumsetKind,
    bounds: Sequence[tuple[int, int | float]],
) -> list[int]:
    """The x in ``xs`` for which ``live_folds`` at one missing element keeps
    a row of ``bounds`` on the layers of P + {x}, read from the ``layers``
    of P as ``advance`` would fold x into a copy of them.  Only the child's
    layers h and h - 1 of each row are made, and layer 0 is P's own.  The
    kind must be bounded-fold."""
    signed_fold = kind.symmetric
    live = []
    for x in xs:
        up, down = m + x, m - x
        for h, bound in bounds:
            prev = layers[h - 1]
            layer = layers[h] | prev << up
            if signed_fold:
                layer |= prev << down
            if layer.bit_count() > bound:
                continue
            if h > 1:  # the child's layer h - 1; layer 0 takes no shift
                low = layers[h - 2]
                prev |= low << up
                if signed_fold:
                    prev |= low << down
            if prev.bit_count() <= bound:
                live.append(x)
                break
    return live


def leaf_cards(
    layers: list[int], xs: Iterable[int], m: int, kind: SumsetKind,
    bounds: Sequence[tuple[int, int | float]],
) -> Iterator[tuple[int, int, int]]:
    """The leaf step: (x, h, |h^(P + {x})|) for each x in ``xs`` and each
    (h, bound) in ``bounds`` with that cardinality at most bound, read from
    the ``layers`` of P as ``advance`` would fold x into a copy of them.
    The kind must be bounded-fold."""
    # one unit of x: layer h gains layer h - 1 shifted by m + x (and m - x);
    # a row that ``live_folds`` drops would report no x
    rows = live_folds(layers, 1, bounds)
    if not rows:
        return
    signed_fold = kind.symmetric
    for x in xs:
        up, down = m + x, m - x
        for h, bound in rows:
            prev = layers[h - 1]
            layer = layers[h] | prev << up
            if signed_fold:
                layer |= prev << down
            if (card := layer.bit_count()) <= bound:
                yield x, h, card


# _layered_values reads a mask's set bits this many bytes at a time
_SLICE_BYTES = 4096


def _layered_values(elements: tuple[int, ...], h: int, kind: SumsetKind) -> list[int]:
    # h^(d*A) = d * h^A, so the DP runs on A / gcd(A) in that set's frame
    d = gcd(*elements) or 1  # gcd 0 only for {0}
    if d > 1:
        elements = tuple(a // d for a in elements)
    m = max(abs(elements[0]), abs(elements[-1]))
    layers = [1] + [0] * h
    advance(layers, elements, m, kind)
    # bit i of layer h holds value i - h*m.  Read the set bits low to high
    # from slices of the mask's bytes: text for the whole mask would take a
    # byte per bit, eight times the mask itself
    mask = layers[h]
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    values = []
    for lo in range(0, len(data), _SLICE_BYTES):
        text = bin(int.from_bytes(data[lo:lo + _SLICE_BYTES], "little"))[:1:-1]
        base = 8 * lo - h * m
        i = text.find("1")
        while i >= 0:
            values.append(base + i)
            i = text.find("1", i + 1)
    return [d * v for v in values] if d > 1 else values


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
