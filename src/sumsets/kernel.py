"""Exact h-fold sumset computation by two independent engines.

For A = {a_0 < ... < a_{k-1}} and a fold count h, the four kinds collect
sums  sum(lambda_i * a_i)  over coefficient vectors lambda with

    unrestricted       lambda_i >= 0        and sum(lambda_i) = h
    restricted         lambda_i in {0,1}    and sum(lambda_i) = h
    signed             lambda_i in Z        and sum(|lambda_i|) = h
    restricted-signed  lambda_i in {-1,0,1} and sum(|lambda_i|) = h

The two engines are deliberately unrelated in structure:

* ``sumset_naive`` is the oracle.  The unbounded and restricted kinds sum
  every multiset or subset of h elements in C, and only the final hash set
  merges equal values.  The signed kinds (a restricted-signed vector has
  unit parts) sum one vector of each +- pair, whose first slot takes +, as
  a support times a composition of the weight into positive parts times a
  sign pattern: per support size the Python loop runs over the fewer of
  the compositions and the sign patterns, and C runs the other.  A vector
  of A is one of weight w on the low half joined with one of weight h - w
  on the high half: for each w in 1..h-1 that both halves fill (a
  restricted-signed half of n elements fills w <= n) the low half's
  absolute sums and the high half's sums go into sets, which merge equal
  sums, the high set is mirrored, and each low sum is added to every high
  sum in C; the end weights w = h and w = 0 stream one half's sums
  unlisted, and the value set is mirrored once at the end, which gives the
  low sums their signs back.  One early return reads a one-element set (h
  runs to 2^27): h*a, and -h*a in the signed kinds.  A one-slot vector
  lists no cut points: a one-element half (k = 2 or 3) meets every w < h.
* ``sumset_layered`` runs a dynamic program over elements with layers
  indexed by consumed weight j = 0..h.  Layer j is a dense bitmask that
  stores value v at bit v + j*m for any frame m >= max|a|, so adding
  +-c*a_i to layer j - c is a left shift by c*(m +- a_i) >= 0.  ``advance``
  is its transition: it folds elements into a list of layers in place, two
  shifts a layer.  The engine folds all of A / d for d = gcd(A) (m = max|a|
  / d) and scales the values back by d, since h^(d*A) = d * h^A; {0} is
  read before the DP.  The engine's budget is still on the raw max|a|.  It
  is the fast path, and the reference the scan's stacked layers are tested
  against.
* ``fold`` is the scan's transition.  A ``Frame`` stacks the layers
  0..depth of one set in one int, layer j at bits j*W.., W = 2*depth*m + 1,
  so folding x is one expression on the whole int, (S | S << (W+m+x) |
  S << (W+m-x)) cut to the top layer, and the parent's int stays as it
  was.  It takes the bounded-fold kinds, the only ones a scan walks.  A
  scan worker folds one element per set-tree node down to the nodes three
  elements short of their sets, then each next element z into such a
  node's int in a loop (m = the scan's largest element).
  ``sumset_layered`` keeps its list: the stacked int's (h+1)*W-bit
  temporaries would widen the engine's memory peak on wide sets.
* ``leaf_cards`` is the scan's leaf step: from the stacked layers of a set
  Q it reads |h^(Q + {y, x})| for many pairs y < x of last elements
  without folding x into the int, and reports only cardinalities at most
  a bound.  It takes the bounded-fold kinds, the only ones a scan walks,
  where an element fills one unit: one shift per sign of the layer below.
  For each y, ``live_rows`` folds y into Q's int once, reads its layers h
  and h - 1 by shift and mask, and drops each (h, bound) row where either
  holds more than bound values, since layer h of Q + {y, x} holds a copy
  of each.  That is ``live_folds``, the window rule the explorer's walk
  prunes its subtrees by, at one missing element.  For each x the step
  ORs the shifts of layer h - 1 into layer h.  Property tests pin
  ``fold`` and the leaf step to ``advance``.
* ``enumerate_coefficients`` lists the coefficient vectors themselves, as
  plain tuples.  No engine uses it: it is the literal definition above, a
  third derivation both engines are tested against, and demo 01 prints
  its vectors.  It is lazy and keeps its own stack, so it runs through the
  vectors of a k = 1100 set without holding them or recursing once per
  element.

Agreement of the two engines on a value set is the package's primary
correctness evidence.  ``bounds.confirm`` is the one place that compares
them on a reported cardinality: ``audit`` and the explorer's scan check,
``_check``, call it before they raise or record one.
"""
from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement, product, repeat, starmap
from math import comb, gcd
from operator import add, neg
from typing import Iterable, Iterator, Sequence

from .core import MAX_SAFE_MAGNITUDE, FiniteIntSet, SumsetKind, SumsetResult
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
# walk holds them stacked in one int per tree level); inputs whose masks
# would total more than this are refused before any allocation.
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
    # on r alone.  The budget is the same for both signed kinds' split into
    # halves, which sum one vector of each +- pair, at most w terms each: for
    # one split weight w at a time it holds the low half's distinct absolute
    # sums, at most min(pairs, w*max|a_i| + 1) of them and at most 49,406
    # (signed, k=84, h=4), and the high half's distinct sums, mirrored, at
    # most min(vectors, 2(h-w)*max|a_i| + 1) and at most 107,200 (signed,
    # k=39, h=5), and it streams the end weights, which as lists would reach
    # 8.4M sums (signed, k=5791, h=2).
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


def enumerate_coefficients(k: int, h: int, kind: SumsetKind) -> Iterator[tuple[int, ...]]:
    """Yield every coefficient vector (lambda_0, ..., lambda_{k-1}) of the
    kind with weight exactly h, each once, in lexicographic order."""
    require_fold(k, h, kind)

    def candidates(pos: int, remaining: int) -> Iterator[int]:
        # remaining >= 1 here: a coefficient that uses it up ends the vector
        if kind.bounded_fold:
            if remaining > k - pos:
                return iter(())  # cannot place the leftover weight one unit at a time
            return iter((-1, 0, 1) if kind.symmetric else (0, 1))
        return iter(range(-remaining if kind.symmetric else 0, remaining + 1))

    def walk() -> Iterator[tuple[int, ...]]:
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
                yield tuple(vec)
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


def _signed_sums(elements: tuple[int, ...], w: int, kind: SumsetKind) -> Iterator[int]:
    """One sum for each +- pair of vectors of weight w >= 1 on ``elements``
    in a signed ``kind``; the pair's other vector sums to its negation.  A
    vector is a support of s slots, a composition of w into s positive parts
    and a sign for each slot, and the first slot takes + only;
    restricted-signed takes s = w only, whose one composition is all ones.
    For each s the Python loop runs over the smaller count, C(w-1, s-1)
    compositions or 2^(s-1) sign patterns, and C runs the other: a
    ``product`` of the signs, or the signed support's sum plus each multiset
    of w - s more units on it."""
    def pieces() -> Iterator[Iterator[int]]:
        for s in range(w if kind.bounded_fold else 1, min(len(elements), w) + 1):
            # s = 1 ties at one of each and takes the compositions: its sign
            # loop's multiset would hold w - 1 copies of the element
            if comb(w - 1, s - 1) <= 2 ** (s - 1):
                # combinations holds its whole pool of w - 1 cut points, so
                # s = 1, which cuts nothing, passes none: a one-element half
                # (k = 2 or 3) meets every w up to h - 1, and h runs to 5792
                # at k = 2
                for cuts in combinations(range(1, w) if s > 1 else (), s - 1):
                    first, *parts = [hi - lo for lo, hi in zip((0, *cuts), (*cuts, w))]
                    for head, *tail in combinations(elements, s):
                        yield map(sum, product(
                            (first * head,), *[(c * a, -c * a) for c, a in zip(parts, tail)]))
            else:
                # a slot's part is 1 plus its count in the multiset
                for head, *tail in combinations(elements, s):
                    for signed in product((head,), *[(a, -a) for a in tail]):
                        yield map(sum, combinations_with_replacement(signed, w - s),
                                  repeat(sum(signed)))
    return chain.from_iterable(pieces())


def _naive_values(elements: tuple[int, ...], h: int, kind: SumsetKind) -> set[int]:
    if len(elements) == 1:
        # one element has the vector (h), and (-h) in the signed kinds, and h
        # runs to 2^27: combinations_with_replacement would hold h copies of
        # a, about 16 bytes a term, and the split has no low half
        value = h * elements[0]
        return {value, -value} if kind.symmetric else {value}
    if kind is SumsetKind.RESTRICTED:
        return set(map(sum, combinations(elements, h)))
    if kind is SumsetKind.UNRESTRICTED:
        return set(map(sum, combinations_with_replacement(elements, h)))
    # the signed kinds: a vector is one of weight w on the low half joined
    # with one of weight h - w on the high half, and -v is a sum wherever v
    # is, so both halves take one vector of each +- pair and the value set
    # is mirrored once at the end.  w = h and w = 0 stream one half's sums.
    # For each w in 1..h-1 the high half's sums H are mirrored, so H = -H
    # and x + H = -(-x + H): the join adds each distinct |x| of the low
    # half to every sum of H in C.  A restricted-signed half of n elements
    # has no vector of weight over n, so only the w both halves fill are run
    low, high = elements[:len(elements) // 2], elements[len(elements) // 2:]
    values = set(_signed_sums(low, h, kind))
    values.update(_signed_sums(high, h, kind))
    if kind.bounded_fold:
        weights = range(max(1, h - len(high)), min(h, len(low) + 1))
    else:
        weights = range(1, h)
    for w in weights:
        lows = set(map(abs, _signed_sums(low, w, kind)))
        highs = set(_signed_sums(high, h - w, kind))
        highs.update(map(neg, tuple(highs)))
        values.update(starmap(add, product(lows, highs)))
    values.update(map(neg, tuple(values)))
    return values


def advance(layers: list[int], elements: Iterable[int], m: int, kind: SumsetKind) -> None:
    """Fold each element into the DP ``layers`` in place; layer j stores
    value v at bit v + j*m, for a frame m >= max|a| over every element.  An
    unbounded kind puts c copies of x, all of one sign, on layer j - c: j
    runs upward with one running int per sign, plus_j = L_j | plus_{j-1} <<
    (m+x), two shifts a layer, not 2j.  One int that took both shifts would
    put +x and -x in one vector."""
    signed_fold = kind.symmetric
    for x in elements:
        up, down = m + x, m - x
        if kind.bounded_fold:
            for j in range(len(layers) - 1, 0, -1):  # downward: layers[j - 1] is still pre-x
                acc = layers[j]
                prev = layers[j - 1]
                acc |= prev << up
                if signed_fold:
                    acc |= prev << down
                layers[j] = acc
        else:
            plus = minus = layers[0]
            for j in range(1, len(layers)):  # upward: layers[j] is still pre-x
                plus = layers[j] | plus << up
                if signed_fold:
                    minus = layers[j] | minus << down
                layers[j] = plus | minus if signed_fold else plus


class Frame:
    """The layout of a scan's DP: its layers 0..``depth`` stacked in one
    int, for elements of magnitude at most ``m``, of one bounded-fold
    ``kind``.  Layer j takes the bits j*W to j*W + W - 1, W = 2*depth*m + 1,
    and stores value v at bit j*W + v + j*m, so shifting it down by j*W
    gives the layer as ``advance`` holds it.  Value v of layer j - 1 plus x
    is value v + x of layer j, W + m + x bits higher: a fold of x is one
    shift per sign of the whole int, and the bits of layers above ``depth``
    are cut off."""

    __slots__ = ("m", "depth", "width", "mask", "top", "step", "signed")

    def __init__(self, m: int, depth: int, kind: SumsetKind) -> None:
        self.m, self.depth = m, depth
        self.width = 2 * depth * m + 1
        self.mask = (1 << self.width) - 1  # one layer
        self.top = (1 << (depth + 1) * self.width) - 1  # layers 0..depth
        self.step = self.width + m
        self.signed = kind.symmetric


def fold(stacked: int, x: int, frame: Frame) -> int:
    """The ``stacked`` layers with x folded in, as ``advance`` folds x into
    a list of them, in a bounded-fold kind: one shift per sign of every
    layer below.  An int is immutable, so the parent's stays as it was."""
    grown = stacked | stacked << frame.step + x
    if frame.signed:
        grown |= stacked << frame.step - x
    return grown & frame.top


def live_folds(
    stacked: int, left: int, frame: Frame, bounds: Sequence[tuple[int, int | float]],
) -> list[tuple[int, int | float]]:
    """The (h, bound) rows of ``bounds`` that a set A = P + X can still meet,
    for P with the ``stacked`` layers and X any ``left`` >= 1 further
    elements, in a bounded-fold kind.  Layer h of A holds layer h - j of P
    shifted by the sum of j elements of X, so |h^A| >= |L_{h-j}(P)| for
    j = 0..min(left, h): a row whose window of layers max(0, h - left)..h
    holds a layer of more than ``bound`` bits is dead for every such A."""
    width, mask = frame.width, frame.mask
    live = []
    for row in bounds:
        h, bound = row
        # layer h first: in a scan it is the one most often already too wide
        if (stacked >> h * width & mask).bit_count() <= bound:
            for j in range(h - left if h > left else 0, h):
                if (stacked >> j * width & mask).bit_count() > bound:
                    break
            else:
                live.append(row)
    return live


def live_rows(
    stacked: int, ys: Iterable[int], frame: Frame,
    bounds: Sequence[tuple[int, int | float]],
) -> list[tuple[int, int, list[tuple[int, int | float, int, int]]]]:
    """(i, y, rows) for the i-th y of ``ys`` and the rows of ``bounds`` that
    ``live_folds`` at one missing element keeps on Q + {y}, if any, each
    with the layers h and h - 1 of Q + {y}, read from the ``stacked``
    layers of Q with y folded in."""
    # an x adds a copy of each layer to layer h, so a row where either holds
    # more than bound values reports no x
    width, mask = frame.width, frame.mask
    live = []
    for i, y in enumerate(ys):
        child = fold(stacked, y, frame)
        rows = []
        for h, bound in bounds:
            layer = child >> h * width & mask
            if layer.bit_count() <= bound:
                prev = child >> (h - 1) * width & mask
                if prev.bit_count() <= bound:
                    rows.append((h, bound, layer, prev))
        if rows:
            live.append((i, y, rows))
    return live


def leaf_cards(
    stacked: int, g: int, ys: Sequence[int], xs: Sequence[int], frame: Frame,
    bounds: Sequence[tuple[int, int | float]],
) -> list[tuple[int, int, int, int]]:
    """The leaf step: (y, x, h, |h^(Q + {y, x})|) for the i-th y of ``ys``,
    each x of ``xs[i:]`` with gcd(g, y, x) = 1 and each (h, bound) in
    ``bounds`` with that cardinality at most bound, in that order, read
    from the ``stacked`` layers of Q as ``advance`` would fold y and then
    x into a list of them, in a bounded-fold kind."""
    m, signed_fold = frame.m, frame.signed
    cards = []
    for i, y, rows in live_rows(stacked, ys, frame, bounds):
        gy = gcd(g, y)
        for x in xs[i:] if gy == 1 else [x for x in xs[i:] if gcd(gy, x) == 1]:
            up, down = m + x, m - x
            for h, bound, layer, prev in rows:
                card = (layer | prev << up | (prev << down if signed_fold else 0)).bit_count()
                if card <= bound:
                    cards.append((y, x, h, card))
    return cards


# _layered_values reads a mask's set bits this many bytes at a time
_SLICE_BYTES = 4096


def _layered_values(elements: tuple[int, ...], h: int, kind: SumsetKind) -> list[int]:
    # h^(d*A) = d * h^A, so the DP runs on A / gcd(A) in that set's frame
    d = gcd(*elements)
    if d == 0:
        # {0}: its frame m is 0, so the (h+1)-bit budget lets h run to 2^32
        # and a list of h + 1 layers would not fit
        return [0]
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
    """Oracle engine: direct enumeration of the coefficient vectors, one of
    each +- pair in the signed kinds."""
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
