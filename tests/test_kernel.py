import sys
import tracemalloc
from collections import Counter
from math import gcd
from operator import mul, neg
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import unstacked
from sumsets.core import SumsetKind, dilate, make_set
from sumsets import kernel
from sumsets.errors import InvalidFold, KernelOverflow
from sumsets.kernel import (
    Frame,
    advance,
    coefficient_space_size,
    enumerate_coefficients,
    fold,
    leaf_cards,
    live_folds,
    live_rows,
    sumset_layered,
    sumset_naive,
)

KINDS = list(SumsetKind)
RS = SumsetKind.RESTRICTED_SIGNED
SIGNED = SumsetKind.SIGNED

small_sets = st.sets(st.integers(-30, 30), min_size=1, max_size=6)


def literal_sums(a, h, kind):
    """sum(lambda_i * a_i), one per coefficient vector of the kind and fold."""
    return (sum(map(mul, vector, a.elements)) for vector in enumerate_coefficients(a.k, h, kind))


# --- coefficient enumeration -------------------------------------------------

def test_enumerate_rs_weight_one_exact_stream():
    vectors = list(enumerate_coefficients(2, 1, RS))
    assert vectors == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_enumerate_restricted_forced():
    vectors = list(enumerate_coefficients(3, 3, SumsetKind.RESTRICTED))
    assert vectors == [(1, 1, 1)]


def test_enumerate_rs_weight_two_count():
    vectors = list(enumerate_coefficients(2, 2, RS))
    assert vectors == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert len(vectors) == coefficient_space_size(2, 2, RS) == 4


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumeration_matches_count_and_is_lexicographic(kind, k):
    for h in range(1, k + 1):
        vectors = list(enumerate_coefficients(k, h, kind))
        assert len(vectors) == coefficient_space_size(k, h, kind)
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)
        assert all(sum(abs(c) for c in v) == h for v in vectors)


@pytest.mark.parametrize(
    "kind, h", [(kind, 1) for kind in KINDS] + [(SumsetKind.RESTRICTED, 2)]
)
def test_enumeration_does_not_recurse_per_element(kind, h):
    # a frame per element raised RecursionError near k = 1000
    count = sum(1 for _ in enumerate_coefficients(1100, h, kind))
    assert count == coefficient_space_size(1100, h, kind)


def test_enumerate_rejects_bad_fold():
    with pytest.raises(InvalidFold):
        list(enumerate_coefficients(3, 4, RS))
    with pytest.raises(InvalidFold):
        list(enumerate_coefficients(3, 0, SumsetKind.SIGNED))


# --- engines vs frozen values ------------------------------------------------

def test_rs_sumset_of_odd_ap():
    # 2-fold of {1,3,5}: even values from -(4k-4) to 4k-4 without 0
    assert sumset_layered(make_set([1, 3, 5]), 2, RS).values == (
        -8, -6, -4, -2, 2, 4, 6, 8,
    )
    assert sumset_naive(make_set([1, 3, 5]), 2, RS).values == (
        -8, -6, -4, -2, 2, 4, 6, 8,
    )


def test_rs_singleton():
    assert sumset_naive(make_set([5]), 1, RS).values == (-5, 5)


def test_rs_generic_triple():
    # brute-forced over all 24 signed pairs, frozen
    expected = (-6, -5, -3, -2, -1, 1, 2, 3, 5, 6)
    assert sumset_naive(make_set([1, 2, 4]), 2, RS).values == expected
    assert sumset_layered(make_set([1, 2, 4]), 2, RS).values == expected


def test_rs_zero_interval():
    # 2-fold of [0,3]: [-5,5] minus 0
    expected = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    assert sumset_layered(make_set([0, 1, 2, 3]), 2, RS).values == expected


def test_rs_full_fold_interval_cardinality():
    assert sumset_layered(make_set([1, 2, 3, 4]), 4, RS).cardinality == 11


def test_restricted_cardinality_examples():
    R = SumsetKind.RESTRICTED
    assert sumset_layered(make_set([1, 2, 3, 4, 5]), 2, R).cardinality == 7
    assert sumset_layered(make_set([1, 2, 4, 8]), 2, R).cardinality == 6
    assert sumset_layered(make_set([7]), 1, R).cardinality == 1


# --- engine equivalence and the literal definition ---------------------------

@given(small_sets)
def test_naive_matches_literal_definition(raw):
    """Both engines must realize { sum(lambda_i a_i) } exactly as the
    coefficient-vector definition states it."""
    a = make_set(raw)
    for kind in KINDS:
        for h in range(1, a.k + 1):
            literal = set(literal_sums(a, h, kind))
            assert set(sumset_naive(a, h, kind).values) == literal


@given(st.sets(st.integers(-50, 50), min_size=1, max_size=8))
@settings(max_examples=60)
def test_engines_agree(raw):
    a = make_set(raw)
    for kind in KINDS:
        for h in range(1, a.k + 1):
            assert (
                sumset_naive(a, h, kind).values
                == sumset_layered(a, h, kind).values
            )


@pytest.mark.parametrize("kind", [SumsetKind.SIGNED, RS])
@pytest.mark.parametrize(
    "raw",
    [
        [1, 3, 9, 27, 81, 243, 729],  # every restricted-signed vector has its own sum
        [-40, -17, -3, 0, 8, 21, 38],
    ],
)
def test_naive_matches_literal_definition_at_seven_elements(raw, kind):
    """Seven slots reach the compositions and sign products of up to seven
    parts, which the drawn sets above never do."""
    a = make_set(raw)
    for h in range(1, a.k + 1):
        literal = set(literal_sums(a, h, kind))
        assert set(sumset_naive(a, h, kind).values) == literal


SPLIT_SETS = [
    [7], [0], [-5],  # one element: read before the split
    [0, 3], [-4, 9], [-3, 0, 5], [1, 2, 3, 4], [-7, -2, 0, 6, 11],
    [-9, -4, -1, 0, 2, 8], [1, 3, 9, 27, 81, 243],
    # four-slot halves: s = 2, 3 and 4 each by sign patterns at some w and
    # by compositions at others
    [-40, -17, -3, 0, 8, 21, 38, 55],
]


SPLIT_CASES = [
    pytest.param(kind, raw, id=f"{prefix}raw{i}")
    for kind, prefix in [(SIGNED, ""), (RS, "restricted-signed-")]
    for i, raw in enumerate(SPLIT_SETS)
]


def split_weights(kind, low, high, h):
    """The split weights in 1..h-1 that both halves have a vector of: a
    restricted-signed half of n elements has none of weight over n.  One
    element is read before the split, with no half."""
    return [w for w in range(1, h) if low and (
        not kind.bounded_fold or (w <= len(low) and h - w <= len(high)))]


@pytest.mark.parametrize("kind, raw", SPLIT_CASES)
def test_signed_oracle_sums_each_vector_once(kind, raw):
    """The split oracle sums one vector of each +- pair of each half's
    vectors of each weight, in both signed kinds, and its weights cover
    every +- pair of vectors of A once: a value set cannot see a vector
    dropped or counted twice, these counts can."""
    a = make_set(raw)
    low, high = a.elements[:a.k // 2], a.elements[a.k // 2:]
    for h in range(1, a.k + (1 if kind.bounded_fold else 3)):
        with mock.patch.object(kernel, "_signed_sums", wraps=kernel._signed_sums) as spy:
            sumset_naive(a, h, kind)
        calls = [call.args for call in spy.call_args_list]
        # the end weights, then the two halves each split weight w joins; one
        # element is read before the split, with no half
        expected = [(low, h, kind), (high, h, kind)] if low else []
        for w in split_weights(kind, low, high, h):
            expected += [(low, w, kind), (high, h - w, kind)]
        assert calls == expected
        pairs = {} if low else {(high, h): 1}  # the early return's (h) and (-h)
        for half, w, _ in calls:
            sums = list(kernel._signed_sums(half, w, kind))
            # a restricted-signed weight over the half's size has no vector
            fits = w <= len(half) or not kind.bounded_fold
            literal = Counter(literal_sums(make_set(half), w, kind)) if fits else Counter()
            assert Counter(sums) + Counter(map(neg, sums)) == literal
            pairs[half, w] = len(sums)
        # a pair of A's vectors is a pair of high ones of weight h, or a pair
        # of low ones of weight w >= 1 with every high vector of weight h - w
        high_vectors = [1] + [2 * pairs.get((high, w), 0) for w in range(1, h)]
        joined = pairs.get((high, h), 0) + sum(
            pairs.get((low, w), 0) * high_vectors[h - w] for w in range(1, h + 1)
        )
        assert 2 * joined == coefficient_space_size(a.k, h, kind)


@pytest.mark.parametrize("kind, raw", SPLIT_CASES)
def test_signed_oracle_joins_absolute_low_sums_with_the_mirrored_high_half(kind, raw):
    """Each split weight w is one ``product`` of the distinct |x| over the
    low half's sums of weight w and the high half's sums of weight h - w
    closed under negation; the final mirror makes up the signs.  A value
    set cannot see the low half joined with its signs, which doubles the
    additions, this spy can."""
    a = make_set(raw)
    low, high = a.elements[:a.k // 2], a.elements[a.k // 2:]
    for h in range(1, a.k + (1 if kind.bounded_fold else 3)):
        with mock.patch.object(kernel, "product", wraps=kernel.product) as spy:
            sumset_naive(a, h, kind)
        # _signed_sums passes product tuples only
        joins = [call.args for call in spy.call_args_list if not isinstance(call.args[0], tuple)]
        expected = []
        for w in split_weights(kind, low, high, h):
            lows = set(map(abs, kernel._signed_sums(low, w, kind)))
            highs = set(kernel._signed_sums(high, h - w, kind))
            expected.append((lows, highs | set(map(neg, highs))))
        assert joins == expected


@pytest.mark.parametrize("elements, w, kind, sign_loops", [
    ((2, 5), 4, SIGNED, 2),  # s = 2: 3 compositions, 2 sign patterns
    ((1, 3, 9, 27), 6, SIGNED, 6 * 2 + 4 * 4 + 1 * 8),  # s = 2, 3, 4: by signs
    ((-4, 0, 7), 3, SIGNED, 0),  # s = 2 ties 2 and 2, s = w has one composition
    ((-4, 0, 7, 10), 4, RS, 0),  # restricted-signed: s = w only
    ((3,), 10, SIGNED, 0),  # s = 1 ties 1 and 1
])
def test_signed_sums_loop_over_the_smaller_count(elements, w, kind, sign_loops):
    """For each support size s the Python loop runs over the C(w-1, s-1)
    compositions or the 2^(s-1) sign patterns, whichever is fewer, and the
    compositions on a tie; each sign pattern of each support sums its
    multisets of w - s more units, one ``combinations_with_replacement``."""
    with mock.patch.object(
        kernel, "combinations_with_replacement", wraps=kernel.combinations_with_replacement,
    ) as multisets:
        sums = list(kernel._signed_sums(elements, w, kind))
    assert multisets.call_count == sign_loops
    assert Counter(sums) + Counter(map(neg, sums)) == Counter(literal_sums(make_set(elements), w, kind))


@pytest.mark.parametrize("kind, h", [
    (SumsetKind.RESTRICTED, 1), (RS, 1), (SIGNED, 2**26), (SumsetKind.UNRESTRICTED, 2**27),
])
@pytest.mark.parametrize("element", [7, 0, -5])
def test_oracle_reads_a_one_element_set_at_once(kind, h, element):
    """One element has the vector (h), and (-h) in the signed kinds: the
    oracle returns their sums before it splits or lists any vector, at h up
    to each kind's budget."""
    with (
        mock.patch.object(kernel, "_signed_sums") as halves,
        mock.patch.object(kernel, "combinations_with_replacement") as multisets,
    ):
        values = sumset_naive(make_set([element]), h, kind).values
    assert values == tuple(sorted({h * element, -h * element} if kind.symmetric else {h * element}))
    halves.assert_not_called()
    multisets.assert_not_called()


def test_signed_sums_of_one_element_list_no_cut_points():
    """A weight-w vector on one slot cuts w nowhere, so ``_signed_sums``
    passes combinations no pool of w - 1 cut points: a one-element half (k =
    2 or 3) meets every weight up to h - 1."""
    pool = sys.getsizeof([0] * (10**6 - 1))
    tracemalloc.start()
    try:
        sums = list(kernel._signed_sums((3,), 10**6, SIGNED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums == [3 * 10**6]  # one vector of the pair (w), (-w)
    assert peak < pool // 4, (peak, pool)


def signed_oracle_peak(a, h):
    """The tracemalloc peak of the signed oracle on h^A, whose values are
    checked against the layered engine's."""
    tracemalloc.start()
    try:
        values = sumset_naive(a, h, SIGNED).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == sumset_layered(a, h, SIGNED).values
    return peak


def test_signed_oracle_streams_the_end_weights():
    """At k=600, h=2 each half has about 180k vectors of weight 2, but the
    sums fill only [-1200, 1200]: the oracle holds the value set and the
    weight-1 halves, never a list of one half's weight-2 sums."""
    half_list = sys.getsizeof([0] * coefficient_space_size(300, 2, SIGNED))
    peak = signed_oracle_peak(make_set(range(1, 601)), 2)
    assert peak < half_list // 4, (peak, half_list)


def test_signed_oracle_joins_distinct_half_sums():
    """At {1..20}, h=6 the low half has 28,004 vectors of weight 5, but their
    sums fill only [-50, 50]: a split weight holds each half's distinct sums,
    never a list of one half's vectors."""
    half_list = sys.getsizeof([0] * coefficient_space_size(10, 5, SIGNED))
    peak = signed_oracle_peak(make_set(range(1, 21)), 6)
    assert peak < half_list // 4, (peak, half_list)


@given(st.sets(st.integers(-30, 30), min_size=1, max_size=5), st.integers(2, 10**4))
@example({0}, 7)  # gcd 0
@example({5}, 2)
@example({-6, 0, 9}, 10**4)
@settings(max_examples=40)
def test_layered_matches_the_oracle_on_dilated_sets(raw, d):
    """The layered engine runs d*A / gcd in that set's frame and scales the
    values back, and reads {0} without the DP; the oracle sums d*A as
    given."""
    a = dilate(make_set(raw), d)
    frame = a.max_magnitude // (gcd(*a.elements) or 1)
    for kind in KINDS:
        for h in range(1, a.k + 1):
            with mock.patch.object(kernel, "advance", wraps=kernel.advance) as spy:
                values = sumset_layered(a, h, kind).values
            if frame:
                assert spy.call_args.args[2] == frame
            else:
                spy.assert_not_called()
            assert values == sumset_naive(a, h, kind).values


@given(st.sets(st.integers(-10**5, 10**5), min_size=1, max_size=3))
@example({16384})  # signed h=1 puts 16384 at bit 32768, the first of a slice
@example({-16384, 16383})  # restricted h=1 puts 16383 at bit 32767, the last
@settings(max_examples=30)
def test_engines_agree_on_masks_wider_than_a_read_slice(raw):
    a = make_set(raw)
    for kind in KINDS:
        for h in range(1, a.k + 1):
            assert sumset_layered(a, h, kind).values == sumset_naive(a, h, kind).values


def listed(elements, m, depth, kind):
    """The DP layers 0..depth of ``elements`` as ``advance`` makes them."""
    layers = [1] + [0] * depth
    advance(layers, elements, m, kind)
    return layers


def stacked(elements, frame):
    """The stacked int of ``elements``, folded in one at a time."""
    value = 1
    for x in elements:
        value = fold(value, x, frame)
    return value


@given(small_sets, st.integers(-3, 3))
@example({-7, 0, 5}, 0)  # a negative element and a 0, depth = k
@example({-7, 0, 5}, -2)  # depth below k, as in a scan of interior folds
@example({-30, 30}, 0)  # both ends of the frame
@example({0}, 2)  # depth above k: the layers past k stay empty
@settings(max_examples=80)
def test_fold_stacks_the_layers_advance_makes(raw, extra):
    """Each layer of the stacked int, read by shift and mask, is the layer
    ``advance`` makes from the same elements in the same frame, after every
    fold, in each kind a scan walks; the int keeps no bit above its top
    layer, even when more elements are folded than it has layers."""
    a = make_set(raw)
    m, depth = a.max_magnitude, max(1, a.k + extra)
    for kind in [kind for kind in KINDS if kind.bounded_fold]:
        frame = Frame(m, depth, kind)
        assert frame.width == 2 * depth * m + 1
        value = 1
        for n, x in enumerate(a.elements, 1):
            value = fold(value, x, frame)
            assert 0 <= value < 2 ** ((depth + 1) * frame.width), kind
            layers = listed(a.elements[:n], m, depth, kind)
            assert unstacked(value, frame) == layers, kind


@given(small_sets)
def test_leaf_step_is_advance_on_the_last_element(raw):
    """The leaf step reads layer h of A from the stacked layers of A less
    its last two elements y and x, exactly as ``advance`` folds them in,
    and reports a fold just when its cardinality is at most the bound; a
    one-element set {a} is read as y = x = a, exact at its only fold."""
    a = make_set(raw)
    m = a.max_magnitude
    *parent, y, x = a.elements if a.k > 1 else a.elements * 2
    for kind in [kind for kind in KINDS if kind.bounded_fold]:  # the kinds a scan walks
        frame = Frame(m, a.k, kind)
        full = listed(a.elements, m, a.k, kind)
        cards = [(h, full[h].bit_count()) for h in range(1, a.k + 1)]
        at_bound = leaf_cards(stacked(parent, frame), 1, [y], [x], frame, cards)
        assert at_bound == [(y, x, h, card) for h, card in cards], kind
        below = [(h, card - 1) for h, card in cards]
        assert leaf_cards(stacked(parent, frame), 1, [y], [x], frame, below) == [], kind


@given(
    st.sets(st.integers(0, 20), max_size=4),
    st.sets(st.integers(1, 12), min_size=2, max_size=5),
    st.integers(0, 6),
    st.dictionaries(st.integers(1, 6), st.integers(0, 40), min_size=1, max_size=3),
)
@example({1, 2}, {1, 2}, 1, {1: 40})  # h = 1: a last element's own two values
@example({1, 2}, {1, 2}, 1, {4: 40})  # h = k: every element of {1, 2, 3, 4}
@example(set(), {1, 2, 3}, 0, {1: 40})  # contains-zero: y = 0 and g = 0, so only x = 1
@example({1}, {1, 3, 4}, 2, {2: 40})  # g = 2: y = 2 keeps x = 5 and drops x = 4
@example({3, 5}, {1, 2, 3}, 1, {1: 0, 2: 1})  # rows that kill every y
@example({5}, {1, 2}, 1, {2: 1})  # restricted {5, 6}: layer 1 of Q + {y}, not of Q, has two
@settings(max_examples=80)
def test_leaf_step_is_advance_on_the_last_two_elements(raw_q, steps, g, raw_rows):
    """For the i-th y of ys and each x of xs[i:] with gcd(g, y, x) = 1, the
    leaf step reads layer h of Q + {y, x} from the stacked layers of Q
    exactly as ``advance`` folds y and then x in, and reports a fold just
    when its cardinality is at most the row's bound."""
    q = sorted(raw_q)
    # the candidates lie above Q; with Q empty the first may be 0
    candidates = [(q[-1] if q else -1) + step for step in sorted(steps)]
    ys, xs = candidates[:-1], candidates[1:]
    m, depth = candidates[-1], len(q) + 2
    rows = sorted((h, bound) for h, bound in raw_rows.items() if h <= depth)
    for kind in [kind for kind in KINDS if kind.bounded_fold]:  # the kinds a scan walks
        frame = Frame(m, depth, kind)
        expected = []
        for i, y in enumerate(ys):
            for x in xs[i:]:
                if gcd(g, y, x) == 1:
                    full = listed((*q, y, x), m, depth, kind)
                    expected += [
                        (y, x, h, full[h].bit_count())
                        for h, bound in rows if full[h].bit_count() <= bound
                    ]
        assert leaf_cards(stacked(q, frame), g, ys, xs, frame, rows) == expected, kind


@given(
    st.sets(st.integers(0, 30), min_size=1, max_size=5),
    st.sets(st.integers(1, 20), min_size=1, max_size=3),
)
@example({1, 2}, {1})  # restricted: {1,2,3} has one 3-fold sum, {1,2} two 1-fold sums
@settings(max_examples=60)
def test_live_folds_keeps_every_fold_a_completion_can_meet(raw_p, steps):
    """A set A = P + X with X above max P has |h^A| >= |L_{h-j}(P)| for
    j = 0..min(|X|, h), so ``live_folds`` with left = |X| keeps every row
    (h, |h^A|): its window of P's layers reaches no further down."""
    p = sorted(raw_p)
    xs = [p[-1] + step for step in sorted(steps)]
    left, m, depth = len(xs), xs[-1], len(p) + len(xs)
    for kind in [kind for kind in KINDS if kind.bounded_fold]:
        frame = Frame(m, depth, kind)
        layers = listed(p, m, depth, kind)
        full = listed(p + xs, m, depth, kind)
        for h in range(1, depth + 1):
            card = full[h].bit_count()
            assert all(card >= layers[h - j].bit_count() for j in range(min(left, h) + 1))
            kept = live_folds(stacked(p, frame), left, frame, [(h, card)])
            assert kept == [(h, card)], (kind, h)
            if wide := layers[h].bit_count():  # a bound below layer h of P itself
                assert live_folds(stacked(p, frame), left, frame, [(h, wide - 1)]) == []


@given(
    st.sets(st.integers(0, 20), min_size=1, max_size=4),
    st.sets(st.integers(1, 12), min_size=1, max_size=4),
    st.dictionaries(st.integers(1, 5), st.integers(0, 40), min_size=1, max_size=3),
)
@example({1, 2}, {1}, {3: 1})  # restricted {1,2,3}: one 3-fold sum, three 2-fold sums
@example({5}, {1}, {2: 1})  # restricted {5,6}: layer 1 of the child, not of P, has two
@example({0, 1}, {1, 2}, {1: 3})  # h = 1: the window is the child's layers 0 and 1
@example({1}, {1}, {2: 2})  # restricted {1, 2}: layer 1 holds exactly the bound, kept
@settings(max_examples=80)
def test_live_children_are_the_children_live_folds_keeps(raw_p, steps, raw_rows):
    """The i-th y is a live child of P in ``live_rows`` just when
    ``live_folds`` at one missing element keeps a row on the layers of
    P + {y}; it comes with those rows and the layers h and h - 1 that
    ``advance`` makes for that child."""
    p = sorted(raw_p)
    ys = [p[-1] + step for step in sorted(steps)]
    m, depth = ys[-1], len(p) + 1
    rows = sorted((h, bound) for h, bound in raw_rows.items() if h <= depth)
    for kind in [kind for kind in KINDS if kind.bounded_fold]:
        frame = Frame(m, depth, kind)
        expected = []
        for i, y in enumerate(ys):
            child = listed((*p, y), m, depth, kind)
            if kept := live_folds(stacked((*p, y), frame), 1, frame, rows):
                expected.append(
                    (i, y, [(h, bound, child[h], child[h - 1]) for h, bound in kept])
                )
        assert live_rows(stacked(p, frame), ys, frame, rows) == expected, kind


@given(small_sets)
def test_symmetry_of_signed_kinds(raw):
    a = make_set(raw)
    for kind in (SumsetKind.SIGNED, RS):
        for h in range(1, a.k + 1):
            values = set(sumset_layered(a, h, kind).values)
            assert values == {-v for v in values}


@given(small_sets, st.integers(-5, 5).filter(lambda x: x != 0))
@settings(max_examples=40)
def test_dilation_equivariance(raw, alpha):
    a = make_set(raw)
    for kind in KINDS:
        h = min(2, a.k)
        base = sumset_layered(a, h, kind).values
        dilated = sumset_layered(dilate(a, alpha), h, kind).values
        assert set(dilated) == {alpha * v for v in base}


@given(small_sets)
def test_inclusion_chains(raw):
    a = make_set(raw)
    for h in range(1, a.k + 1):
        restricted = set(sumset_layered(a, h, SumsetKind.RESTRICTED).values)
        mirrored = set(sumset_layered(dilate(a, -1), h, SumsetKind.RESTRICTED).values)
        rs = set(sumset_layered(a, h, RS).values)
        signed = set(sumset_layered(a, h, SumsetKind.SIGNED).values)
        unrestricted = set(sumset_layered(a, h, SumsetKind.UNRESTRICTED).values)
        assert restricted | mirrored <= rs <= signed
        assert restricted <= unrestricted


@given(small_sets)
def test_range_bound(raw):
    a = make_set(raw)
    for kind in KINDS:
        for h in range(1, a.k + 1):
            magnitudes = sorted((abs(x) for x in a.elements), reverse=True)
            # one element may carry all the weight for unbounded kinds
            cap = (
                h * magnitudes[0]
                if not kind.bounded_fold
                else sum(magnitudes[:h])
            )
            values = sumset_layered(a, h, kind).values
            assert all(abs(v) <= cap for v in values)


# --- guards and stats ---------------------------------------------------------

def test_fold_validation():
    a = make_set([1, 2, 3])
    with pytest.raises(InvalidFold):
        sumset_naive(a, 4, RS)
    with pytest.raises(InvalidFold):
        sumset_layered(a, 0, SumsetKind.UNRESTRICTED)
    # unbounded kinds accept h > k
    assert sumset_naive(a, 4, SumsetKind.SIGNED).values == sumset_layered(
        a, 4, SumsetKind.SIGNED
    ).values


def test_overflow_guard():
    huge = make_set([2**61])
    with pytest.raises(KernelOverflow):
        sumset_layered(huge, 3, SumsetKind.SIGNED)
    with pytest.raises(KernelOverflow):
        sumset_naive(huge, 3, SumsetKind.SIGNED)
    # the message must not print a number past the int-to-str limit
    with pytest.raises(KernelOverflow, match="exceeds 2"):
        sumset_naive(make_set([10**5000]), 1, SumsetKind.SIGNED)


@pytest.mark.parametrize("raw", [[2**31, 2**32], [10**5000, 2 * 10**5000]])
def test_layered_budget_reads_the_raw_magnitude(raw):
    # both sets run as {1, 2}; a budget on that would admit values too long
    # to print, and the message must not print one either
    with pytest.raises(KernelOverflow, match="bits"):
        sumset_layered(make_set(raw), 1, SumsetKind.SIGNED)


def test_layered_budget_refuses_huge_folds_before_allocating():
    # an unbounded kind takes any h; the DP would need 10^15 + 1 layers
    with pytest.raises(KernelOverflow, match="bits"):
        sumset_layered(make_set([1, 2]), 10**15, SumsetKind.UNRESTRICTED)


def test_oracle_budget_refuses_huge_folds_before_enumerating(monkeypatch):
    # 10^15 + 1 unrestricted vectors of 10^15 terms each; the message names
    # the count
    with pytest.raises(KernelOverflow, match=str((10**15 + 1) * 10**15)):
        sumset_naive(make_set([1, 2]), 10**15, SumsetKind.UNRESTRICTED)
    # an input of exactly the budget runs, one term more is refused
    a = make_set([1, 2, 3])
    monkeypatch.setattr(kernel, "MAX_ORACLE_TERMS", coefficient_space_size(3, 2, RS) * 2)
    assert sumset_naive(a, 2).values == sumset_layered(a, 2).values
    monkeypatch.setattr(kernel, "MAX_ORACLE_TERMS", coefficient_space_size(3, 2, RS) * 2 - 1)
    with pytest.raises(KernelOverflow, match="terms"):
        sumset_naive(a, 2)


def test_oracle_budget_admits_exactly_the_inputs_within_it():
    # wide inputs are refused before their exact count; that shortcut must
    # not change which inputs pass: (k, h, kind) runs iff count * h <= 2^27
    for kind in KINDS:
        for k in range(1, 41):
            folds = list(range(1, k + 1))
            if not kind.bounded_fold:
                folds += list(range(k + 1, 41))
                if k <= 3:  # where count * h crosses 2^27 for small k
                    folds += [11584, 11585, 2**26 - 1, 2**26, 2**26 + 1, 2**27, 2**27 + 1]
            for h in folds:
                within = coefficient_space_size(k, h, kind) * h <= kernel.MAX_ORACLE_TERMS
                try:
                    kernel._require_oracle_budget(k, h, kind)
                    admitted = True
                except KernelOverflow:
                    admitted = False
                assert admitted == within, (kind, k, h)
