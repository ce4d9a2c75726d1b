import sys
import tracemalloc
from collections import Counter
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsets.core import SumsetKind, dilate, make_set
from sumsets import kernel
from sumsets.errors import InvalidFold, KernelOverflow
from sumsets.kernel import (
    advance,
    coefficient_space_size,
    enumerate_coefficients,
    leaf_cards,
    live_children,
    live_folds,
    sumset_layered,
    sumset_naive,
)

KINDS = list(SumsetKind)
RS = SumsetKind.RESTRICTED_SIGNED
SIGNED = SumsetKind.SIGNED

small_sets = st.sets(st.integers(-30, 30), min_size=1, max_size=6)


# --- coefficient enumeration -------------------------------------------------

def test_enumerate_rs_weight_one_exact_stream():
    vectors = [cv.coefficients for cv in enumerate_coefficients(2, 1, RS)]
    assert vectors == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_enumerate_restricted_forced():
    vectors = [cv.coefficients for cv in enumerate_coefficients(3, 3, SumsetKind.RESTRICTED)]
    assert vectors == [(1, 1, 1)]


def test_enumerate_rs_weight_two_count():
    vectors = [cv.coefficients for cv in enumerate_coefficients(2, 2, RS)]
    assert vectors == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert len(vectors) == coefficient_space_size(2, 2, RS) == 4


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumeration_matches_count_and_is_lexicographic(kind, k):
    for h in range(1, k + 1):
        vectors = [cv.coefficients for cv in enumerate_coefficients(k, h, kind)]
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
            literal = {cv.apply(a) for cv in enumerate_coefficients(a.k, h, kind)}
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
        literal = {cv.apply(a) for cv in enumerate_coefficients(a.k, h, kind)}
        assert set(sumset_naive(a, h, kind).values) == literal


@pytest.mark.parametrize(
    "raw",
    [
        [7], [0], [-5],  # one element: the low half is empty
        [0, 3], [-4, 9], [-3, 0, 5], [1, 2, 3, 4], [-7, -2, 0, 6, 11],
        [-9, -4, -1, 0, 2, 8], [1, 3, 9, 27, 81, 243],
    ],
)
def test_signed_oracle_sums_each_vector_once(raw):
    """The split oracle yields one sum per signed vector: a value set cannot
    see a vector dropped or counted twice, a Counter of the sums can."""
    a = make_set(raw)
    for h in range(1, a.k + 3):
        sums = Counter(kernel._signed_split_sums(a.elements, h))
        assert sums == Counter(cv.apply(a) for cv in enumerate_coefficients(a.k, h, SIGNED))
        assert sum(sums.values()) == coefficient_space_size(a.k, h, SIGNED)


def test_signed_oracle_streams_the_end_weights():
    """At k=600, h=2 each half has about 180k vectors of weight 2, but the
    sums fill only [-1200, 1200]: the oracle holds the value set and the
    weight-1 halves, never a list of one half's weight-2 sums."""
    a = make_set(range(1, 601))
    half_list = sys.getsizeof([0] * coefficient_space_size(300, 2, SIGNED))
    tracemalloc.start()
    try:
        values = sumset_naive(a, 2, SIGNED).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == sumset_layered(a, 2, SIGNED).values
    assert peak < half_list // 4, (peak, half_list)


@given(st.sets(st.integers(-30, 30), min_size=1, max_size=5), st.integers(2, 10**4))
@example({0}, 7)  # gcd 0
@example({5}, 2)
@example({-6, 0, 9}, 10**4)
@settings(max_examples=40)
def test_layered_matches_the_oracle_on_dilated_sets(raw, d):
    """The layered engine runs d*A / gcd in that set's frame and scales the
    values back; the oracle sums d*A as given."""
    a = dilate(make_set(raw), d)
    frame = a.max_magnitude // (gcd(*a.elements) or 1)
    for kind in KINDS:
        for h in range(1, a.k + 1):
            with mock.patch.object(kernel, "advance", wraps=kernel.advance) as spy:
                values = sumset_layered(a, h, kind).values
            assert spy.call_args.args[2] == frame
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


@given(small_sets)
def test_leaf_step_is_advance_on_the_last_element(raw):
    """The leaf step reads layer h of A from the layers of A less one
    element, exactly as ``advance`` folds that element in, and reports a
    fold just when its cardinality is at most the bound."""
    a = make_set(raw)
    m = a.max_magnitude
    *parent, x = a.elements
    for kind in [kind for kind in KINDS if kind.bounded_fold]:  # the kinds a scan walks
        layers = [1] + [0] * a.k
        advance(layers, parent, m, kind)
        full = layers.copy()
        advance(full, (x,), m, kind)
        cards = [(h, full[h].bit_count()) for h in range(1, a.k + 1)]
        at_bound = list(leaf_cards(layers, [x], m, kind, cards))
        assert at_bound == [(x, h, card) for h, card in cards]
        below = [(h, card - 1) for h, card in cards]
        assert list(leaf_cards(layers, [x], m, kind, below)) == []


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
    left, m = len(xs), xs[-1]
    for kind in [kind for kind in KINDS if kind.bounded_fold]:
        layers = [1] + [0] * (len(p) + left)
        advance(layers, p, m, kind)
        full = layers.copy()
        advance(full, xs, m, kind)
        for h in range(1, len(layers)):
            card = full[h].bit_count()
            assert all(card >= layers[h - j].bit_count() for j in range(min(left, h) + 1))
            assert live_folds(layers, left, [(h, card)]) == [(h, card)], (kind, h)


@given(
    st.sets(st.integers(0, 20), min_size=1, max_size=4),
    st.sets(st.integers(1, 12), min_size=1, max_size=4),
    st.dictionaries(st.integers(1, 5), st.integers(0, 40), min_size=1, max_size=3),
)
@example({1, 2}, {1}, {3: 1})  # restricted {1,2,3}: one 3-fold sum, three 2-fold sums
@example({5}, {1}, {2: 1})  # restricted {5,6}: layer 1 of the child, not of P, has two
@example({0, 1}, {1, 2}, {1: 3})  # h = 1: the window is the child's layers 0 and 1
@settings(max_examples=80)
def test_live_children_are_the_children_live_folds_keeps(raw_p, steps, raw_rows):
    """x is a live child of P just when ``live_folds`` at one missing
    element keeps a row on the layers ``advance`` makes for P + {x}."""
    p = sorted(raw_p)
    xs = [p[-1] + step for step in sorted(steps)]
    m, depth = xs[-1], len(p) + 1
    rows = sorted((h, bound) for h, bound in raw_rows.items() if h <= depth)
    for kind in [kind for kind in KINDS if kind.bounded_fold]:
        layers = [1] + [0] * depth
        advance(layers, p, m, kind)
        expected = []
        for x in xs:
            child = layers.copy()
            advance(child, (x,), m, kind)
            if live_folds(child, 1, rows):
                expected.append(x)
        assert live_children(layers, xs, m, kind, rows) == expected, kind


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
