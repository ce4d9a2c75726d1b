from itertools import accumulate
from math import comb
from operator import mul

import pytest

from sumsets.core import make_set
from sumsets.errors import DomainViolation, InvalidFamily
from sumsets.kernel import sumset_layered
from sumsets.witness import (
    EQUAL,
    LESS,
    FamilyName,
    WitnessElement,
    WitnessFamily,
    combined_census,
    gen_family,
    gen_superincreasing,
    is_superincreasing,
    s_family,
    superincreasing_census,
    t_family,
    u_family,
    verify_family,
)
from conftest import random_elements


def family_ok(fam, a, h):
    membership = sumset_layered(a, h).values
    check = verify_family(fam, membership)
    assert check.ok, (a.canonical(), h, fam.name, check)
    return check


def assert_open_at_the_end(fam):
    # every link claims a relation to the next; the last link, and only it,
    # claims none
    relations = [e.relation_to_next for e in fam.elements]
    assert relations[-1] is None and None not in relations[:-1], (fam.name, relations)


# --- s-family -----------------------------------------------------------------

def test_s_family_odd_triple():
    fam = s_family(make_set([1, 3, 5]), 2)
    assert fam.core_values() == {4, 6, 8}
    assert fam.expected_distinct == 3
    assert_open_at_the_end(fam)
    family_ok(fam, make_set([1, 3, 5]), 2)


def test_s_family_full_fold_is_single_sum():
    fam = s_family(make_set([1, 2, 3]), 3)
    assert [e.value for e in fam.elements] == [6]
    assert fam.expected_distinct == 1
    assert_open_at_the_end(fam)


def test_s_family_powers_of_two():
    # direct evaluation of the window-sum indices, frozen
    fam = s_family(make_set([1, 2, 4, 8]), 2)
    assert fam.core_values() == {3, 5, 6, 10, 12}
    assert fam.expected_distinct == 5
    assert_open_at_the_end(fam)


# --- t-family -----------------------------------------------------------------

def test_t_family_odd_triple():
    a = make_set([1, 3, 5])
    fam = t_family(a, 2)
    assert fam.core_values() == {-2, 2, 4}
    assert fam.expected_new == 2
    # t[1,0] must land on s[0,0] = 4
    assert fam.elements[-2].value == fam.elements[-1].value == 4
    assert_open_at_the_end(fam)
    family_ok(fam, a, 2)


def test_t_family_zero_collapses():
    a = make_set([0, 1, 2])
    fam = t_family(a, 2, zero_in_a=True)
    check = family_ok(fam, a, 2)
    assert check.distinct == comb(3, 2) - 1 == 2
    assert fam.expected_new == 0
    # both boundary relations are equalities when 0 is in A
    assert fam.elements[0].relation_to_next == "="
    assert_open_at_the_end(fam)


def test_t_family_h1_degenerate():
    a = make_set([3, 8, 9])
    fam = t_family(a, 1)
    assert [e.value for e in fam.elements if e.core] == [3]
    assert fam.expected_new == 0
    assert_open_at_the_end(fam)


def test_t_family_flag_must_match_set():
    with pytest.raises(DomainViolation):
        t_family(make_set([0, 1, 2]), 2, zero_in_a=False)
    with pytest.raises(DomainViolation):
        t_family(make_set([1, 2, 3]), 2, zero_in_a=True)


# --- u-family -----------------------------------------------------------------

def test_u_family_interval():
    # u_j = a_0 + a_j - sum of the other tail elements, frozen by direct
    # evaluation: {-4, -2, 0} for [1,4]
    a = make_set([1, 2, 3, 4])
    fam = u_family(a)
    assert fam.core_values() == {-4, -2, 0}
    assert fam.elements[0].value == -6  # lower bracket t[0,1]
    assert_open_at_the_end(fam)
    family_ok(fam, a, 4)


def test_u_family_triple():
    a = make_set([1, 2, 4])
    fam = u_family(a)
    assert fam.core_values() == {-1, 3}
    # exactly k-2 = 1 value strictly between the brackets
    lo, hi = fam.elements[0].value, fam.elements[-1].value
    interior = [v for v in fam.core_values() if lo < v < hi]
    assert len(interior) == 1
    assert_open_at_the_end(fam)
    family_ok(fam, a, 3)


def test_u_family_sum_closed_triple_collides_with_t_row():
    from sumsets.witness import _t_value

    a = make_set([1, 2, 3])
    fam = u_family(a)
    family_ok(fam, a, 3)
    # in the extremal (sum-closed) family the u-values collide with the
    # next t[0,*] entries
    assert _t_value(a.elements, 0, 2, 3) == sorted(fam.core_values())[0]


def test_u_family_needs_three_elements():
    with pytest.raises(DomainViolation):
        u_family(make_set([1, 2]))


# --- chain soundness and count identities over random sets --------------------

def test_chain_soundness_random(rng):
    for _ in range(120):
        k = rng.randint(1, 8)
        family = rng.choice(["positive", "zero"])
        a = make_set(random_elements(rng, k, family))
        zero = family == "zero"
        for h in range(1, k + 1):
            membership = sumset_layered(a, h).values
            for fam in (s_family(a, h), t_family(a, h, zero_in_a=zero)):
                check = verify_family(fam, membership)
                assert check.ok, (a.canonical(), h, fam.name, check)
            if not zero and k >= 3 and h == k:
                check = verify_family(u_family(a), membership)
                assert check.ok, (a.canonical(), check)


def test_verify_family_reports_false_claims():
    # 5 < 3 and 3 = 6 are both false; every value is a member and distinct
    chain = WitnessFamily("x", 2, (
        WitnessElement("a", 5, LESS), WitnessElement("b", 3, EQUAL),
        WitnessElement("c", 6, None),
    ), expected_distinct=3)
    check = verify_family(chain, [3, 5, 6])
    assert check.broken_links == ("a < b", "b = c")
    assert not check.chain_ok and not check.ok
    assert check.distinct == 3 and check.missing_members == ()


def test_verify_family_reports_core_values_missing_from_a_streamed_sumset():
    # h^+-{1, 3, 5} at h = 2 is +-2, +-4, +-6, +-8, which the layered result
    # streams: 7 is a core value that is no sum, 9 a bracket that is none
    chain = WitnessFamily("x", 2, (
        WitnessElement("a", 4, LESS), WitnessElement("b", 7, LESS),
        WitnessElement("c", 8, LESS), WitnessElement("d", 9, None, core=False),
    ), expected_distinct=3)
    check = verify_family(chain, sumset_layered(make_set([1, 3, 5]), 2))
    assert check.missing_members == ("b",)
    assert check.chain_ok and not check.ok


def test_count_identity_random(rng):
    for _ in range(150):
        k = rng.randint(1, 8)
        family = rng.choice(["positive", "zero"])
        a = make_set(random_elements(rng, k, family))
        for h in range(1, k + 1):
            actual, expected = combined_census(a, h)
            assert actual == expected, (a.canonical(), h)


# --- superincreasing ----------------------------------------------------------

def test_gen_superincreasing_minimal_is_powers_of_two():
    assert gen_superincreasing(6).elements == (1, 2, 4, 8, 16, 32)


def test_gen_superincreasing_rejects_bad_schedule():
    with pytest.raises(InvalidFamily, match="need k >= 1, got k=0"):
        gen_superincreasing(0)


def test_is_superincreasing():
    assert is_superincreasing(make_set([1, 2, 4, 8, 16, 32]))
    assert is_superincreasing(make_set([3, 9, 27, 81]))
    assert not is_superincreasing(make_set([1, 2, 3]))
    assert not is_superincreasing(make_set([0, 1, 2]))


@pytest.mark.parametrize("k,h", [(6, 5), (7, 5), (7, 6)])
def test_superincreasing_census_certifies_bound(k, h):
    a = gen_superincreasing(k)
    count, claimed = superincreasing_census(a, h)
    assert claimed == 2 * h * k - h * h + h - 4
    assert count == claimed
    assert sumset_layered(a, h).cardinality >= claimed


@pytest.mark.parametrize("h", [3, 4])
def test_superincreasing_census_small_folds_report_only(h):
    # no certified value below h = 5; the chains must still hold
    a = gen_superincreasing(6)
    count, claimed = superincreasing_census(a, h)
    assert claimed is None
    assert count > 0
    fam = t_family(a, h, superincreasing=True)
    membership = sumset_layered(a, h).values
    for sub in (fam,) + fam.subfamilies:
        assert verify_family(sub, membership).ok


def test_superincreasing_subchains_random(rng):
    for _ in range(20):
        k = rng.randint(6, 9)
        steps = [rng.randint(2, 4) for _ in range(k - 1)]
        a = make_set(accumulate(steps, mul, initial=rng.randint(1, 5)))
        h = rng.randint(5, k - 1)
        fam = t_family(a, h, superincreasing=True)
        membership = sumset_layered(a, h).values
        for sub in (fam,) + fam.subfamilies:
            assert verify_family(sub, membership).ok, (a.canonical(), h, sub.name)
            assert_open_at_the_end(sub)
        count, claimed = superincreasing_census(a, h)
        assert count == claimed


def test_superincreasing_flag_requires_superincreasing_set():
    with pytest.raises(DomainViolation):
        t_family(make_set([1, 2, 3]), 2, superincreasing=True)


# --- named families -----------------------------------------------------------

def test_gen_family_examples():
    assert gen_family("OddAP", k=4, d=1).elements == (1, 3, 5, 7)
    assert gen_family("Special0124", d=3).elements == (0, 3, 6, 12)
    assert gen_family("SumClosed3", params=(2, 5)).elements == (2, 5, 7)
    assert gen_family(FamilyName.INTERVAL_1K, k=5, d=2).elements == (2, 4, 6, 8, 10)
    assert gen_family(FamilyName.INTERVAL_0K, k=4, d=3).elements == (0, 3, 6, 9)
    assert gen_family(FamilyName.SUM_CLOSED_4, params=(1, 4)).elements == (0, 1, 4, 5)
    assert gen_family(FamilyName.PAIR, params=(2, 9)).elements == (2, 9)
    assert gen_family(FamilyName.ZERO_PAIR, params=(7,)).elements == (0, 7)
    assert gen_family(FamilyName.ZERO_TRIPLE, params=(2, 5)).elements == (0, 2, 5)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("OddAP", {"k": 1}),
        ("Interval1K", {"k": 2}),
        ("Special0124", {"k": 5}),
        ("SumClosed3", {"params": (5, 2)}),
        ("SumClosed4", {"params": (3,)}),
        ("OddAP", {"k": 4, "d": 0}),
        ("ZeroPair", {"params": (0,)}),
    ],
)
def test_gen_family_validity(name, kwargs):
    with pytest.raises(InvalidFamily):
        gen_family(name, **kwargs)
