import json
from math import comb

import pytest

from sumsets.bounds import BoundStatus, audit, bound_value
from sumsets.core import canonical_json, dilate, make_set
from sumsets.errors import DomainViolation, NotApplicable
from sumsets.kernel import sumset_layered
from sumsets.witness import gen_family
from conftest import overcounting, random_elements


def test_bound_value_table():
    assert bound_value("T2_1", 5, 2) == 16
    assert bound_value("T3_1", 4, 4) == comb(4, 2) + 1 == 7
    assert bound_value("T2_4", 4, 3) == 16
    assert bound_value("T3_4", 6, 3) == 25
    assert bound_value("T3_5", 4, 3) == 12
    assert bound_value("C2_1", 5, 3) == 22
    assert bound_value("C3_1", 5, 3) == 19
    assert bound_value("TA_Nathanson", 5, 2) == 7


@pytest.mark.parametrize(
    "fid,k,h",
    [
        ("T2_4", 3, 3),
        ("T2_4", 5, 2),
        ("T3_4", 4, 3),
        ("T3_5", 5, 3),
        ("C2_1", 3, 3),
        ("C2_1", 5, 5),
        ("C3_1", 4, 3),
        ("T2_1", 4, 5),
        ("nonsense", 4, 2),
    ],
)
def test_bound_value_rejects_outside_validity(fid, k, h):
    with pytest.raises(NotApplicable):
        bound_value(fid, k, h)


def entry(report, fid):
    return next(e for e in report.bounds if e.id == fid)


def test_audit_odd_ap_equality():
    report = audit(make_set([1, 3, 5, 7]), 2)
    assert report.cardinality == 12
    assert entry(report, "T2_1").value == 12
    assert entry(report, "T2_1").status is BoundStatus.EQUALITY


def test_audit_special_zero_quadruple():
    report = audit(make_set([0, 1, 2, 4]), 3)
    assert report.cardinality == 12
    assert entry(report, "T3_5").status is BoundStatus.EQUALITY
    assert entry(report, "T3_1").status is BoundStatus.STRICT


def test_audit_strict_set():
    report = audit(make_set([1, 2, 4]), 2)
    assert report.cardinality == 10
    assert entry(report, "T2_1").value == 8
    assert entry(report, "T2_1").status is BoundStatus.STRICT


def test_audit_rejects_mixed_sign_sets():
    with pytest.raises(DomainViolation):
        audit(make_set([-1, 2, 3]), 2)


def test_fold_one_tightness(rng):
    for _ in range(40):
        k = rng.randint(1, 9)
        positive = make_set(random_elements(rng, k, "positive"))
        assert sumset_layered(positive, 1).cardinality == 2 * k
        zero = make_set(random_elements(rng, k, "zero"))
        assert sumset_layered(zero, 1).cardinality == 2 * k - 1


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("k", range(3, 10))
def test_full_fold_interval_ceilings(k, d):
    interval = gen_family("Interval1K", k=k, d=d)
    assert sumset_layered(interval, k).cardinality == comb(k + 1, 2) + 1
    zero_interval = gen_family("Interval0K", k=k, d=d)
    assert sumset_layered(zero_interval, k).cardinality == comb(k, 2) + 1


def test_theorem_bounds_hold_on_random_sets(rng):
    for _ in range(60):
        k = rng.randint(1, 8)
        family = rng.choice(["positive", "zero"])
        a = make_set(random_elements(rng, k, family))
        for h in range(1, k + 1):
            report = audit(a, h)
            for e in report.bounds:
                assert e.status is not BoundStatus.VIOLATION, (a.canonical(), h, e)


def test_audit_is_dilation_invariant_in_status(rng):
    for _ in range(20):
        k = rng.randint(2, 6)
        a = make_set(random_elements(rng, k, "positive", hi=20))
        h = rng.randint(1, k)
        d = rng.choice([2, 3, 7])
        base = [(e.id, e.status) for e in audit(a, h).bounds]
        scaled = [(e.id, e.status) for e in audit(dilate(a, d), h).bounds]
        assert base == scaled


def test_bound_report_json_round_trip():
    report = audit(make_set([1, 3, 5, 7]), 2)
    text = canonical_json(report.to_json_dict())
    assert canonical_json(json.loads(text)) == text
    payload = json.loads(text)
    assert payload["set"] == "1,3,5,7"
    assert {"id", "value", "status"} <= set(payload["bounds"][0])


def test_theorem_violation_aborts(monkeypatch):
    """A theorem-backed formula reporting VIOLATION must abort, a
    conjectured one must survive as a recorded counterexample candidate."""
    import sumsets.bounds as bounds_mod
    from sumsets.bounds import FORMULAS, BoundFormula
    from sumsets.core import SetFamily, SumsetKind
    from sumsets.errors import TheoremViolation

    absurd = lambda k, h: 10**6
    always = lambda k, h: 1 <= h <= k
    fake_theorem = BoundFormula(
        "FAKE_T", SetFamily.POSITIVE, True, SumsetKind.RESTRICTED_SIGNED,
        always, absurd, "deliberately wrong",
    )
    patched = dict(FORMULAS)
    patched["FAKE_T"] = fake_theorem
    monkeypatch.setattr(bounds_mod, "FORMULAS", patched)
    with pytest.raises(TheoremViolation):
        audit(make_set([1, 2, 4]), 2)

    patched["FAKE_T"] = BoundFormula(
        "FAKE_C", SetFamily.POSITIVE, False, SumsetKind.RESTRICTED_SIGNED,
        always, absurd, "deliberately wrong conjecture",
    )
    report = audit(make_set([1, 2, 4]), 2)
    assert report.has_conjecture_violation
    assert entry(report, "FAKE_C").status is BoundStatus.VIOLATION


def test_audit_engine_mismatch_raises(monkeypatch):
    """A violation the oracle does not confirm is an engine bug, raised
    before the formula is blamed."""
    import sumsets.bounds as bounds_mod
    from sumsets.bounds import FORMULAS, BoundFormula
    from sumsets.core import SetFamily, SumsetKind
    from sumsets.errors import EngineMismatch

    patched = dict(FORMULAS)
    patched["FAKE_T"] = BoundFormula(
        "FAKE_T", SetFamily.POSITIVE, True, SumsetKind.RESTRICTED_SIGNED,
        lambda k, h: 1 <= h <= k, lambda k, h: 10**6, "deliberately wrong",
    )
    monkeypatch.setattr(bounds_mod, "FORMULAS", patched)
    monkeypatch.setattr(bounds_mod, "sumset_naive", overcounting(bounds_mod.sumset_naive))
    with pytest.raises(EngineMismatch) as exc:
        audit(make_set([1, 2, 4]), 2)
    assert str(exc.value) == (
        "engines disagree on 1,2,4, h=2: 10 vs 11"
    )
