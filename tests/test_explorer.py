import json
import os

import pytest

from sumsets.core import SetFamily, SumsetKind, canonical_json, make_set
from sumsets.errors import EmptySpace, NotApplicable
from sumsets import explorer
from sumsets.kernel import sumset_layered, sumset_naive
from sumsets.explorer import (
    CSV_HEADER,
    ScanConfig,
    _partitions,
    _walk,
    count_normalized_sets,
    enumerate_normalized_sets,
    parse_mode,
    scan,
)

POS, ZERO = SetFamily.POSITIVE, SetFamily.CONTAINS_ZERO


def canon(space):
    return [a.canonical() for a in space]


def test_enumeration_examples():
    assert canon(enumerate_normalized_sets(2, 3, POS)) == ["1,2", "1,3", "2,3"]
    assert canon(enumerate_normalized_sets(2, 4, POS)) == [
        "1,2", "1,3", "1,4", "2,3", "3,4",
    ]
    assert canon(enumerate_normalized_sets(3, 3, ZERO)) == [
        "0,1,2", "0,1,3", "0,2,3",
    ]


def test_enumeration_excludes_common_factors():
    assert "2,4" not in canon(enumerate_normalized_sets(2, 4, POS))


@pytest.mark.parametrize("family", [POS, ZERO])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("max_element", [4, 9, 13])
def test_closed_form_count_matches_enumeration(k, max_element, family):
    space = list(enumerate_normalized_sets(k, max_element, family))
    assert len(space) == count_normalized_sets(k, max_element, family)
    assert len(set(space)) == len(space)
    # scan merges partitions in order, so their blocks must tile the space
    config = ScanConfig(k, max_element, family, parse_mode("verify:T2_1"))
    assert [
        a
        for p in _partitions(config)
        for a in enumerate_normalized_sets(k, max_element, family, prefix=p)
    ] == space


@pytest.mark.parametrize("family", [POS, ZERO])
@pytest.mark.parametrize("kind", list(SumsetKind))
def test_walk_layers_are_every_fold_of_every_set(family, kind):
    # layer h of a leaf is the h-fold sumset, whatever prefix the walk began
    # from, and the blocks tile the enumeration in order
    for k in range(1, 6):
        config = ScanConfig(k, 9, family, parse_mode("verify:T2_1"))
        walked = []
        for p in _partitions(config):
            for a, layers in _walk(k, 9, family, p, k, kind):
                walked.append(a)
                for h in range(1, k + 1):
                    card = layers[h].bit_count()
                    assert card == sumset_layered(a, h, kind).cardinality, (a, h)
                    assert card == sumset_naive(a, h, kind).cardinality, (a, h)
        assert walked == list(enumerate_normalized_sets(k, 9, family))


def test_empty_space_raises():
    with pytest.raises(EmptySpace):
        list(enumerate_normalized_sets(5, 3, POS))
    with pytest.raises(EmptySpace):
        scan(ScanConfig(5, 3, POS, parse_mode("verify:T2_1")))


def test_mode_parsing():
    assert str(parse_mode("verify:T2_4")) == "verify:T2_4"
    assert str(parse_mode("conj:C2_1")) == "conj:C2_1"
    with pytest.raises(NotApplicable):
        parse_mode("verify:C2_1")
    with pytest.raises(NotApplicable):
        parse_mode("frobnicate:T2_1")


def test_scan_rejects_mismatched_family():
    with pytest.raises(NotApplicable):
        scan(ScanConfig(4, 10, ZERO, parse_mode("verify:T2_4")))
    with pytest.raises(NotApplicable):
        scan(ScanConfig(4, 10, POS, parse_mode("conj:C3_1")))
    with pytest.raises(NotApplicable):
        scan(ScanConfig(3, 10, POS, parse_mode("conj:C2_1")))  # k too small
    with pytest.raises(NotApplicable, match="T3_5 needs 4 <= k <= 4"):
        scan(ScanConfig(5, 10, ZERO, parse_mode("verify:T3_5")))


def test_verify_direct_bound_small_space():
    report = scan(ScanConfig(3, 12, POS, parse_mode("verify:T2_1")))
    assert report.sets_scanned == count_normalized_sets(3, 12, POS)
    assert report.clean
    # h = 1 is an equality for every set; h = 2 only on the odd AP
    eq_h2 = [r for r in report.equalities if r["h"] == 2]
    assert [r["set"] for r in eq_h2] == ["1,3,5"]


def test_verify_inverse_census_odd_ap():
    report = scan(ScanConfig(4, 15, POS, parse_mode("verify:T2_2")))
    assert [r["set"] for r in report.equalities] == ["1,3,5,7"]
    assert report.equalities[0]["family"] == "OddAP"
    assert report.clean


def test_verify_inverse_exceptional_pairs():
    # every pair is extremal at h = 2, so the census is the whole space
    report = scan(ScanConfig(2, 10, POS, parse_mode("verify:T2_2")))
    assert len(report.equalities) == report.sets_scanned
    assert all(r["family"] == "Pair" for r in report.equalities)


def test_conjecture_scan_clean_space():
    report = scan(ScanConfig(4, 10, POS, parse_mode("conj:C2_1")))
    assert report.conjecture_counterexamples == ()
    assert report.classification_failures == ()
    assert [r["set"] for r in report.equalities] == ["1,3,5,7"]


def test_conjecture_scan_finds_inverse_counterexample():
    report = scan(ScanConfig(5, 13, ZERO, parse_mode("conj:C3_1")))
    assert report.conjecture_counterexamples == ()
    assert len(report.classification_failures) == 1
    failure = report.classification_failures[0]
    assert failure["set"] == "0,1,2,4,6"
    assert failure["h"] == 4
    assert failure["cardinality"] == failure["bound"] == 21
    assert failure["naive_cardinality"] == 21  # oracle-confirmed
    assert not report.clean


def test_inverse_conjecture_mode_equals_direct_mode():
    direct = scan(ScanConfig(5, 13, ZERO, parse_mode("conj:C3_1")))
    inverse = scan(ScanConfig(5, 13, ZERO, parse_mode("conj:C3_2")))
    assert direct.equalities == inverse.equalities
    assert direct.classification_failures == inverse.classification_failures


def test_scan_determinism_across_jobs():
    fingerprints = set()
    for jobs in (1, 2, 4):
        report = scan(ScanConfig(4, 13, POS, parse_mode("conj:C2_1"), jobs=jobs))
        fingerprints.add(report.fingerprint())
    assert len(fingerprints) == 1


def test_scan_pool_is_capped_at_cpu_count(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(explorer, "ProcessPoolExecutor", SerialPool)
    config = ScanConfig(4, 12, POS, parse_mode("conj:C2_1"), jobs=64)
    assert len(_partitions(config)) == 45
    wide = scan(config)
    assert started == [2]
    serial = scan(ScanConfig(4, 12, POS, parse_mode("conj:C2_1"), jobs=1))
    assert wide.fingerprint() == serial.fingerprint()


def test_explicit_h_values():
    report = scan(
        ScanConfig(5, 11, POS, parse_mode("conj:C2_1"), h_values=(3,))
    )
    assert {r["h"] for r in report.equalities} == {3}
    with pytest.raises(NotApplicable):
        scan(ScanConfig(5, 11, POS, parse_mode("conj:C2_1"), h_values=(2,)))
    with pytest.raises(NotApplicable):
        scan(ScanConfig(5, 11, POS, parse_mode("verify:T2_2"), h_values=(3,)))


def test_report_json_round_trip_and_csv():
    report = scan(ScanConfig(4, 12, POS, parse_mode("verify:T2_4")))
    text = report.to_json()
    assert canonical_json(json.loads(text)) == text
    payload = json.loads(text)
    assert payload["sets_scanned"] == report.sets_scanned
    assert payload["config"]["mode"] == "verify:T2_4"
    rows = report.csv_rows()
    assert rows[0][0] == "equality"
    assert len(rows[0]) == len(CSV_HEADER)


def test_zero_family_enumeration_contains_zero():
    for a in enumerate_normalized_sets(3, 6, ZERO):
        assert a.elements[0] == 0
        assert make_set(list(a)).k == 3
