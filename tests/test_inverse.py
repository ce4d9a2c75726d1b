import hashlib

import pytest

from sumsets.core import canonical_json, dilate, make_set
from sumsets.errors import DegenerateSet, SumsetError
from sumsets.inverse import (
    THEOREMS,
    classify_extremal,
    inverse_coverage,
    regenerate,
)
from sumsets.core import SetFamily
from sumsets import explorer
from sumsets.bounds import confirm
from sumsets.explorer import ScanConfig, enumerate_normalized_sets, parse_mode, scan
from sumsets.kernel import sumset_layered
from sumsets.witness import (
    FamilyName,
    combined_census,
    gen_family,
    s_family,
    superincreasing_census,
    t_family,
    u_family,
    verify_family,
)
from conftest import random_elements

# sha256 of the classify_extremal JSON stream in test_classification_golden,
# recorded before the inverse theory moved into the THEOREMS table
CLASSIFICATION_GOLDEN = "3a7bc5a4067a224127a6b3235fa1e76e2214d8004d9beac9289ceec49fa59f58"
# sha256 of the certificate and extremal-family stream in
# test_certificate_golden, recorded before the certificate chains and the
# family shapes were rewritten to one encoding each
CERTIFICATE_GOLDEN = "1cabbfc50d9c7239e408c849b0ee4f050819d1826d1be10da5158d392d9973d2"
# sha256 of the scan fingerprints and refusals in test_scan_golden, recorded
# before the scan became a depth-first walk over the set tree
SCAN_GOLDEN = "71888c5fe12970141a59672e90c57e9e85b45c498c0e028aaffc21bd517dc065"
# sha256 of the (set, h, kind, card) tuples the oracle confirms in
# test_scan_golden, in order, recorded before the verify and conjecture
# checks became one loop
CONFIRM_GOLDEN = "2da1de7b965834cf333dfd9a0a60174b16a00885cee644dd5778a36635f45b34"


def test_classify_odd_ap_dilated():
    cls = classify_extremal(make_set([3, 9, 15, 21]), 2)
    assert cls.theorem == "T2_2"
    assert cls.family == "OddAP" and cls.params == {"k": 4, "d": 3}
    assert cls.equality and cls.consistent
    assert regenerate(cls) == make_set([3, 9, 15, 21])


def test_classify_sum_closed_triple():
    cls = classify_extremal(make_set([2, 5, 7]), 3)
    assert cls.theorem == "T2_3"
    assert cls.family == "SumClosed3" and cls.params == {"k": 3, "params": [2, 5]}
    assert cls.consistent
    assert regenerate(cls) == make_set([2, 5, 7])


def test_classify_non_extremal():
    cls = classify_extremal(make_set([1, 2, 4]), 2)
    assert cls.cardinality == 10 and cls.bound == 8
    assert not cls.equality and cls.family is None and not cls.consistent
    with pytest.raises(DegenerateSet, match="classification matched no family"):
        regenerate(cls)


def test_classify_special_zero_quadruple():
    cls = classify_extremal(make_set([0, 2, 4, 8]), 3)
    assert cls.theorem == "T3_5"
    assert cls.family == "Special0124" and cls.params == {"k": 4, "d": 2}
    assert cls.consistent
    assert regenerate(cls) == make_set([0, 2, 4, 8])


def test_not_covered_is_first_class():
    cls = classify_extremal(make_set([1, 2, 3, 4, 5, 6, 7]), 4)
    assert not cls.covered
    assert cls.theorem is None and cls.bound is None
    assert cls.cardinality > 0


def test_coverage_routing():
    pos, zero = SetFamily.POSITIVE, SetFamily.CONTAINS_ZERO
    assert inverse_coverage(pos, 2, 2) == "T2_2"     # h = k = 2 routes to h=2
    assert inverse_coverage(pos, 3, 3) == "T2_3"
    assert inverse_coverage(pos, 5, 3) == "T2_4"
    assert inverse_coverage(pos, 4, 3) == "T2_4"
    assert inverse_coverage(zero, 4, 3) == "T3_5"
    assert inverse_coverage(zero, 5, 3) == "T3_4"
    assert inverse_coverage(zero, 6, 6) == "T3_3"
    assert inverse_coverage(pos, 7, 4) is None
    assert inverse_coverage(zero, 3, 1) is None


def test_small_k_exceptional_families():
    # every positive pair is extremal at h = 2
    cls = classify_extremal(make_set([4, 9]), 2)
    assert cls.family == "Pair" and cls.consistent
    assert regenerate(cls) == make_set([4, 9])
    # every {0, a} is extremal at h = 2
    cls = classify_extremal(make_set([0, 6]), 2)
    assert cls.family == "ZeroPair" and cls.consistent
    assert regenerate(cls) == make_set([0, 6])
    # every zero triple is extremal at h = k = 3
    cls = classify_extremal(make_set([0, 4, 9]), 3)
    assert cls.family == "ZeroTriple" and cls.consistent
    assert regenerate(cls) == make_set([0, 4, 9])
    # zero quadruples at h = k = 4 need sum closure
    cls = classify_extremal(make_set([0, 3, 5, 8]), 4)
    assert cls.family == "SumClosed4" and cls.consistent
    assert regenerate(cls) == make_set([0, 3, 5, 8])
    cls = classify_extremal(make_set([0, 3, 5, 9]), 4)
    assert cls.family is None and not cls.equality


def test_classification_dilation_invariance(rng):
    for _ in range(30):
        k = rng.randint(2, 6)
        family = rng.choice(["positive", "zero"])
        a = make_set(random_elements(rng, k, family, hi=15))
        h = rng.choice([2, 3, k])
        if inverse_coverage(SetFamily.POSITIVE if family == "positive" else SetFamily.CONTAINS_ZERO, k, h) is None:
            continue
        d = rng.choice([2, 5])
        base = classify_extremal(a, h)
        scaled = classify_extremal(dilate(a, d), h)
        assert base.equality == scaled.equality
        assert (base.family is None) == (scaled.family is None)
        if base.family is not None:
            assert regenerate(scaled) == dilate(a, d)


def test_matched_family_regenerates_byte_for_byte(rng):
    from sumsets.witness import gen_family

    cases = [
        gen_family("OddAP", k=5, d=4),
        gen_family("Interval1K", k=6, d=2),
        gen_family("Interval0K", k=5, d=3),
        gen_family("Special0124", d=7),
        gen_family("SumClosed3", params=(3, 11)),
        gen_family("SumClosed4", params=(2, 9)),
    ]
    folds = [2, 6, 2, 3, 3, 4]
    for a, h in zip(cases, folds):
        cls = classify_extremal(a, h)
        assert cls.consistent, (a.canonical(), h, cls)
        assert regenerate(cls).canonical() == a.canonical()


def test_classification_golden():
    digest = hashlib.sha256()
    count = 0
    for family in (SetFamily.POSITIVE, SetFamily.CONTAINS_ZERO):
        for k in range(2, 6):
            for base in enumerate_normalized_sets(k, 10, family):
                for d in (1, 2, 3):
                    a = base if d == 1 else dilate(base, d)
                    for h in range(1, k + 1):
                        cls = classify_extremal(a, h)
                        digest.update(canonical_json(cls.to_json_dict()).encode())
                        count += 1
    assert count == 12060
    assert digest.hexdigest() == CLASSIFICATION_GOLDEN


def test_scan_golden(monkeypatch):
    # every scan mode, both families, k = 1..6 and five fold choices; a
    # refused config contributes its error's type and text.  The oracle's
    # calls, all from conjecture scans, are hashed apart, in order
    confirmed = []

    def recording(a, h, kind, card):
        confirmed.append((a.canonical(), h, kind.value, card))
        return confirm(a, h, kind, card)

    monkeypatch.setattr(explorer, "confirm", recording)
    modes = [
        mode
        for target in ("T2_1", "T3_1", "TA_Nathanson", *THEOREMS)
        for mode in (f"verify:{target}", f"conj:{target}")
        if _outcome(parse_mode, mode) != "NotApplicable"
    ]
    digest = hashlib.sha256()
    scanned = 0
    for mode in modes:
        for family, max_element in ((SetFamily.POSITIVE, 9), (SetFamily.CONTAINS_ZERO, 10)):
            for k in range(1, 7):
                for h_values in (None, (1,), (2,), (3,), tuple(range(1, k + 1))):
                    config = ScanConfig(k, max_element, family, parse_mode(mode), h_values)
                    try:
                        digest.update(scan(config).fingerprint().encode())
                        scanned += 1
                    except SumsetError as exc:
                        digest.update(f"{type(exc).__name__}: {exc}".encode())
    assert len(modes) == 14
    assert scanned == 170
    assert digest.hexdigest() == SCAN_GOLDEN
    assert len(confirmed) == 26
    assert hashlib.sha256(canonical_json(confirmed).encode()).hexdigest() == CONFIRM_GOLDEN


def _outcome(fn, *args, **kwargs):
    """A call's result, or the name of the SumsetError it raised."""
    try:
        return fn(*args, **kwargs)
    except SumsetError as exc:
        return type(exc).__name__


def _family_record(fam, members):
    check = verify_family(fam, members)
    return {
        "name": fam.name,
        "h": fam.h,
        "elements": [[e.label, e.value, e.relation_to_next, e.core] for e in fam.elements],
        "expected_new": fam.expected_new,
        "check": {**vars(check), "ok": check.ok},
    }


def _certificates(a, h, **flags):
    """Every chain for (A, h), each checked against the computed sumset,
    and both censuses; a refused chain or census is its error's name."""
    # every chain refuses a fold outside 1..k before it needs the sumset
    members = sumset_layered(a, h).values if 1 <= h <= a.k else None
    chains = [_outcome(s_family, a, h), _outcome(t_family, a, h, **flags)]
    if not isinstance(chains[1], str):
        chains += chains[1].subfamilies
    if h == a.k and not flags.get("zero_in_a"):
        chains.append(_outcome(u_family, a))
    return {
        "set": a.canonical(),
        "h": h,
        "flags": flags,
        "families": [
            c if isinstance(c, str) else _family_record(c, members) for c in chains
        ],
        "combined": _outcome(combined_census, a, h),
        "superincreasing": _outcome(superincreasing_census, a, h),
    }


def test_certificate_golden():
    digest = hashlib.sha256()
    count = 0

    def feed(record):
        nonlocal count
        digest.update(canonical_json(record).encode())
        count += 1

    for family in (SetFamily.POSITIVE, SetFamily.CONTAINS_ZERO):
        zero = family is SetFamily.CONTAINS_ZERO
        for k in range(1, 6):
            for a in enumerate_normalized_sets(k, 9, family):
                for h in range(1, k + 1):
                    feed(_certificates(a, h, zero_in_a=zero))
    for k in range(6, 9):
        for base in (1, 2):
            for ratio in (None, 2, 3):
                elements = [base]
                for _ in range(k - 1):
                    elements.append(ratio * elements[-1] if ratio else sum(elements) + 1)
                a = make_set(elements)
                for h in range(1, k):
                    feed(_certificates(a, h, superincreasing=True))
    # refusals: a flag that does not fit the set, a mixed-sign set, and
    # folds outside 1..k
    for raw in ([1, 2, 4], [0, 1, 3], [-2, 1, 5], [1, 2, 4, 8, 16, 32]):
        a = make_set(raw)
        for h in (0, 1, a.k, a.k + 1):
            for flags in ({}, {"zero_in_a": True}, {"superincreasing": True}):
                feed(_certificates(a, h, **flags))
    for name in FamilyName:
        for k in (None, 1, 2, 3, 4, 5):
            for d in (0, 1, 2):
                for params in ((), (3,), (0, 4), (2, 5), (5, 2), (1, 2, 3)):
                    made = _outcome(gen_family, name, k, d, params)
                    feed([name.value, k, d, list(params), str(made)])
    assert count == 3575
    assert digest.hexdigest() == CERTIFICATE_GOLDEN
