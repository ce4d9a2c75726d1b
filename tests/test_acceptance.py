"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets are asserted
where the criterion states one.  Randomized criteria reseed from
SUMSETS_TEST_SEED (see conftest).
"""
import random
import time
from itertools import combinations
from math import comb, gcd

from sumsets.cli import main as cli_main
from sumsets.core import SetFamily, SumsetKind, make_set
from sumsets.explorer import (
    ScanConfig,
    count_normalized_sets,
    enumerate_normalized_sets,
    parse_mode,
    scan,
)
from sumsets.kernel import sumset_layered, sumset_naive
from sumsets.witness import (
    combined_census,
    gen_family,
    gen_superincreasing,
    s_family,
    t_family,
    u_family,
    verify_family,
)
from conftest import random_elements, suite_seed

POS, ZERO = SetFamily.POSITIVE, SetFamily.CONTAINS_ZERO


def _pass(n: int, msg: str) -> None:
    print(f"\nACCEPTANCE {n:2d} PASS - {msg}")


def test_criterion_01_oracle_equivalence():
    rng = random.Random(suite_seed() + 1)
    start = time.perf_counter()
    comparisons = 0
    for i in range(500):
        k = rng.randint(1, 9)
        family = ("any", "positive", "zero")[i % 3]
        a = make_set(random_elements(rng, k, family, hi=40))
        for h in range(1, k + 1):
            for kind in SumsetKind:
                naive = sumset_naive(a, h, kind).values
                layered = sumset_layered(a, h, kind).values
                assert naive == layered, (a.canonical(), h, kind)
                comparisons += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    _pass(1, f"naive == layered on 500 sets / {comparisons} computations "
             f"in {elapsed:.1f}s (< 60s)")


def test_criterion_02_h2_tightness_odd_ap():
    for k in range(2, 10):
        for d in (1, 2, 5):
            a = gen_family("OddAP", k=k, d=d)
            assert sumset_layered(a, 2).cardinality == 4 * k - 4, (k, d)
    _pass(2, "|2-fold rs-sumset of d*{1,3,...,2k-1}| = 4k-4 for k in [2,9], "
             "d in {1,2,5}")


def test_criterion_03_full_fold_tightness_interval():
    for k in range(3, 10):
        a = gen_family("Interval1K", k=k, d=1)
        assert sumset_layered(a, k).cardinality == comb(k + 1, 2) + 1, k
    _pass(3, "|k-fold rs-sumset of [1,k]| = C(k+1,2)+1 for k in [3,9]")


def test_criterion_04_zero_family_tightness():
    for k in range(2, 10):
        a = gen_family("Interval0K", k=k, d=1)
        assert sumset_layered(a, 2).cardinality == 4 * k - 6, k
    for k in range(3, 10):
        a = gen_family("Interval0K", k=k, d=1)
        assert sumset_layered(a, k).cardinality == comb(k, 2) + 1, k
    _pass(4, "|2-fold| = 4k-6 and |k-fold| = C(k,2)+1 on [0,k-1] for k up to 9")


def test_criterion_05_witness_soundness():
    rng = random.Random(suite_seed() + 5)
    start = time.perf_counter()
    checked = 0
    for family in ("positive", "zero"):
        for _ in range(200):
            k = rng.randint(1, 8)
            a = make_set(random_elements(rng, k, family))
            zero = family == "zero"
            for h in range(1, k + 1):
                membership = sumset_layered(a, h).values
                for fam in (s_family(a, h), t_family(a, h, zero_in_a=zero)):
                    check = verify_family(fam, membership)
                    assert check.ok, (a.canonical(), h, fam.name, check)
                if not zero and h == k and k >= 3:
                    check = verify_family(u_family(a), membership)
                    assert check.ok, (a.canonical(), check)
                actual, expected = combined_census(a, h)
                assert actual == expected, (a.canonical(), h)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    _pass(5, f"all chains, memberships and count identities on 400 random "
             f"sets / {checked} folds in {elapsed:.1f}s (< 60s)")


def test_criterion_06_exhaustive_direct_bounds():
    start = time.perf_counter()
    scanned = 0
    for k in range(2, 6):
        r = scan(ScanConfig(k, 14, POS, parse_mode("verify:T2_1")))
        scanned += r.sets_scanned
        r = scan(ScanConfig(k, 14, ZERO, parse_mode("verify:T3_1")))
        scanned += r.sets_scanned
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    _pass(6, f"zero violations of the baseline bounds over {scanned} "
             f"normalized sets (k in [2,5], max 14, all folds) in "
             f"{elapsed:.1f}s (< 5min)")


def _expected_census(theorem: str, k: int, max_element: int) -> list[str]:
    """Independently constructed equality census for each inverse theorem."""
    if theorem in ("T2_2", "T2_4") and k >= 3:
        return [gen_family("OddAP", k=k, d=1).canonical()]
    if theorem == "T2_2":  # k == 2: every pair
        return [a.canonical() for a in enumerate_normalized_sets(2, max_element, POS)]
    if theorem == "T2_3":
        if k == 3:
            return sorted(
                (
                    make_set([a0, a1, a0 + a1]).canonical()
                    for a0 in range(1, max_element)
                    for a1 in range(a0 + 1, max_element)
                    if a0 + a1 <= max_element and gcd(a0, a1) == 1
                ),
                key=lambda s: [int(x) for x in s.split(",")],
            )
        return [gen_family("Interval1K", k=k, d=1).canonical()]
    if theorem == "T3_2" and k >= 3 or theorem == "T3_4":
        return [gen_family("Interval0K", k=k, d=1).canonical()]
    if theorem == "T3_2":  # k == 2: every {0, a}, gcd-normalized
        return [a.canonical() for a in enumerate_normalized_sets(2, max_element, ZERO)]
    if theorem == "T3_3":
        if k == 3:  # every zero triple is extremal at h = k
            return [a.canonical() for a in enumerate_normalized_sets(3, max_element, ZERO)]
        if k == 4:  # exactly the sum-closed quadruples
            return sorted(
                (
                    make_set([0, a1, a2, a1 + a2]).canonical()
                    for a1 in range(1, max_element)
                    for a2 in range(a1 + 1, max_element)
                    if a1 + a2 <= max_element and gcd(a1, a2) == 1
                ),
                key=lambda s: [int(x) for x in s.split(",")],
            )
        return [gen_family("Interval0K", k=k, d=1).canonical()]
    assert theorem == "T3_5"
    return ["0,1,2,4"]


def test_criterion_07_inverse_theorems_by_exhaustion():
    start = time.perf_counter()
    jobs = [
        ("T2_2", POS, range(2, 6)),
        ("T2_3", POS, range(3, 6)),
        ("T2_4", POS, range(4, 6)),
        ("T3_2", ZERO, range(2, 6)),
        ("T3_3", ZERO, range(3, 6)),
        ("T3_4", ZERO, range(5, 6)),
        ("T3_5", ZERO, range(4, 5)),
    ]
    total_sets = 0
    total_equalities = 0
    for theorem, family, k_range in jobs:
        for k in k_range:
            report = scan(
                ScanConfig(k, 20, family, parse_mode(f"verify:{theorem}"))
            )
            assert report.classification_failures == ()
            census = [r["set"] for r in report.equalities]
            assert census == _expected_census(theorem, k, 20), (theorem, k)
            total_sets += report.sets_scanned
            total_equalities += len(census)
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"budget exceeded: {elapsed:.1f}s"
    _pass(7, f"equality censuses over {total_sets} sets match the predicted "
             f"families exactly ({total_equalities} equality sets, 0 "
             f"classification failures) in {elapsed:.1f}s (< 10min)")


def test_criterion_08_special_quadruple_pinpoint():
    equalities = []
    for a in enumerate_normalized_sets(4, 20, ZERO):
        card = sumset_layered(a, 3).cardinality
        assert card >= 12, a.canonical()
        if card == 12:
            equalities.append(a.canonical())
    assert equalities == ["0,1,2,4"]
    _pass(8, "among all normalized {0} + 3-subsets of [1,20]: |3-fold| >= 12 "
             "with equality only at 0,1,2,4")


def test_criterion_09_superincreasing_bound():
    for k in (6, 7):
        a = gen_superincreasing(k)  # 1,2,4,8,... doubling
        h = 5
        target = 2 * h * k - h * h + h - 4
        card = sumset_layered(a, h).cardinality
        assert card >= target, (a.canonical(), card, target)
    _pass(9, "superincreasing sets (k=6,7; h=5) meet the certified "
             "2hk - h^2 + h - 4 bound")


def test_criterion_10_conjecture_scans():
    start = time.perf_counter()
    reports = {}
    for k in (4, 5, 6):
        reports["C2_1", k] = scan(ScanConfig(k, 14, POS, parse_mode("conj:C2_1")))
    for k in (5, 6):
        reports["C3_1", k] = scan(ScanConfig(k, 13, ZERO, parse_mode("conj:C3_1")))

    # no oracle-confirmed violations of the conjectured direct bounds
    for key, report in reports.items():
        assert report.conjecture_counterexamples == (), key

    # equality censuses match the conjectured inverse families, with one
    # sanctioned exception: a genuine, double-verified inverse-conjecture
    # counterexample must carry both engines' agreeing cardinality
    sanctioned = []
    for key, report in reports.items():
        for rec in report.classification_failures:
            assert rec["naive_cardinality"] == rec["cardinality"], rec
            assert rec["cardinality"] == rec["bound"], rec
            sanctioned.append((key, rec))
    assert [(key, rec["set"], rec["h"]) for key, rec in sanctioned] == [
        (("C3_1", 5), "0,1,2,4,6", 4)
    ], sanctioned
    for (key, rec) in sanctioned:
        print(
            f"\n  double-verified inverse-conjecture counterexample on "
            f"{key}: set {rec['set']} h={rec['h']} layered={rec['cardinality']} "
            f"naive={rec['naive_cardinality']} == conjectured minimum "
            f"{rec['bound']} but not of the form {rec['expected_family']}"
        )

    # CLI exit codes: 0 for a clean space, 3 where the counterexample lives
    assert cli_main(
        ["scan", "--mode", "conj:C2_1", "--k", "5", "--family", "positive",
         "--max", "14"]
    ) == 0
    assert cli_main(
        ["scan", "--mode", "conj:C3_1", "--k", "5", "--family",
         "contains-zero", "--max", "13"]
    ) == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 900, f"budget exceeded: {elapsed:.1f}s"
    scanned = sum(r.sets_scanned for r in reports.values())
    _pass(10, f"conjecture scans over {scanned} sets: zero bound "
              f"counterexamples; censuses match the conjectured families "
              f"except one double-verified inverse counterexample "
              f"(0,1,2,4,6 at h=4, exit code 3) in {elapsed:.1f}s (< 15min)")


def test_criterion_11_property_suites(real_pool):
    rng = random.Random(suite_seed() + 11)
    # symmetry + dilation equivariance + inclusion chain on random sets
    for _ in range(80):
        k = rng.randint(1, 7)
        a = make_set(random_elements(rng, k, rng.choice(["any", "positive", "zero"])))
        h = rng.randint(1, k)
        rs = set(sumset_layered(a, h).values)
        assert rs == {-v for v in rs}
        signed = set(sumset_layered(a, h, SumsetKind.SIGNED).values)
        restricted = set(sumset_layered(a, h, SumsetKind.RESTRICTED).values)
        mirrored = {-v for v in restricted}
        assert restricted | mirrored <= rs <= signed
        alpha = rng.choice([-3, -1, 2, 5])
        from sumsets.core import dilate

        scaled = set(sumset_layered(dilate(a, alpha), h).values)
        assert scaled == {alpha * v for v in rs}

    # scan determinism across parallelism levels 1 / 4 / 8
    fingerprints = set()
    for jobs in (1, 4, 8):
        report = scan(
            ScanConfig(5, 13, ZERO, parse_mode("conj:C3_1"), jobs=jobs)
        )
        fingerprints.add(report.fingerprint())
    assert len(fingerprints) == 1
    assert len(real_pool) == 2 and min(real_pool) >= 2  # jobs 4 and 8 ran pooled
    _pass(11, "symmetry, dilation equivariance, inclusion chain and scan "
              "determinism across jobs 1/4/8 all hold")
