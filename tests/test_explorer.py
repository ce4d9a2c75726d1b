import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from itertools import combinations, groupby, product
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from conftest import bound_one_above, overcounting, record_pools, unstacked
from sumsets.core import FiniteIntSet, SetFamily, SumsetKind, canonical_json, make_set
from sumsets.errors import EmptySpace, EngineMismatch, NotApplicable, TheoremViolation
from sumsets import bounds, explorer, kernel
from sumsets.bounds import FORMULAS, audit
from sumsets.inverse import THEOREMS
from sumsets.witness import FamilyName
from sumsets.kernel import fold, sumset_naive
from sumsets.explorer import (
    CSV_HEADER,
    ScanConfig,
    _completions,
    _mobius,
    _validate,
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
@pytest.mark.parametrize("max_element", [4, 9, 13, 36])
def test_closed_form_count_matches_enumeration(k, max_element, family):
    space = list(enumerate_normalized_sets(k, max_element, family))
    assert len(space) == count_normalized_sets(k, max_element, family)
    assert len(set(space)) == len(space)
    # scan merges its blocks' results in order, so the blocks must tile the
    # space: its sets' leading nonzero elements run through them in order.
    # TA_Nathanson takes every k of both families
    config = ScanConfig(k, max_element, family, parse_mode("verify:TA_Nathanson"))
    _, blocks = _validate(config)
    lead = (a.elements[family is ZERO:][:len(blocks[0])] for a in space)
    prefixes = [p for p, _ in groupby(lead)]
    assert prefixes == [p for p in blocks if p in prefixes]


@pytest.mark.parametrize("family", [POS, ZERO])
@pytest.mark.parametrize("kind", [kind for kind in SumsetKind if kind.bounded_fold])
def test_walk_layers_are_every_fold_of_every_set(monkeypatch, family, kind):
    # with no bound in reach and every level checked, the worker prunes
    # nothing: its check gets every fold of every set of the blocks, once,
    # with the oracle's cardinality, the sets in enumeration order, and the
    # worker counts each set once.  At k=4 positive a root lacks two
    # elements, at k=3 one, at k=2 contains-zero a root is already a set,
    # and at k=1 the set {1} or {0} is read as y = x.  max runs over the
    # smallest spaces of each k, k to k + 2, and 9.
    for k in range(1, 7):
        for max_element in sorted({k, k + 1, k + 2, 9}):
            config = ScanConfig(k, max_element, family, parse_mode("verify:TA_Nathanson"))
            folds = range(1, k + 1)
            seen = []

            def record(plan, parent, cards, out):
                for y, x, h, card in cards:
                    seen.append((parent + ((y, x) if y < x else (x,)), h, card))

            monkeypatch.setattr(explorer, "_check", record)
            laid, blocks = _validate(config)
            plan = explorer._ScanPlan(
                config, laid.base, laid.size, kind, "", None, {},
                tuple((h, 10**9) for h in folds), frozenset(range(2, k)), explorer._FIELDS,
            )
            scanned, _ = explorer._scan_blocks((plan, blocks))
            space = [a.elements for a in enumerate_normalized_sets(k, max_element, family)]
            assert [elements for elements, _ in groupby(e for e, _, _ in seen)] == space
            assert sorted((e, h) for e, h, _ in seen) == sorted(product(space, folds))
            for elements, h, card in seen:
                a = FiniteIntSet(elements)
                assert card == sumset_naive(a, h, kind).cardinality, (a, h)
            assert scanned == len(space), (k, max_element)
            # with a limit of 0 every fold dies at the first checked level,
            # so the worker counts each subtree there by Moebius, over a
            # gcd above 1 too, and hands the check nothing
            seen.clear()
            dead = dataclasses.replace(plan, limits=tuple((h, 0) for h in folds))
            assert explorer._scan_blocks((dead, blocks))[0] == len(space)
            assert seen == []


def test_completions_count_the_gcd_one_sets_below_a_node():
    # a skipped subtree's sets are counted by Moebius over the divisors of
    # the node's gcd g; scans almost never skip a node with g > 1, so each g
    # up to 12 is held against the sets themselves (g = 0: no nonzero element)
    for max_element in range(1, 21):
        mu = _mobius(max_element)
        for g, left, p in product(range(13), range(1, 5), range(max_element + 1)):
            sets = combinations(range(p + 1, max_element + 1), left)
            brute = sum(gcd(g, *x) == 1 for x in sets)
            assert _completions(g, p, max_element, left, mu) == brute, (g, p, max_element, left)


def _spied_scan(config: ScanConfig) -> tuple[str, int, list, int]:
    """A scan's fingerprint, its work (the walk's and the z loop's ``fold``
    calls plus the y for which the leaf step reads any x, the leaf parents
    it reads), the (set, h) pairs its oracle confirms and the z whose leaf
    step the z loop's filter drops."""
    live_rows, read = kernel.live_rows, []  # the leaf step's filter, or a stand-in
    live_folds, dropped = explorer.live_folds, []  # the walk's filter, or a stand-in

    def counted(*args):
        live = live_rows(*args)
        read.append(len(live))
        return live

    def z_filter(stacked, left, frame, bounds):
        live = live_folds(stacked, left, frame, bounds)
        if left == 2 and not live:
            dropped.append(stacked)
        return live

    with mock.patch.object(explorer, "fold", wraps=explorer.fold) as spy, \
            mock.patch.object(explorer, "confirm", wraps=explorer.confirm) as confirms, \
            mock.patch.object(explorer, "live_folds", z_filter), \
            mock.patch.object(kernel, "live_rows", counted):
        report = scan(config)
    confirmed = [(call.args[0].canonical(), call.args[1]) for call in confirms.call_args_list]
    return report.fingerprint(), spy.call_count + sum(read), confirmed, len(dropped)


@pytest.mark.parametrize("mode, k, max_element, family, skips", [
    # scan-conj: 750 folds and 39 leaf parents read against 750 and 1,287
    ("conj:C2_1", 6, 14, POS, True),
    ("conj:C2_1", 7, 12, POS, True),
    ("conj:C2_1", 7, 14, POS, True),
    ("conj:C2_1", 8, 13, POS, True),
    ("conj:C2_1", 8, 14, POS, True),   # levels {2, 3}; 1,751 against 3,452
    ("conj:C3_1", 7, 14, ZERO, True),   # level 2 alone
    ("conj:C3_1", 8, 13, ZERO, True),   # levels {2, 3}
    ("conj:C2_1", 10, 15, POS, True),   # the walk skips subtrees: 2,991 folds against 3,017
    ("verify:T2_1", 5, 12, POS, False),   # fold 1 never dies
    ("verify:TA_Nathanson", 6, 12, POS, False),   # the restricted kind
    ("verify:T2_4", 6, 14, POS, False),   # an inverse limit is infinite
])
def test_pruned_walk_reports_what_the_full_walk_does(
    monkeypatch, mode, k, max_element, family, skips,
):
    config = ScanConfig(k, max_element, family, parse_mode(mode))
    pruned, pruned_work, pruned_confirms, pruned_drops = _spied_scan(config)

    def keep_every_fold(stacked, left, frame, bounds):
        return list(bounds)

    def keep_every_row(stacked, ys, frame, bounds):
        live = []
        for i, y in enumerate(ys):
            child = unstacked(fold(stacked, y, frame), frame)
            live.append((i, y, [(h, bound, child[h], child[h - 1]) for h, bound in bounds]))
        return live

    # the walk's and the z loop's filter, then the leaf step's, per y
    monkeypatch.setattr(explorer, "live_folds", keep_every_fold)
    monkeypatch.setattr(kernel, "live_rows", keep_every_row)
    full, full_work, full_confirms, full_drops = _spied_scan(config)
    assert pruned == full
    assert pruned_confirms == full_confirms
    assert (pruned_work < full_work) == skips, (pruned_work, full_work)
    # the z loop filters only where two missing elements is a checked level,
    # and in these spaces it drops some z there
    assert (pruned_drops > 0) == (2 in _validate(config)[0].checks)
    assert full_drops == 0


@pytest.mark.parametrize("mode, k, max_element, family, levels", [
    ("conj:C2_1", 6, 14, POS, set()),   # scan-conj: only the leaf step's per-y test
    ("conj:C2_1", 8, 14, POS, {2, 3}),
    ("verify:T2_1", 5, 16, POS, set()),   # scan-verify: fold 1 never dies
    ("verify:T2_4", 6, 14, POS, set()),   # an inverse limit is infinite
    # the restricted kind has at most C(n, j) values in layer j, not
    # C(n, j) * 2^j, so no level passes every fold's limit
    ("verify:TA_Nathanson", 5, 12, POS, set()),
    ("verify:TA_Nathanson", 6, 12, ZERO, set()),
    ("verify:TA_Nathanson", 7, 14, POS, set()),
])
def test_check_levels_mark_where_every_fold_could_die(mode, k, max_element, family, levels):
    plan, _ = _validate(ScanConfig(k, max_element, family, parse_mode(mode)))
    assert plan.checks == levels


def test_scans_walk_only_bounded_fold_kinds():
    assert all(formula.kind.bounded_fold for formula in FORMULAS.values())


def test_empty_space_raises():
    with pytest.raises(EmptySpace):
        list(enumerate_normalized_sets(5, 3, POS))
    with pytest.raises(EmptySpace):
        scan(ScanConfig(5, 3, POS, parse_mode("verify:T2_1")))
    with pytest.raises(EmptySpace, match="need k >= 1, got k=0"):
        scan(ScanConfig(0, 3, POS, parse_mode("verify:T2_1")))


def test_mode_parsing():
    assert str(parse_mode("verify:T2_4")) == "verify:T2_4"
    assert str(parse_mode("conj:C2_1")) == "conj:C2_1"
    with pytest.raises(NotApplicable):
        parse_mode("verify:C2_1")
    with pytest.raises(NotApplicable):
        parse_mode("frobnicate:T2_1")
    with pytest.raises(NotApplicable, match="unknown scan mode 'conjecture:C2_1'"):
        parse_mode("conjecture:C2_1")


def test_scan_rejects_mismatched_family():
    with pytest.raises(NotApplicable):
        scan(ScanConfig(4, 10, ZERO, parse_mode("verify:T2_4")))
    with pytest.raises(NotApplicable):
        scan(ScanConfig(4, 10, POS, parse_mode("conj:C3_1")))
    with pytest.raises(NotApplicable):
        scan(ScanConfig(3, 10, POS, parse_mode("conj:C2_1")))  # k too small
    with pytest.raises(NotApplicable, match="T3_5 needs 4 <= k <= 4"):
        scan(ScanConfig(5, 10, ZERO, parse_mode("verify:T3_5")))
    with pytest.raises(NotApplicable, match="scans enumerate positive or contains-zero"):
        scan(ScanConfig(3, 10, SetFamily.ANY, parse_mode("verify:T2_1")))


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


def test_verify_inverse_fails_a_family_member_above_the_bound(monkeypatch):
    # no real set breaks the converse, so no golden shows a scan that skips
    # it; with Interval1K as T2_2's family, {1,2,3} is a member whose
    # cardinality 10 is above the bound 8
    row = dataclasses.replace(THEOREMS["T2_2"], extremal=FamilyName.INTERVAL_1K)
    monkeypatch.setitem(THEOREMS, "T2_2", row)
    with pytest.raises(TheoremViolation) as exc:
        scan(ScanConfig(3, 5, POS, parse_mode("verify:T2_2")))
    assert str(exc.value) == (
        "[partition (1, 2)] T2_2 classification failed on 1,2,3: equality=False "
        "but family match='Interval1K' (cardinality 10, bound 8, both engines agree)"
    )


def test_verify_inverse_fails_an_equality_outside_the_family(monkeypatch):
    # with Interval0K as T2_2's family, the odd AP {1,3,5} meets the bound 8
    # but is no member of it: no set of the positive space is
    row = dataclasses.replace(THEOREMS["T2_2"], extremal=FamilyName.INTERVAL_0K)
    monkeypatch.setitem(THEOREMS, "T2_2", row)
    with pytest.raises(TheoremViolation) as exc:
        scan(ScanConfig(3, 5, POS, parse_mode("verify:T2_2")))
    assert str(exc.value) == (
        "[partition (1, 3)] T2_2 classification failed on 1,3,5: equality=True "
        "but family match=None (cardinality 8, bound 8, both engines agree)"
    )


def test_scan_engine_mismatch_raises(monkeypatch):
    # an oracle that disagrees with the walk must abort the scan, naming the
    # first set it confirms: the conjecture equality 1,3,5,7 at h = 3
    monkeypatch.setattr(bounds, "sumset_naive", overcounting(sumset_naive))
    with pytest.raises(EngineMismatch) as exc:
        scan(ScanConfig(4, 10, POS, parse_mode("conj:C2_1")))
    assert str(exc.value) == (
        "[partition (1, 3)] engines disagree on 1,3,5,7, h=3: 16 vs 17"
    )


def test_audit_and_scan_confirm_through_one_oracle_step(monkeypatch):
    # one patched oracle binding reaches both: they raise the same text
    bound_one_above(monkeypatch, "C2_1")
    monkeypatch.setattr(bounds, "sumset_naive", overcounting(sumset_naive))
    with pytest.raises(EngineMismatch) as audited:
        audit(make_set([1, 3, 5, 7]), 3)
    with pytest.raises(EngineMismatch) as scanned:
        scan(ScanConfig(4, 7, POS, parse_mode("conj:C2_1")))
    assert str(audited.value) == "engines disagree on 1,3,5,7, h=3: 16 vs 17"
    assert str(scanned.value) == f"[partition (1, 3)] {audited.value}"


@pytest.mark.parametrize("mode, formula_id, k, family, violation, mismatch", [
    ("verify:T2_1", "T2_1", 2, POS, "T2_1 violated on 1,2, h=1: 4 < 5",
     "engines disagree on 1,2, h=1: 4 vs 5"),
    ("verify:T3_1", "T3_1", 3, ZERO, "T3_1 violated on 0,1,2, h=1: 5 < 6",
     "engines disagree on 0,1,2, h=1: 5 vs 6"),
    ("verify:T2_2", "T2_1", 2, POS, "T2_2 violated on 1,2, h=2: 4 < 5",
     "engines disagree on 1,2, h=2: 4 vs 5"),
    # |h^A|, not |h^±A|: the oracle must confirm the formula's own kind
    ("verify:TA_Nathanson", "TA_Nathanson", 2, POS,
     "TA_Nathanson violated on 1,2, h=1: 2 < 3", "engines disagree on 1,2, h=1: 2 vs 3"),
])
def test_verify_bound_violation_raises_once_the_oracle_agrees(
    monkeypatch, mode, formula_id, k, family, violation, mismatch
):
    bound_one_above(monkeypatch, formula_id)
    config = ScanConfig(k, 4, family, parse_mode(mode))
    with pytest.raises(TheoremViolation) as exc:
        scan(config)
    assert str(exc.value) == f"[partition (1, 2)] {violation}"
    # the oracle checks the violating set before the scan raises
    monkeypatch.setattr(bounds, "sumset_naive", overcounting(sumset_naive))
    with pytest.raises(EngineMismatch) as exc:
        scan(config)
    assert str(exc.value) == f"[partition (1, 2)] {mismatch}"


@pytest.mark.parametrize("mode", ["conj:C2_1", "conj:C2_2"])
def test_conjecture_bound_counterexample_is_recorded(monkeypatch, mode):
    bound_one_above(monkeypatch, "C2_1")
    config = ScanConfig(4, 7, POS, parse_mode(mode))
    report = scan(config)
    # the record names the bound the conjecture rests on
    assert report.conjecture_counterexamples == ({
        "set": "1,3,5,7", "h": 3, "cardinality": 16, "bound": 17,
        "naive_cardinality": 16, "conjecture": "C2_1",
    },)
    assert list(report.csv_rows()) == [["counterexample", "1,3,5,7", 3, 16, 17, ""]]
    assert not report.clean
    monkeypatch.setattr(bounds, "sumset_naive", overcounting(sumset_naive))
    with pytest.raises(EngineMismatch, match="engines disagree on 1,3,5,7, h=3: 16 vs 17"):
        scan(config)


RECORD_KINDS = (  # a report's record kind, its CSV row type and its family field
    ("equalities", "equality", "family"),
    ("classification_failures", "classification_failure", "expected_family"),
    ("conjecture_counterexamples", "counterexample", None),
)


@pytest.mark.parametrize("mode, k, max_element, family, raised", [
    ("verify:T2_1", 5, 12, POS, None),   # direct: no family column
    ("verify:T2_4", 5, 14, POS, None),   # inverse: a family column
    ("conj:C3_1", 5, 13, ZERO, None),    # a None family and one failure
    ("conj:C2_1", 4, 7, POS, "C2_1"),    # a counterexample
])
def test_report_columns_agree_with_the_dict_view(monkeypatch, mode, k, max_element,
                                                 family, raised):
    # the report keeps its records as columns; its JSON and CSV must be what
    # the records' dicts give through the stdlib and the CSV row rule
    if raised:
        bound_one_above(monkeypatch, raised)
    report = scan(ScanConfig(k, max_element, family, parse_mode(mode)))
    view = {kind: list(getattr(report, kind)) for kind, _, _ in RECORD_KINDS}
    assert all(type(rec) is dict for records in view.values() for rec in records)
    assert any(view.values())
    if mode == "conj:C3_1":
        assert [rec["family"] for rec in view["equalities"]].count(None) == 1
        assert len(view["classification_failures"]) == 1
    if raised:
        assert len(view["conjecture_counterexamples"]) == 1
    content = {"config": report.config.to_json_dict(), "sets_scanned": report.sets_scanned,
               **view, "wall_time": report.wall_time}
    assert report.to_json() == json.dumps(content, indent=2, sort_keys=True) + "\n"
    del content["wall_time"], content["config"]["jobs"]
    assert report.fingerprint() == json.dumps(content, indent=2, sort_keys=True) + "\n"
    assert list(report.csv_rows()) == [
        [row_type, rec["set"], rec["h"], rec["cardinality"], rec["bound"],
         rec.get(field) or ""]
        for kind, row_type, field in RECORD_KINDS
        for rec in view[kind]
    ]


def test_partition_completeness_failure_raises(monkeypatch):
    monkeypatch.setattr(
        explorer, "count_normalized_sets",
        lambda k, m, family: count_normalized_sets(k, m, family) + 1,
    )
    with pytest.raises(TheoremViolation) as exc:
        scan(ScanConfig(2, 4, POS, parse_mode("verify:T2_1")))
    assert str(exc.value) == "partition completeness broken: scanned 5, closed form 6"


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
    # max=40 pins the exception ROADMAP item 5 cites: still the only failure
    for max_element, sets in ((13, 699), (40, 85_771)):
        report = scan(ScanConfig(5, max_element, ZERO, parse_mode("conj:C3_1")))
        assert report.sets_scanned == sets
        assert report.conjecture_counterexamples == ()
        assert len(report.classification_failures) == 1
        failure = report.classification_failures[0]
        assert failure["set"] == "0,1,2,4,6"
        assert failure["h"] == 4
        assert failure["cardinality"] == failure["bound"] == 21
        assert failure["naive_cardinality"] == 21  # oracle-confirmed
        assert not report.clean
        assert [r for r in report.csv_rows() if r[0] == "classification_failure"] == [
            ["classification_failure", "0,1,2,4,6", 4, 21, 21, "Interval0K"]
        ]


def test_inverse_conjecture_mode_equals_direct_mode():
    direct = scan(ScanConfig(5, 13, ZERO, parse_mode("conj:C3_1")))
    inverse = scan(ScanConfig(5, 13, ZERO, parse_mode("conj:C3_2")))
    assert direct.equalities == inverse.equalities
    assert direct.classification_failures == inverse.classification_failures


def test_scan_determinism_across_jobs(real_pool):
    for family, max_element, mode in (
        (POS, 13, "conj:C2_1"), (ZERO, 12, "verify:T3_3"),
    ):
        outputs = set()
        for jobs in (1, 2, 4):
            report = scan(ScanConfig(4, max_element, family, parse_mode(mode), jobs=jobs))
            outputs.add((report.fingerprint(), repr(list(report.csv_rows()))))
        assert len(outputs) == 1, mode
    # jobs 2 and 4 of both modes ran in a pool
    assert len(real_pool) == 4 and min(real_pool) >= 2


@pytest.mark.parametrize("k, max_element", [(2, 60), (5, 12)])
def test_record_heavy_scan_is_identical_in_a_real_pool(real_pool, k, max_element):
    # T2_1 records every set at h = 1; at k = 2 every block holds one set, so
    # the pool gets its blocks in chunks of many
    reports = [
        scan(ScanConfig(k, max_element, POS, parse_mode("verify:T2_1"), jobs=jobs))
        for jobs in (1, 2)
    ]
    assert real_pool == [2]
    assert len(reports[0].equalities) >= reports[0].sets_scanned
    assert reports[0].fingerprint() == reports[1].fingerprint()
    assert list(reports[0].csv_rows()) == list(reports[1].csv_rows())


@pytest.mark.parametrize("family, modes", [
    (POS, ("verify:T2_1", "conj:C2_1")),
    (ZERO, ("verify:T3_1", "conj:C3_1")),
])
def test_records_name_their_sets_canonically(family, modes):
    # a record's set is written from its parent's text; it must read as the
    # set's canonical form, including the k=1 sets and the k=2 contains-zero
    # space, where the parent is empty or the walk's root is a set
    for k in range(1, 6):
        sets = [a.canonical() for a in enumerate_normalized_sets(k, 10, family)]
        for mode in modes:
            try:
                report = scan(ScanConfig(k, 10, family, parse_mode(mode)))
            except NotApplicable:  # the conjectures start at k = 4 and 5
                continue
            records = (
                report.equalities + report.classification_failures
                + report.conjecture_counterexamples
            )
            for rec in records:
                text = rec["set"]
                assert FiniteIntSet(tuple(map(int, text.split(",")))).canonical() == text
                assert text in sets, (mode, k, text)
            if mode.startswith("verify"):  # h = 1 is an equality for every set
                assert [r["set"] for r in report.equalities if r["h"] == 1] == sets


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that maps in the calling
    process, so a test can see how many workers a scan asks for without
    starting them."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def usable_cpus(monkeypatch, cpus: int | None, machine: int = 8) -> None:
    """A machine of ``machine`` CPUs whose affinity mask allows ``cpus`` of
    them, or a platform with no affinity masks when ``cpus`` is None."""
    monkeypatch.setattr(os, "cpu_count", lambda: machine)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_scan_pool_is_capped_at_cpu_count(pool_at_any_size, monkeypatch):
    usable_cpus(monkeypatch, 2, machine=2)
    started = record_pools(monkeypatch, SerialPool)
    config = ScanConfig(4, 12, POS, parse_mode("conj:C2_1"), jobs=64)
    assert len(_validate(config)[1]) == 45
    wide = scan(config)
    assert started == [2]
    serial = scan(ScanConfig(4, 12, POS, parse_mode("conj:C2_1"), jobs=1))
    assert wide.fingerprint() == serial.fingerprint()


@pytest.mark.parametrize("cpus, workers", [(1, []), (3, [3]), (None, [8])])
def test_scan_pool_is_capped_at_the_usable_cpus(pool_at_any_size, monkeypatch, cpus, workers):
    # under ``taskset -c 0`` os.cpu_count() still counts the machine's CPUs;
    # the affinity mask is what the process may use
    usable_cpus(monkeypatch, cpus)
    started = record_pools(monkeypatch, SerialPool)
    scan(ScanConfig(4, 12, POS, parse_mode("conj:C2_1"), jobs=64))
    assert started == workers


@pytest.mark.parametrize("mode, k, max_element, family, workers", [
    # 77,553 set-folds, where a pool ran no faster, run in-process
    ("conj:C3_1", 6, 22, ZERO, []),
    # 21,555 set-folds, the scan-verify benchmark's space, run in-process
    ("verify:T2_1", 5, 16, POS, []),
    # 193,308 set-folds: one worker per 2^17 of them, plus one
    ("conj:C3_1", 6, 26, ZERO, [2]),
])
def test_scan_pool_is_sized_by_the_work(monkeypatch, mode, k, max_element, family, workers):
    usable_cpus(monkeypatch, 8)
    started = record_pools(monkeypatch, SerialPool)
    config = ScanConfig(k, max_element, family, parse_mode(mode), jobs=64)
    assert len(_validate(config)[1]) > 8
    scan(config)
    assert started == workers


def test_scan_pool_is_capped_at_the_blocks(pool_at_any_size, monkeypatch):
    usable_cpus(monkeypatch, 8)
    started = record_pools(monkeypatch, SerialPool)
    config = ScanConfig(4, 5, POS, parse_mode("verify:T2_1"), jobs=64)
    assert len(_validate(config)[1]) == 3
    scan(config)
    assert started == [3]


def test_small_scan_at_two_jobs_leaves_the_process_pool_unloaded():
    # the scan-verify benchmark's space is under 2^17 set-folds: it runs in
    # the calling process, which never imports multiprocessing
    child = (
        "import sys\n"
        "from sumsets import ScanConfig, SetFamily, parse_mode, scan\n"
        "report = scan(ScanConfig(5, 16, SetFamily.POSITIVE, parse_mode('verify:T2_1'), jobs=2))\n"
        "print(report.sets_scanned, [m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4311 []\n"


def test_import_leaves_the_process_pool_unloaded():
    # multiprocessing, pickle and sockets are loaded only by a scan that
    # runs a pool, not by every import of the package
    child = (
        "import sys, sumsets\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_explicit_h_values():
    report = scan(
        ScanConfig(5, 11, POS, parse_mode("conj:C2_1"), h_values=(3,))
    )
    assert {r["h"] for r in report.equalities} == {3}
    with pytest.raises(NotApplicable):
        scan(ScanConfig(5, 11, POS, parse_mode("conj:C2_1"), h_values=(2,)))
    with pytest.raises(NotApplicable):
        scan(ScanConfig(5, 11, POS, parse_mode("verify:T2_2"), h_values=(3,)))
    direct = parse_mode("verify:T2_1")
    with pytest.raises(NotApplicable, match=r"^fold\(s\) \[0, 7\] invalid for verify:T2_1 at k=5$"):
        scan(ScanConfig(5, 10, POS, direct, h_values=[0, 2, 7]))
    # more than k folds, all in 1..k, are scanned as their distinct folds
    assert scan(ScanConfig(5, 10, POS, direct, h_values=[3] * 50)).sets_scanned == 251


@pytest.mark.parametrize("folds, name", [
    (iter([3]), "list_iterator"), ((h for h in [3]), "generator"), ({3}, "set"),
])
def test_explicit_h_values_must_be_a_sequence(folds, name):
    # the folds are read more than once: a one-shot iterator, spent by its
    # first reading, was refused as the empty fold list "fold(s) ()"
    config = ScanConfig(5, 11, POS, parse_mode("conj:C2_1"), h_values=folds)
    for run in (scan, ScanConfig.to_json_dict):
        with pytest.raises(NotApplicable, match=rf"^explicit folds must be a sequence, got {name}$"):
            run(config)
    assert list(folds) == [3]  # refused before it is read


@pytest.mark.parametrize("mode, folds, bad", [
    ("conj:C2_1", "3", "'3'"), ("conj:C2_1", [3.0], "3.0"), ("conj:C2_1", (3.5,), "3.5"),
    ("conj:C2_1", [None], "None"), ("conj:C2_1", [3, "4"], "'4'"),
    ("conj:C2_1", [3] * 7 + ["4"], "'4'"),  # more folds than k
    # a bool is an int, and scanned as 1 it wrote "h": [true]
    ("verify:T2_1", [True], "True"),
])
def test_explicit_folds_must_be_ints(mode, folds, bad):
    # a str is a sequence of strs, and sorting or comparing a non-int fold
    # raised a raw TypeError
    config = ScanConfig(6, 14, POS, parse_mode(mode), h_values=folds)
    for run in (scan, ScanConfig.to_json_dict):
        with pytest.raises(NotApplicable) as refused:
            run(config)
        assert str(refused.value) == f"fold {bad} invalid for {mode}: not an int"
    # a bool is refused as a fold before it is checked against the target's
    with pytest.raises(NotApplicable, match=r"^fold True invalid for conj:C2_1: not an int$"):
        scan(ScanConfig(6, 14, POS, parse_mode("conj:C2_1"), h_values=[True, 3]))


@pytest.mark.parametrize("field, value", [
    ("max_element", 5.0), ("k", "5"), ("k", None), ("k", True), ("jobs", True), ("jobs", 2.5),
])
def test_scan_config_fields_must_be_ints(field, value):
    # a float, a str or None met its first comparison as a raw TypeError, and
    # a bool k or a bool or float jobs scanned and was written to the report
    fields = {"k": 3, "max_element": 5, "jobs": 1, field: value}
    with pytest.raises(NotApplicable, match=rf"^scan {field} must be an int, got {value!r}$"):
        ScanConfig(family=POS, mode=parse_mode("verify:T2_1"), **fields)


def test_explicit_fold_range_refused_before_listing_it():
    # ten billion folds, listed as a set, would exhaust a 400 MB address
    # space (MemoryError, exit 1); on timeout subprocess.run kills the child
    child = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.core import SetFamily
        from sumsets.errors import NotApplicable
        from sumsets.explorer import ScanConfig, parse_mode, scan
        for start in (0, 1):
            config = ScanConfig(5, 10, SetFamily.POSITIVE, parse_mode("verify:T2_1"),
                                h_values=range(start, 10**10))
            for run in (scan, ScanConfig.to_json_dict):
                try:
                    run(config)
                except NotApplicable as exc:
                    print(exc)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"fold {h} invalid for verify:T2_1 at k=5" for h in (0, 0, 6, 6)
    ]


def test_explicit_h_values_are_sorted_and_distinct():
    # a repeated fold is scanned once, and the order of the folds given
    # changes neither the records nor the fingerprint
    conj = parse_mode("conj:C2_1")
    once = scan(ScanConfig(5, 11, POS, conj, h_values=(3,)))
    twice = scan(ScanConfig(5, 11, POS, conj, h_values=(3, 3)))
    assert len(twice.equalities) == len(once.equalities) == 1
    assert twice.fingerprint() == once.fingerprint()
    assert twice.config.to_json_dict()["h"] == [3]
    forward, backward = (
        scan(ScanConfig(5, 11, POS, conj, h_values=folds)) for folds in ((3, 4), (4, 3))
    )
    assert backward.fingerprint() == forward.fingerprint()
    assert backward.config.to_json_dict()["h"] == [3, 4]
    # a fixed-fold mode takes its fold given twice
    verify = parse_mode("verify:T2_2")
    assert (scan(ScanConfig(4, 9, POS, verify, h_values=(2, 2))).fingerprint()
            == scan(ScanConfig(4, 9, POS, verify)).fingerprint())


def test_report_json_round_trip_and_csv():
    report = scan(ScanConfig(4, 12, POS, parse_mode("verify:T2_4")))
    text = report.to_json()
    assert canonical_json(json.loads(text)) == text
    payload = json.loads(text)
    assert payload["sets_scanned"] == report.sets_scanned
    assert payload["config"]["mode"] == "verify:T2_4"
    rows = list(report.csv_rows())
    assert rows[0][0] == "equality"
    assert len(rows[0]) == len(CSV_HEADER)


def test_zero_family_enumeration_contains_zero():
    for a in enumerate_normalized_sets(3, 6, ZERO):
        assert a.elements[0] == 0
        assert make_set(list(a)).k == 3
