import dataclasses
import json
import os
import subprocess
import sys
from itertools import combinations, product
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from conftest import bound_one_above, overcounting, record_pools
from sumsets.core import FiniteIntSet, SetFamily, SumsetKind, canonical_json, make_set
from sumsets.errors import EmptySpace, EngineMismatch, NotApplicable, TheoremViolation
from sumsets import bounds, explorer, kernel
from sumsets.bounds import FORMULAS, audit
from sumsets.inverse import THEOREMS
from sumsets.witness import FamilyName
from sumsets.kernel import advance, leaf_cards, sumset_layered, sumset_naive
from sumsets.explorer import (
    CSV_HEADER,
    ScanConfig,
    _completions,
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
@pytest.mark.parametrize("max_element", [4, 9, 13, 36])
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
    # the leaf step on a parent's layers gives every fold of each of its
    # sets, whatever prefix the walk began from (at k=3 positive a prefix is
    # already a parent, at k=2 contains-zero a root is already a set), and
    # the blocks tile the enumeration in order
    for k in range(1, 6):
        config = ScanConfig(k, 9, family, parse_mode("verify:T2_1"))
        walked = []
        # with no bound in reach, the walk keeps every fold and the leaf
        # step reports every fold
        folds = range(1, k + 1)
        limits = [(h, 10**9) for h in folds]
        for p in _partitions(config):
            for parent, layers, xs, rows, sets in _walk(k, 9, family, p, kind, limits):
                assert rows == limits and sets == len(xs)
                cards = []
                for x, h in product(xs, folds):
                    a = FiniteIntSet(parent + (x,))
                    leaf = layers.copy()
                    advance(leaf, (x,), 9, kind)
                    card = leaf[h].bit_count()
                    assert card == sumset_layered(a, h, kind).cardinality, (a, h)
                    assert card == sumset_naive(a, h, kind).cardinality, (a, h)
                    cards.append((x, h, card))
                if kind.bounded_fold:  # the leaf step takes the kinds a scan walks
                    assert list(leaf_cards(layers, xs, 9, kind, limits)) == cards
                walked += [FiniteIntSet(parent + (x,)) for x in xs]
        assert walked == list(enumerate_normalized_sets(k, 9, family))


def test_completions_count_the_gcd_one_sets_below_a_node():
    # a skipped subtree's sets are counted by Moebius over the divisors of
    # the node's gcd g; scans almost never skip a node with g > 1, so each g
    # up to 12 is held against the sets themselves (g = 0: no nonzero element)
    for g, max_element, left in product(range(13), range(1, 21), range(1, 5)):
        for p in range(max_element + 1):
            sets = combinations(range(p + 1, max_element + 1), left)
            brute = sum(gcd(g, *x) == 1 for x in sets)
            assert _completions(g, p, max_element, left) == brute, (g, p, max_element, left)


def _spied_scan(config: ScanConfig) -> tuple[str, int, list]:
    """A scan's fingerprint, its ``advance`` calls and the (set, h) pairs
    its oracle confirms."""
    with mock.patch.object(explorer, "advance", wraps=explorer.advance) as spy, \
            mock.patch.object(explorer, "confirm", wraps=explorer.confirm) as confirms:
        report = scan(config)
    confirmed = [(call.args[0].canonical(), call.args[1]) for call in confirms.call_args_list]
    return report.fingerprint(), spy.call_count, confirmed


@pytest.mark.parametrize("mode, k, max_element, family, skips", [
    ("conj:C2_1", 6, 14, POS, True),   # scan-conj: 744 advance calls against 1,992
    ("conj:C2_1", 7, 12, POS, True),
    ("conj:C2_1", 7, 14, POS, True),
    ("conj:C2_1", 8, 13, POS, True),
    ("conj:C2_1", 8, 14, POS, True),   # 2,481 advance calls against 3,424
    ("conj:C3_1", 8, 13, ZERO, True),
    ("verify:T2_1", 5, 12, POS, False),   # fold 1 never dies
    ("verify:TA_Nathanson", 6, 12, POS, False),   # the restricted kind
    ("verify:T2_4", 6, 14, POS, False),   # an inverse limit is infinite
])
def test_pruned_walk_reports_what_the_full_walk_does(
    monkeypatch, mode, k, max_element, family, skips,
):
    config = ScanConfig(k, max_element, family, parse_mode(mode))
    pruned, pruned_calls, pruned_confirms = _spied_scan(config)

    def keep_every_fold(layers, left, bounds):
        return list(bounds)

    def keep_every_child(layers, xs, m, kind, bounds):
        return list(xs)

    monkeypatch.setattr(kernel, "live_folds", keep_every_fold)  # the leaf step's
    monkeypatch.setattr(explorer, "live_folds", keep_every_fold)  # the walk's
    monkeypatch.setattr(explorer, "live_children", keep_every_child)  # the leaf parents'
    full, full_calls, full_confirms = _spied_scan(config)
    assert pruned == full
    assert pruned_confirms == full_confirms
    assert (pruned_calls < full_calls) == skips, (pruned_calls, full_calls)


@pytest.mark.parametrize("mode, k, max_element, family, levels", [
    ("conj:C2_1", 6, 14, POS, {1}),   # scan-conj: a leaf parent can lose every fold
    ("conj:C2_1", 8, 14, POS, {1, 2, 3}),
    ("verify:T2_1", 5, 16, POS, set()),   # scan-verify: fold 1 never dies
    ("verify:T2_4", 6, 14, POS, set()),   # an inverse limit is infinite
    # the restricted kind has at most C(n, j) values in layer j, not
    # C(n, j) * 2^j, so no level passes every fold's limit
    ("verify:TA_Nathanson", 5, 12, POS, set()),
    ("verify:TA_Nathanson", 6, 12, ZERO, set()),
    ("verify:TA_Nathanson", 7, 14, POS, set()),
])
def test_check_levels_mark_where_every_fold_could_die(mode, k, max_element, family, levels):
    plan = explorer._validate(ScanConfig(k, max_element, family, parse_mode(mode)))
    assert plan.checks == levels


def test_scans_walk_only_bounded_fold_kinds():
    assert all(formula.kind.bounded_fold for formula in FORMULAS.values())


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
    assert len(_partitions(config)) == 45
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
    assert len(_partitions(config)) > 8
    scan(config)
    assert started == workers


def test_scan_pool_is_capped_at_the_blocks(pool_at_any_size, monkeypatch):
    usable_cpus(monkeypatch, 8)
    started = record_pools(monkeypatch, SerialPool)
    config = ScanConfig(4, 5, POS, parse_mode("verify:T2_1"), jobs=64)
    assert len(_partitions(config)) == 3
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
