"""The benchmark's workloads: inputs made from a seed, one measured unit of
work, and the check of its output against the recorded references.

* ``scan-conj`` -- ``scan`` for conjecture C2_1, k=6, positive sets up to 14
  (2,996 sets, folds 3..5), jobs=1, plus serializing the report.  Nearly all
  of its time is the restricted-signed layered kernel and building
  ``SumsetResult`` objects; the oracle runs three times.
* ``scan-verify`` -- ``scan`` re-proving T2_1, k=5, positive sets up to 16
  (4,311 sets), jobs=2, with the report serialized to JSON and CSV.  Every
  set runs all five folds, and 4,313 equality records cross the process
  pool and get merged and serialized.
* ``oracle-mix`` -- a closed loop with one caller over 300 seeded sets that
  runs both engines on every fold and kind, and audits, classifies and
  certifies every nonnegative set.  The naive oracle and the layered kernel
  on wide bitmasks dominate it.

A scan repetition is one op.  An oracle-mix pass runs every op once.  The
scans are small enough that a run repeats each one dozens of times.
"""
from __future__ import annotations

import csv
import hashlib
import io
import random
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns

from sumsets import (
    ScanConfig,
    SetFamily,
    SumsetKind,
    audit,
    classify_extremal,
    count_normalized_sets,
    make_set,
    parse_mode,
    s_family,
    scan,
    t_family,
    verify_family,
)
from sumsets.explorer import CSV_HEADER

# --seed picks one of this many input mixes, each with a recorded digest
MIX_INPUTS = 64


@dataclass
class Outcome:
    """One measured unit: a scan repetition or an oracle-mix pass."""

    latencies: list[int]   # ns, one per op
    failed: int            # ops that failed their own checks
    wall: float            # seconds
    sets: int
    digest: str            # sha256 of the output the references pin
    report_bytes: int = 0
    records: int = 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"benchmark: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass(frozen=True)
class ScanInputs:
    config: ScanConfig
    expected_sets: int


@dataclass(frozen=True)
class ScanWorkload:
    name: str
    mode: str
    k: int
    max_element: int
    jobs: int
    with_csv: bool

    @property
    def key(self) -> str:
        """Identifies the scan a recorded reference belongs to."""
        return f"{self.mode} k={self.k} max={self.max_element} positive"

    def inputs(self, seed: int) -> ScanInputs:
        # scans are exhaustive: the seed does not change them
        config = ScanConfig(
            self.k, self.max_element, SetFamily.POSITIVE, parse_mode(self.mode),
            jobs=self.jobs,
        )
        return ScanInputs(config, count_normalized_sets(self.k, self.max_element, SetFamily.POSITIVE))

    def serialize(self, report) -> int:
        text = report.to_json()
        if self.with_csv:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(CSV_HEADER)
            writer.writerows(report.csv_rows())
            text += buf.getvalue()
        return len(text)

    def run(self, inputs: ScanInputs, probe, jobs: int | None = None) -> Outcome:
        config = inputs.config if jobs is None else replace(inputs.config, jobs=jobs)
        probe.group += 1
        probe.tick()
        start = perf_counter_ns()
        try:
            report = probe.call("explorer.scan", scan, config)
            size = probe.call("explorer.report", self.serialize, report)
        except Exception:
            _report_failure(f"{self.name} scan")
            return Outcome([perf_counter_ns() - start], 1, (perf_counter_ns() - start) * 1e-9, 0, "")
        latency = perf_counter_ns() - start
        records = (
            len(report.equalities) + len(report.classification_failures)
            + len(report.conjecture_counterexamples)
        )
        return Outcome(
            [latency], 0, latency * 1e-9, report.sets_scanned,
            _sha256(report.fingerprint()), size, records,
        )

    def failures(self, out: Outcome, inputs: ScanInputs, references: dict) -> int:
        ref = references.get("scans", {}).get(self.name, {})
        matches = (
            ref.get("key") == self.key
            and out.digest == ref.get("fingerprint_sha256")
            and out.sets == ref.get("sets_scanned") == inputs.expected_sets
        )
        return len(out.latencies) if not matches else out.failed


@dataclass(frozen=True)
class MixInputs:
    mix: int
    sets: tuple
    ops: tuple = field(repr=False)


def _sample(rng: random.Random, family: str, k: int, hi: int) -> list[int]:
    if family == "any":
        return rng.sample(range(-hi, hi + 1), k)
    if family == "positive":
        return rng.sample(range(1, hi + 1), k)
    return [0] + rng.sample(range(1, hi + 1), k - 1)


def _engines(probe, a, h, kind, cards, membership) -> bool:
    fast = probe.layered(a, h, kind)
    slow = probe.naive(a, h, kind)
    cards.append(fast.cardinality)
    if kind is SumsetKind.RESTRICTED_SIGNED:
        membership[h] = fast.values
    return fast.values == slow.values


def _audit(probe, a, h, kind, cards, membership) -> bool:
    report = probe.call("bounds.audit", audit, a, h)
    cards += (report.cardinality, report.restricted_cardinality)
    return True


def _classify(probe, a, h, kind, cards, membership) -> bool:
    cards.append(probe.call("inverse.classify", classify_extremal, a, h).cardinality)
    return True


def _certify(a, h, members):
    zero = a.elements[0] == 0
    return [
        verify_family(s_family(a, h), members),
        verify_family(t_family(a, h, zero_in_a=zero), members),
    ]


def _witness(probe, a, h, kind, cards, membership) -> bool:
    checks = probe.call("witness.verify", _certify, a, h, membership[h])
    cards.extend(check.distinct for check in checks)
    return all(check.ok for check in checks)


@dataclass(frozen=True)
class MixWorkload:
    name: str
    n_sets: int
    jobs: int = 1

    def inputs(self, seed: int) -> MixInputs:
        """Families rotate any / positive / contains-zero and k runs 1..8.
        Every fifth set is wide, its magnitude spread log-uniformly over
        10^3..10^5.  Every other wide set is a dilation d*A of a narrow
        set, which a gcd-normalizing kernel could shrink; the others are
        generic sets with k cycling 1..5."""
        mix = seed % MIX_INPUTS
        rng = random.Random(mix)
        wide_sets = self.n_sets // 5
        sets = []
        for i in range(self.n_sets):
            family = ("any", "positive", "zero")[i % 3]
            k = 1 + i % 8
            if i % 5 != 4:
                elements = _sample(rng, family, k, 40)
            else:
                j = i // 5
                magnitude = round(10 ** (3 + 2 * (j + rng.random()) / wide_sets))
                if j % 2:
                    # a generic 8-set this wide has ~10^5 distinct signed
                    # sums, and one layered call on it takes seconds
                    elements = _sample(rng, family, 1 + j // 2 % 5, magnitude)
                else:
                    base = _sample(rng, family, k, 40)
                    d = max(1, magnitude // max(1, max(map(abs, base))))
                    elements = [d * x for x in base]
            sets.append(make_set(elements))
        ops = []
        for a in sets:
            for h in range(1, a.k + 1):
                ops.extend((_engines, a, h, kind) for kind in SumsetKind)
                if a.elements[0] >= 0:
                    ops.extend((op, a, h, None) for op in (_audit, _classify, _witness))
        return MixInputs(mix, tuple(sets), tuple(ops))

    def run(self, inputs: MixInputs, probe, jobs: int | None = None) -> Outcome:
        latencies: list[int] = []
        cards: list[int] = []
        membership: dict[int, tuple[int, ...]] = {}
        failed = 0
        start = perf_counter()
        for i, (op, a, h, kind) in enumerate(inputs.ops):
            probe.group = i
            if i % 256 == 0:
                probe.tick()
            t0 = perf_counter_ns()
            try:
                ok = op(probe, a, h, kind, cards, membership)
            except Exception:
                if not failed:
                    _report_failure(f"{op.__name__[1:]} on {a} h={h}")
                ok = False
            latencies.append(perf_counter_ns() - t0)
            failed += not ok
        wall = perf_counter() - start
        return Outcome(
            latencies, failed, wall, len(inputs.sets),
            _sha256(",".join(map(str, cards))),
        )

    def failures(self, out: Outcome, inputs: MixInputs, references: dict) -> int:
        ref = references.get("oracle-mix", {})
        matches = (
            ref.get("n_sets") == self.n_sets
            and out.digest == ref.get("digests", {}).get(str(inputs.mix))
        )
        return len(out.latencies) if not matches else out.failed


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan-conj", "conj:C2_1", 6, 14, jobs=1, with_csv=False),
        ScanWorkload("scan-verify", "verify:T2_1", 5, 16, jobs=2, with_csv=True),
        MixWorkload("oracle-mix", 300),
    )
}
