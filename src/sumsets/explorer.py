"""Exhaustive scans over gcd-normalized integer sets.

Two modes:

* ``verify`` re-proves a theorem by brute force on a bounded space: the
  bound must hold for every set, and for inverse theorems equality must
  hold exactly on the predicted extremal family.  Any failure aborts with
  the offending set -- it can only be an implementation bug.
* ``conjecture`` hunts for counterexamples: bound violations and equality
  sets outside the conjectured extremal family are recorded, never raised.
  Every would-be counterexample is recomputed with the naive oracle first;
  nothing enters a report unless both engines agree on its cardinality.

Scanning only gcd-normalized sets loses nothing: sumsets commute with
dilation, so every dilation class is represented by its d = 1 member.
Scans are partitioned by the first elements of each set and the partition
results are merged in enumeration order, so reports are identical at every
parallelism level.

A partition is a depth-first walk over a tree whose nodes add one larger
element to their parent's; a node copies its parent's DP layers and folds
its element in with ``kernel.advance``.  At a leaf layer h is the h-fold
sumset, so one walk gives every fold and ``layers[h].bit_count()`` is |h^A|.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd
from typing import Iterator

from .core import FiniteIntSet, SetFamily, SumsetKind, canonical_json
from .errors import EmptySpace, EngineMismatch, NotApplicable, TheoremViolation
from .inverse import THEOREMS, InverseTheorem, classify_extremal, match_family
# sumset_layered stays bound here for bench/tracing.py, which wraps it
from .kernel import _require_layered_budget, advance, sumset_layered, sumset_naive
from .bounds import FORMULAS, BoundFormula


@dataclass(frozen=True)
class ScanMode:
    action: str   # "verify" | "conjecture"
    target: str   # formula / theorem / conjecture id

    def __str__(self) -> str:
        prefix = "verify" if self.action == "verify" else "conj"
        return f"{prefix}:{self.target}"


def parse_mode(text: str) -> ScanMode:
    """``verify:<id>`` takes a proven inverse theorem or a theorem-backed
    bound; ``conj:<id>`` takes a conjectured row of the theorem table."""
    action, _, target = text.partition(":")
    _, formula = _target(target)
    if formula is not None:
        if action == "verify" and formula.theorem_backed:
            return ScanMode("verify", target)
        if action in ("conj", "conjecture") and not formula.theorem_backed:
            return ScanMode("conjecture", target)
    raise NotApplicable(f"unknown scan mode {text!r}")


def _target(target: str) -> tuple[InverseTheorem | None, BoundFormula | None]:
    """A scan target's theorem-table row (None for a direct bound such as
    T2_1) and its bound formula (None for an unknown id)."""
    row = THEOREMS.get(target)
    return row, FORMULAS.get(row.bound if row else target)


@dataclass(frozen=True)
class ScanConfig:
    k: int
    max_element: int
    family: SetFamily
    mode: ScanMode
    h_values: tuple[int, ...] | None = None   # None: derived from the mode
    jobs: int = 1

    def to_json_dict(self) -> dict:
        return {
            "mode": str(self.mode),
            "k": self.k,
            "h": list(resolve_h_values(self)),
            "family": self.family.value,
            "max_element": self.max_element,
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    sets_scanned: int
    equalities: tuple[dict, ...]
    classification_failures: tuple[dict, ...]
    conjecture_counterexamples: tuple[dict, ...]
    wall_time: float = field(compare=False)

    @property
    def clean(self) -> bool:
        return not self.classification_failures and not self.conjecture_counterexamples

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "sets_scanned": self.sets_scanned,
            "equalities": list(self.equalities),
            "classification_failures": list(self.classification_failures),
            "conjecture_counterexamples": list(self.conjecture_counterexamples),
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    def fingerprint(self) -> str:
        """Report content excluding wall time and the job count; equal
        across parallelism levels."""
        d = self.to_json_dict()
        del d["wall_time"]
        del d["config"]["jobs"]
        return canonical_json(d)

    def csv_rows(self) -> list[list[object]]:
        rows: list[list[object]] = []
        for rec in self.equalities:
            rows.append(
                ["equality", rec["set"], rec["h"], rec["cardinality"], rec["bound"], rec.get("family") or ""]
            )
        for rec in self.classification_failures:
            rows.append(
                ["classification_failure", rec["set"], rec["h"], rec["cardinality"], rec["bound"], rec.get("expected_family") or ""]
            )
        for rec in self.conjecture_counterexamples:
            rows.append(
                ["counterexample", rec["set"], rec["h"], rec["cardinality"], rec["bound"], ""]
            )
        return rows


CSV_HEADER = ["type", "set", "h", "cardinality", "bound", "family"]


def enumerate_normalized_sets(
    k: int, max_element: int, family: SetFamily, prefix: tuple[int, ...] = ()
) -> Iterator[FiniteIntSet]:
    """All normalized k-sets in lexicographic order, or those whose nonzero
    part starts with ``prefix``.

    Positive family: k-subsets of [1, max_element] with gcd 1.  Zero
    family: {0} plus a (k-1)-subset of [1, max_element] whose gcd is 1.
    """
    yield from (a for a, _ in _walk(k, max_element, family, prefix))


def _walk(
    k: int, max_element: int, family: SetFamily, prefix: tuple[int, ...] = (),
    depth: int = 0, kind: SumsetKind = SumsetKind.RESTRICTED_SIGNED,
) -> Iterator[tuple[FiniteIntSet, list[int]]]:
    """The sets of ``enumerate_normalized_sets``, each with its DP layers
    0..depth of the kind in the frame m = max_element."""
    nonzero_size, base = _space_shape(k, max_element, family)
    root = [1] + [0] * depth
    advance(root, base + prefix, max_element, kind)  # the zero family's 0, the prefix

    def grow(nonzero: tuple[int, ...], layers: list[int], g: int):
        room = nonzero_size - len(nonzero)
        if not room:  # only at the root: a full prefix, or the zero family's {0}
            if g < 2:  # gcd 1, or gcd() == 0 over no nonzero element
                yield FiniteIntSet(base + nonzero), layers
            return
        for x in range(nonzero[-1] + 1 if nonzero else 1, max_element - room + 2):
            child = layers.copy()
            if depth:
                advance(child, (x,), max_element, kind)
            if room > 1:
                yield from grow(nonzero + (x,), child, gcd(g, x))
            elif gcd(g, x) == 1:  # a parent yields its leaves: one generator level less
                yield FiniteIntSet(base + nonzero + (x,)), child

    return grow(prefix, root, gcd(*prefix))


def _space_shape(
    k: int, max_element: int, family: SetFamily
) -> tuple[int, tuple[int, ...]]:
    if k < 1:
        raise EmptySpace(f"need k >= 1, got k={k}")
    if family is SetFamily.CONTAINS_ZERO:
        nonzero_size, base = k - 1, (0,)
    elif family is SetFamily.POSITIVE:
        nonzero_size, base = k, ()
    else:
        raise NotApplicable("scans enumerate positive or contains-zero spaces")
    if max_element < nonzero_size:
        raise EmptySpace(
            f"no {k}-sets in [{'0' if base else '1'}, {max_element}]"
        )
    return nonzero_size, base


def _mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    primes = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def count_normalized_sets(k: int, max_element: int, family: SetFamily) -> int:
    """Closed-form size of the scan space, via Moebius inversion over the
    gcd; used as the partition-completeness cross-check."""
    nonzero_size, _ = _space_shape(k, max_element, family)
    if nonzero_size == 0:
        return 1
    mu = _mobius_upto(max_element)
    return sum(
        mu[d] * comb(max_element // d, nonzero_size)
        for d in range(1, max_element + 1)
        if mu[d] != 0
    )


def resolve_h_values(config: ScanConfig) -> tuple[int, ...]:
    """The folds a scan will run, either explicit or the mode's default."""
    row, formula = _target(config.mode.target)
    if row is not None and row.fold != "interior":
        forced = row.folds(config.k)
        if config.h_values is not None and tuple(config.h_values) != forced:
            raise NotApplicable(
                f"{row.id} fixes h = {forced[0]}, got {config.h_values}"
            )
        return forced
    if config.h_values is not None:
        return tuple(config.h_values)
    return formula.folds(config.k)


def _validate(config: ScanConfig) -> tuple[int, ...]:
    mode = config.mode
    k = config.k
    _space_shape(k, config.max_element, config.family)
    row, formula = _target(mode.target)
    if formula.family is not SetFamily.ANY and formula.family is not config.family:
        raise NotApplicable(f"{mode.target} applies to {formula.family.value} sets")
    if row is not None and not row.covers_k(k):
        raise NotApplicable(f"{mode.target} needs {row.k_range()}")
    h_values = resolve_h_values(config)
    bad = [h for h in h_values if not formula.validity(k, h)]
    if bad or not h_values:
        raise NotApplicable(
            f"fold(s) {bad or h_values} invalid for {mode} at k={k}"
        )
    # the walk sizes every mask by max_element, not by each set's max|a|
    _require_layered_budget(max(h_values), config.max_element)
    return h_values


def _partitions(config: ScanConfig) -> list[tuple[int, ...]]:
    """Prefix blocks over the first (up to two) nonzero elements."""
    nonzero_size, _ = _space_shape(config.k, config.max_element, config.family)
    plen = min(2, nonzero_size)
    if plen == 0:
        return [()]
    room = nonzero_size - plen
    return [
        p
        for p in combinations(range(1, config.max_element + 1), plen)
        if config.max_element - p[-1] >= room
    ]


def _scan_partition(args: tuple[ScanConfig, tuple[int, ...], tuple[int, ...]]) -> dict:
    """Worker: scan one prefix block. Returns plain lists for cheap merging."""
    config, h_values, prefix = args
    target = config.mode.target
    if config.mode.action == "conjecture":
        check, kind, depth = _check_conjecture, SumsetKind.RESTRICTED_SIGNED, max(h_values)
    elif target in THEOREMS:
        # classify_extremal computes its own cardinality: walk without a DP
        check, kind, depth = _check_inverse, SumsetKind.RESTRICTED_SIGNED, 0
    else:
        check, kind, depth = _check_direct, FORMULAS[target].kind, max(h_values)
    out = {"scanned": 0, "equalities": [], "failures": [], "counterexamples": []}
    try:
        for a, layers in _walk(
            config.k, config.max_element, config.family, prefix, depth, kind
        ):
            out["scanned"] += 1
            for h in h_values:
                check(target, a, h, layers[h].bit_count() if depth else None, out)
    except (TheoremViolation, EngineMismatch) as exc:
        raise type(exc)(f"[partition {prefix}] {exc}") from None
    return out


def _confirm(a: FiniteIntSet, h: int, kind: SumsetKind, card: int) -> int:
    """The oracle's cardinality, which must equal the layered ``card``."""
    naive = sumset_naive(a, h, kind).cardinality
    if naive != card:
        raise EngineMismatch(f"engines disagree on {a}, h={h}: {card} vs {naive}")
    return naive


def _record(a: FiniteIntSet, h: int, card: int, bound: int, **extra) -> dict:
    return {"set": a.canonical(), "h": h, "cardinality": card, "bound": bound, **extra}


def _check_direct(target: str, a: FiniteIntSet, h: int, card: int, out: dict) -> None:
    formula = FORMULAS[target]
    bound = formula.value(a.k, h)
    if card < bound:
        _confirm(a, h, formula.kind, card)
        raise TheoremViolation(
            f"{formula.id} violated on {a}, h={h}: {card} < {bound}"
        )
    if card == bound:
        out["equalities"].append(_record(a, h, card, bound))


def _check_inverse(target: str, a: FiniteIntSet, h: int, card: None, out: dict) -> None:
    cls = classify_extremal(a, h)
    if cls.cardinality < cls.bound:
        _confirm(a, h, SumsetKind.RESTRICTED_SIGNED, cls.cardinality)
        raise TheoremViolation(
            f"{target} bound violated on {a}: {cls.cardinality} < {cls.bound}"
        )
    if cls.equality != cls.matched:
        _confirm(a, h, SumsetKind.RESTRICTED_SIGNED, cls.cardinality)
        raise TheoremViolation(
            f"{target} classification failed on {a}: equality={cls.equality} "
            f"but family match={cls.family!r} (cardinality {cls.cardinality}, "
            f"bound {cls.bound}, both engines agree)"
        )
    if cls.equality:
        out["equalities"].append(
            _record(a, h, cls.cardinality, cls.bound, family=cls.family)
        )


def _check_conjecture(target: str, a: FiniteIntSet, h: int, card: int, out: dict) -> None:
    row = THEOREMS[target]
    formula = FORMULAS[row.bound]
    bound = formula.value(a.k, h)
    if card < bound:
        naive = _confirm(a, h, SumsetKind.RESTRICTED_SIGNED, card)
        out["counterexamples"].append(
            _record(a, h, card, bound, naive_cardinality=naive, conjecture=formula.id)
        )
    elif card == bound:
        expected = row.extremal_at(a.k)
        matched = match_family(a, expected) is not None
        naive = _confirm(a, h, SumsetKind.RESTRICTED_SIGNED, card)
        out["equalities"].append(
            _record(a, h, card, bound, family=expected.value if matched else None)
        )
        if not matched:
            out["failures"].append(
                _record(
                    a, h, card, bound,
                    naive_cardinality=naive, expected_family=expected.value,
                )
            )


def scan(config: ScanConfig) -> ScanReport:
    """Run a full scan; see the module docstring for mode semantics."""
    start = time.perf_counter()
    h_values = _validate(config)
    parts = _partitions(config)
    args = [(config, h_values, p) for p in parts]
    workers = min(max(1, config.jobs), len(parts), os.cpu_count() or 1)
    if workers == 1:
        partials = [_scan_partition(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_partition, args, chunksize=1))

    scanned = sum(p["scanned"] for p in partials)
    expected = count_normalized_sets(config.k, config.max_element, config.family)
    if scanned != expected:
        raise TheoremViolation(
            f"partition completeness broken: scanned {scanned}, closed form "
            f"{expected}"
        )
    merged = {"equalities": [], "failures": [], "counterexamples": []}
    for p in partials:  # partition order == enumeration order
        merged["equalities"].extend(p["equalities"])
        merged["failures"].extend(p["failures"])
        merged["counterexamples"].extend(p["counterexamples"])
    return ScanReport(
        config=config,
        sets_scanned=scanned,
        equalities=tuple(merged["equalities"]),
        classification_failures=tuple(merged["failures"]),
        conjecture_counterexamples=tuple(merged["counterexamples"]),
        wall_time=time.perf_counter() - start,
    )
