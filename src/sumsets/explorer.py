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

``scan`` resolves its plan once: the check every reported set goes
through, the kind the walk folds, and the bound and limit at each scanned
fold.  Each partition gets the plan with its prefix block.  The scan sizes
its pool from its own work before it starts one: min(jobs, usable CPUs,
blocks, 1 + set_folds // POOLED_SET_FOLDS) workers, where set_folds is the
completeness count of sets times the scanned folds and the usable CPUs are
those the process's affinity mask allows.  POOLED_SET_FOLDS = 2^16 lies
inside the serial-vs-pool crossover that conjecture scans showed on a
2-vCPU host (BENCH_14.json): below it a pool's start-up and the records it
ships back cost more than the work it shares.  At one worker the blocks run in the
calling process and ``multiprocessing`` is never imported.  Otherwise
the blocks go to a process pool in about four chunks per worker, so the
pool makes a few round trips per scan, not one per block, and the results
come back in block order.

A partition is a depth-first walk over a tree whose nodes add one larger
element to their parent's; a node copies its parent's DP layers and folds
its element in with ``kernel.advance``.  A node one element short of its
sets is their parent, and the walk stops there: the leaf step
``kernel.leaf_cards`` reads |h^A| for every set A = P + {x} and scanned fold
h straight from the parent's layers, and reports only the cards at or
below the fold's limit, the only ones a check acts on: the bound, or none
for an inverse check, since a family member above it breaks the converse.
A record names its set by the parent's canonical text, built once per
parent that has a record, plus ``str(x)``.  The checks read a set's
element tuple: ``match_family`` compares it with the family's shape.  A
``FiniteIntSet`` is built only for the oracle, in ``_confirm``: a bound
violation, every conjecture equality, and an inverse classification
failure.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd, inf
from typing import Callable, Iterable, Iterator, Sequence

from .core import FiniteIntSet, SetFamily, SumsetKind, canonical_json
from .errors import (
    EmptySpace, EngineMismatch, KernelOverflow, NotApplicable, TheoremViolation,
)
# classify_extremal and sumset_layered stay bound here for bench/tracing.py,
# which wraps them
from .inverse import THEOREMS, InverseTheorem, classify_extremal, match_family
from .kernel import (
    _require_layered_budget, advance, leaf_cards, sumset_layered, sumset_naive,
)
from .bounds import FORMULAS, BoundFormula


@dataclass(frozen=True)
class ScanMode:
    action: str   # "verify" | "conj"
    target: str   # formula / theorem / conjecture id

    def __str__(self) -> str:
        return f"{self.action}:{self.target}"


def parse_mode(text: str) -> ScanMode:
    """``verify:<id>`` takes a proven inverse theorem or a theorem-backed
    bound; ``conj:<id>`` takes a conjectured row of the theorem table."""
    action, _, target = text.partition(":")
    _, formula = _target(target)
    if formula is not None:
        if action == ("verify" if formula.theorem_backed else "conj"):
            return ScanMode(action, target)
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
    for parent, _, xs in _walk(k, max_element, family, prefix):
        for x in xs:
            yield FiniteIntSet(parent + (x,))


def _walk(
    k: int, max_element: int, family: SetFamily, prefix: tuple[int, ...] = (),
    depth: int = 0, kind: SumsetKind = SumsetKind.RESTRICTED_SIGNED,
) -> Iterator[tuple[tuple[int, ...], list[int], Sequence[int]]]:
    """The sets of ``enumerate_normalized_sets`` grouped by their parent, the
    set less its last element: yields each parent's elements, its DP layers
    0..depth of the kind in the frame m = max_element, and the last elements
    of its sets in order."""
    nonzero_size, base = _space_shape(k, max_element, family)
    elements = base + prefix
    room = nonzero_size - len(prefix)
    layers = [1] + [0] * depth
    if not room:  # the root is a set: a full prefix, or the zero family's {0}
        advance(layers, elements[:-1], max_element, kind)
        if gcd(*prefix) < 2:  # gcd 1, or gcd() == 0 over no nonzero element
            yield elements[:-1], layers, elements[-1:]
        return
    advance(layers, elements, max_element, kind)  # the zero family's 0, the prefix
    # Depth first over an explicit stack, not a generator per element, so a
    # deep walk cannot reach the interpreter's recursion limit.  An entry is
    # a node still to visit: its parent's elements, layers and gcd, how many
    # elements the node still lacks, and the element it adds.
    parent, g, left, stack = elements, gcd(*prefix), room, []
    while True:
        xs = range(parent[-1] + 1 if parent else 1, max_element - left + 2)
        if left == 1:
            yield parent, layers, xs if g == 1 else [x for x in xs if gcd(g, x) == 1]
        else:
            stack.extend((parent, layers, g, left - 1, x) for x in reversed(xs))
        if not stack:
            return
        parent, layers, g, left, x = stack.pop()
        layers = layers.copy()
        if depth:
            advance(layers, (x,), max_element, kind)
        parent, g = parent + (x,), gcd(g, x)


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


def count_normalized_sets(k: int, max_element: int, family: SetFamily) -> int:
    """Closed-form size of the scan space, by exact gcd: C(max // d, n)
    choices of n nonzero elements are multiples of d, and those whose gcd
    is exactly d are the ones whose gcd is no larger multiple of d.  A scan
    sizes its pool by it and checks its partitions' completeness with it."""
    nonzero_size, _ = _space_shape(k, max_element, family)
    if nonzero_size == 0:
        return 1
    exact = [0] * (max_element + 1)
    for d in range(max_element, 0, -1):
        exact[d] = comb(max_element // d, nonzero_size) - sum(exact[2 * d::d])
    return exact[1]


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


# A scan lists its prefix blocks, with one partial result each, and its
# completeness count holds max_element + 1 entries; max_element is at most
# the block count plus k.  A space of more blocks is refused before either.
MAX_SCAN_BLOCKS = 2**18


def _block_shape(config: ScanConfig) -> tuple[int, int]:
    """The length of a scan's prefix blocks and the largest element in one."""
    nonzero_size, _ = _space_shape(config.k, config.max_element, config.family)
    plen = min(2, nonzero_size)
    return plen, config.max_element - (nonzero_size - plen)


@dataclass(frozen=True)
class _ScanPlan:
    """What every partition of one scan shares, resolved once by
    ``_validate``: the scan, the check its sets go through, the kind its
    walk folds, and at each scanned fold the bound and the limit, the
    largest cardinality the leaf step reports to the check."""
    config: ScanConfig
    check: Callable[..., None]
    kind: SumsetKind
    bounds: tuple[tuple[int, int], ...]
    limits: tuple[tuple[int, int | float], ...]


def _validate(config: ScanConfig) -> _ScanPlan:
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
    plen, top = _block_shape(config)
    # the walk sizes every mask by max_element, not by each set's max|a|, and
    # holds one layer list per tree level below a prefix block, plus one
    _require_layered_budget(max(h_values), config.max_element, config.max_element - top + 1)
    blocks = comb(top, plen)
    if blocks > MAX_SCAN_BLOCKS:
        raise KernelOverflow(
            f"scan space splits into {blocks} prefix blocks, over 2^18; lower --max"
        )
    if mode.action == "conj":
        check = _check_conjecture
    else:
        check = _check_direct if row is None else _check_inverse
    bounds = tuple((h, formula.value(k, h)) for h in h_values)
    # a family member above its bound breaks the converse: no limit
    limits = tuple((h, inf if check is _check_inverse else b) for h, b in bounds)
    return _ScanPlan(config, check, formula.kind, bounds, limits)


def _partitions(config: ScanConfig) -> list[tuple[int, ...]]:
    """Prefix blocks over the first (up to two) nonzero elements."""
    plen, top = _block_shape(config)
    # combinations() would hold the whole range even when plen is 0
    return list(combinations(range(1, top + 1), plen)) if plen else [()]


def _scan_partition(args: tuple[_ScanPlan, tuple[int, ...]]) -> dict:
    """Worker: scan one prefix block. Returns plain lists for cheap merging."""
    plan, prefix = args
    config, check, kind = plan.config, plan.check, plan.kind
    k, m, target = config.k, config.max_element, config.mode.target
    out = {"scanned": 0, "equalities": [], "failures": [], "counterexamples": []}
    bound_at = dict(plan.bounds)
    try:
        for parent, layers, xs in _walk(k, m, config.family, prefix, max(bound_at), kind):
            out["scanned"] += len(xs)
            head = None  # the parent's canonical text and a comma, once it is needed
            for x, h, card in leaf_cards(layers, xs, m, kind, plan.limits):
                if head is None:
                    head = "".join(f"{a}," for a in parent)
                check(target, head + str(x), parent + (x,), h, card, bound_at[h], out)
    except (TheoremViolation, EngineMismatch) as exc:
        raise type(exc)(f"[partition {prefix}] {exc}") from None
    return out


def _confirm(a: FiniteIntSet, h: int, kind: SumsetKind, card: int) -> int:
    """The oracle's cardinality, which must equal the layered ``card``."""
    naive = sumset_naive(a, h, kind).cardinality
    if naive != card:
        raise EngineMismatch(f"engines disagree on {a}, h={h}: {card} vs {naive}")
    return naive


def _record(text: str, h: int, card: int, bound: int, **extra) -> dict:
    """A report record; ``text`` is the set's canonical form."""
    return {"set": text, "h": h, "cardinality": card, "bound": bound, **extra}


def _check_direct(
    target: str, text: str, elements: tuple[int, ...], h: int, card: int,
    bound: int, out: dict,
) -> None:
    if card < bound:
        _confirm(FiniteIntSet(elements), h, FORMULAS[target].kind, card)
        raise TheoremViolation(f"{target} violated on {text}, h={h}: {card} < {bound}")
    if card == bound:
        out["equalities"].append(_record(text, h, card, bound))


def _check_inverse(
    target: str, text: str, elements: tuple[int, ...], h: int, card: int,
    bound: int, out: dict,
) -> None:
    if card < bound:
        _confirm(FiniteIntSet(elements), h, SumsetKind.RESTRICTED_SIGNED, card)
        raise TheoremViolation(f"{target} bound violated on {text}: {card} < {bound}")
    expected = THEOREMS[target].extremal_at(len(elements))
    family = expected.value if match_family(elements, expected) is not None else None
    if (card == bound) != (family is not None):
        _confirm(FiniteIntSet(elements), h, SumsetKind.RESTRICTED_SIGNED, card)
        raise TheoremViolation(
            f"{target} classification failed on {text}: equality={card == bound} "
            f"but family match={family!r} (cardinality {card}, "
            f"bound {bound}, both engines agree)"
        )
    if family is not None:
        out["equalities"].append(_record(text, h, card, bound, family=family))


def _check_conjecture(
    target: str, text: str, elements: tuple[int, ...], h: int, card: int,
    bound: int, out: dict,
) -> None:
    row = THEOREMS[target]
    if card < bound:
        naive = _confirm(FiniteIntSet(elements), h, SumsetKind.RESTRICTED_SIGNED, card)
        out["counterexamples"].append(
            _record(text, h, card, bound, naive_cardinality=naive, conjecture=row.bound)
        )
    elif card == bound:
        expected = row.extremal_at(len(elements))
        matched = match_family(elements, expected) is not None
        naive = _confirm(FiniteIntSet(elements), h, SumsetKind.RESTRICTED_SIGNED, card)
        out["equalities"].append(
            _record(text, h, card, bound, family=expected.value if matched else None)
        )
        if not matched:
            out["failures"].append(
                _record(
                    text, h, card, bound,
                    naive_cardinality=naive, expected_family=expected.value,
                )
            )


def _merge(partials: Iterable[dict]) -> dict:
    """The partition results joined in partition order, which is enumeration
    order; each result is dropped once it is merged."""
    merged = {"scanned": 0, "equalities": [], "failures": [], "counterexamples": []}
    for p in partials:
        merged["scanned"] += p["scanned"]
        for key in ("equalities", "failures", "counterexamples"):
            merged[key].extend(p[key])
    return merged


# Sets times folds per pool worker.  On a 2-vCPU host (BENCH_14.json), a
# 2-worker pool against the calling process took 1.9x as long at 23,940
# set-folds and 0.92x at 115,647 for conj:C2_1 k=6, and 1.26x at 25,308 and
# 0.75x at 77,553 for conj:C3_1 k=6: starting the workers and shipping the
# records back cost tens of thousands of set-folds.
POOLED_SET_FOLDS = 2**16


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, which ``taskset`` or a container can make smaller
    than the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan(config: ScanConfig) -> ScanReport:
    """Run a full scan; see the module docstring for mode semantics."""
    start = time.perf_counter()
    plan = _validate(config)
    expected = count_normalized_sets(config.k, config.max_element, config.family)
    parts = _partitions(config)
    args = [(plan, p) for p in parts]
    work = 1 + expected * len(plan.bounds) // POOLED_SET_FOLDS
    workers = min(max(1, config.jobs), _usable_cpus(), len(parts), work)
    if workers == 1:
        merged = _merge(map(_scan_partition, args))
    else:
        # imported here: the pool pulls in multiprocessing, pickle and
        # sockets, which a serial scan or a plain ``import sumsets`` never uses
        from concurrent.futures import ProcessPoolExecutor

        # about four chunks per worker: few round trips, and a slow chunk
        # still leaves the others work to share; map keeps the blocks' order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            merged = _merge(pool.map(
                _scan_partition, args, chunksize=max(1, len(args) // (4 * workers))
            ))

    scanned = merged["scanned"]
    if scanned != expected:
        raise TheoremViolation(
            f"partition completeness broken: scanned {scanned}, closed form "
            f"{expected}"
        )
    return ScanReport(
        config=config,
        sets_scanned=scanned,
        equalities=tuple(merged["equalities"]),
        classification_failures=tuple(merged["failures"]),
        conjecture_counterexamples=tuple(merged["counterexamples"]),
        wall_time=time.perf_counter() - start,
    )
