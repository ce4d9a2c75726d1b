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
through, the kind the walk folds, the bound formula, the expected extremal
family, and the bound and limit at each scanned fold.  Each partition gets
the plan with its prefix block.  The scan sizes its pool from its own work
before it starts one: min(jobs, usable CPUs, blocks, 1 + set_folds //
POOLED_SET_FOLDS) workers, where set_folds is the completeness count of
sets times the scanned folds and the usable CPUs are those the process's
affinity mask allows.  POOLED_SET_FOLDS = 2^17 is where the pruned
walk's serial-vs-pool crossover lay for conjecture scans on a 2-vCPU host
(BENCH_17.json): below it a pool's start-up and the records it ships back
cost as much as the work it shares or more.  At one worker the blocks run in the
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
parent that has a record, plus ``str(x)``.

The walk prunes folds that can report nothing more.  Every set A below a
node that still lacks ``left`` elements has |h^A| >= |L_{h-j}| of the
node's layers for j = 0..min(left, h), so a fold whose window of layers
already holds one above the fold's limit is dead below the node
(``kernel.live_folds``).  The leaf step drops dead folds at every parent.
Higher up the walk carries the live folds down to the children, and a
node with none left is not walked below: its sets are counted as the
gcd-1 completions, by Moebius over the divisors d of the gcd g of its
nonzero elements, sum mu(d) * C(max // d - p // d, left) for its largest
element p.  A node two elements short of its sets tests its children,
the leaf parents, from its own layers before it builds any
(``kernel.live_children``), and builds only those with a live fold; the
others' sets are its completions less the live children's.  These counts
do not share the exact-gcd count of ``count_normalized_sets``, so the
completeness check still compares two derivations.  A check costs a bit
count per layer of each window, so ``_validate`` lists once per scan the
levels, by elements still lacking, where every fold could die, by |L_j|
<= min(C(n, j) * 2^j, 2j * max + 1) at a node of n elements (a 0
counted; no 2^j for the restricted kind), and the walk checks only
there; level 1, where a leaf parent could lose every fold, turns the
leaf-parent test on.  The list only decides where the walk looks; it
never changes a result.  An inverse check has no limit, so its walk
never prunes.

Two checks act on the reported cards.  ``_check_verify`` serves every
``verify`` mode: a direct theorem is an inverse theorem that names no
family.  ``_check_conjecture`` serves every ``conj`` mode.  Both read a
set's element tuple, and ``match_family`` compares it with the plan's
family.  A ``FiniteIntSet`` is built only for the oracle, in
``bounds.confirm``: a verify bound violation or classification failure,
and every card a conjecture check sees.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd, inf
from typing import Callable, Container, Iterable, Iterator, Sequence

from .core import FiniteIntSet, SetFamily, SumsetKind, canonical_json
from .errors import (
    EmptySpace, EngineMismatch, KernelOverflow, NotApplicable, TheoremViolation,
)
# classify_extremal, sumset_layered and sumset_naive stay bound here for
# bench/tracing.py, which wraps them; the scan's oracle calls go through
# bounds.confirm
from .inverse import THEOREMS, InverseTheorem, classify_extremal, match_family
from .kernel import (
    _require_layered_budget, advance, leaf_cards, live_children, live_folds, sumset_layered,
    sumset_naive,
)
from .bounds import FORMULAS, BoundFormula, confirm
from .witness import FamilyName


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

    def csv_rows(self) -> Iterator[list[object]]:
        """The rows under ``CSV_HEADER``, one per record, made as they are read."""
        for records, row_type, family_field in (
            (self.equalities, "equality", "family"),
            (self.classification_failures, "classification_failure", "expected_family"),
            (self.conjecture_counterexamples, "counterexample", None),  # no family
        ):
            for rec in records:
                yield [
                    row_type, rec["set"], rec["h"], rec["cardinality"], rec["bound"],
                    rec.get(family_field) or "",
                ]


CSV_HEADER = ["type", "set", "h", "cardinality", "bound", "family"]


def enumerate_normalized_sets(
    k: int, max_element: int, family: SetFamily, prefix: tuple[int, ...] = ()
) -> Iterator[FiniteIntSet]:
    """All normalized k-sets in lexicographic order, or those whose nonzero
    part starts with ``prefix``.

    Positive family: k-subsets of [1, max_element] with gcd 1.  Zero
    family: {0} plus a (k-1)-subset of [1, max_element] whose gcd is 1.
    """
    for parent, _, xs, _, _ in _walk(k, max_element, family, prefix):
        for x in xs:
            yield FiniteIntSet(parent + (x,))


def _walk(
    k: int, max_element: int, family: SetFamily, prefix: tuple[int, ...] = (),
    kind: SumsetKind = SumsetKind.RESTRICTED_SIGNED,
    limits: Sequence[tuple[int, int | float]] = (), checks: Container[int] = (),
) -> Iterator[tuple[
    tuple[int, ...], list[int], Sequence[int], Sequence[tuple[int, int | float]], int
]]:
    """The sets of ``enumerate_normalized_sets`` grouped by where the walk
    stops.  At a parent, the set less its last element, it yields the
    parent's elements, its DP layers 0..max h of ``limits`` of the kind in
    the frame m = max_element, the last elements of its sets in order, the
    (h, limit) rows of ``limits`` still live there, and how many sets it
    stands for.  A node that lacks ``left`` elements, for ``left`` in
    ``checks``, keeps only the rows ``live_folds`` finds live and hands them
    down to its children; with none left, its subtree is not walked.  With
    1 in ``checks``, a node that lacks two elements builds only the
    children ``live_children`` finds live.  The sets of the nodes not
    walked are counted, and the count is yielded alone, with no elements,
    last elements or rows, when the walk ends."""
    nonzero_size, base = _space_shape(k, max_element, family)
    elements = base + prefix
    room = nonzero_size - len(prefix)
    depth = max((h for h, _ in limits), default=0)
    layers = [1] + [0] * depth
    if not room:  # the root is a set: a full prefix, or the zero family's {0}
        advance(layers, elements[:-1], max_element, kind)
        if gcd(*prefix) < 2:  # gcd 1, or gcd() == 0 over no nonzero element
            yield elements[:-1], layers, elements[-1:], limits, 1
        return
    advance(layers, elements, max_element, kind)  # the zero family's 0, the prefix
    # Depth first over an explicit stack, not a generator per element, so a
    # deep walk cannot reach the interpreter's recursion limit.  An entry is
    # a node still to visit: its parent's elements, layers, gcd and live
    # rows, how many elements the node still lacks, and the element it adds.
    parent, g, rows, left, stack = elements, gcd(*prefix), limits, room, []
    skipped = 0  # the sets of the nodes not walked
    while True:
        low = parent[-1] + 1 if parent else 1
        xs = range(low, max_element - left + 2)
        if left == 1:
            if g != 1:
                xs = [x for x in xs if gcd(g, x) == 1]
            yield parent, layers, xs, rows, len(xs)
        elif left in checks and not (rows := live_folds(layers, left, rows)):
            skipped += _completions(g, low - 1, max_element, left)
        else:
            if left == 2 and 1 in checks:
                # only the leaf parents with a live row are built; the sets
                # of the others are counted
                live = live_children(layers, xs, max_element, kind, rows)
                skipped += _completions(g, low - 1, max_element, 2) - sum(
                    _completions(gcd(g, x), x, max_element, 1) for x in live
                )
                xs = live
            stack.extend((parent, layers, g, rows, left - 1, x) for x in reversed(xs))
        if not stack:
            if skipped:
                yield (), layers, (), (), skipped
            return
        parent, layers, g, rows, left, x = stack.pop()
        layers = layers.copy()
        if depth:
            advance(layers, (x,), max_element, kind)
        parent, g = parent + (x,), gcd(g, x)


def _completions(g: int, p: int, max_element: int, left: int) -> int:
    """How many sets X of ``left`` >= 1 elements of [p + 1, max_element]
    have gcd(g, *X) = 1: by Moebius inversion over the divisors d of g, the
    sum of mu(d) * C(max_element // d - p // d, left), where the binomial
    counts the sets X of multiples of d.  Every d divides g = 0, and those
    above max_element have no multiple in range."""
    if g == 1:  # nearly every skipped node; 1 is its one divisor
        return comb(max_element - p, left)
    n = g or max_element
    mu = [0, 1] + [0] * (n - 1)  # mu(1) = 1, and mu sums to 0 over the divisors of d > 1
    for d in range(1, n // 2 + 1):
        for e in range(2 * d, n + 1, d):
            mu[e] -= mu[d]
    return sum(
        mu[d] * comb(max_element // d - p // d, left) for d in range(1, n + 1) if g % d == 0
    )


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
    """The folds a scan will run in increasing order: the explicit ones, each
    once, or the mode's default."""
    row, formula = _target(config.mode.target)
    explicit = None if config.h_values is None else tuple(sorted(set(config.h_values)))
    if row is not None and row.fold != "interior":
        forced = row.folds(config.k)
        if explicit not in (None, forced):
            raise NotApplicable(
                f"{row.id} fixes h = {forced[0]}, got {config.h_values}"
            )
        return forced
    return formula.folds(config.k) if explicit is None else explicit


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
    walk folds and its oracle confirms, the bound formula's id, the
    extremal family the target expects (None for a direct bound), at
    each scanned fold the bound and the limit, the largest cardinality the
    leaf step reports to the check, and the walk levels, by elements still
    lacking, where a node can lose every fold (``_check_levels``)."""
    config: ScanConfig
    check: Callable[..., None]
    kind: SumsetKind
    formula: str
    family: FamilyName | None
    bounds: tuple[tuple[int, int], ...]
    limits: tuple[tuple[int, int | float], ...]
    checks: frozenset[int]


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
    check = _check_conjecture if mode.action == "conj" else _check_verify
    family = None if row is None else row.extremal_at(k)
    bounds = tuple((h, formula.value(k, h)) for h in h_values)
    # a family member above its bound breaks an inverse theorem: no limit
    inverse = check is _check_verify and family is not None
    limits = tuple((h, inf if inverse else b) for h, b in bounds)
    checks = _check_levels(k, config.max_element, limits, formula.kind)
    return _ScanPlan(config, check, formula.kind, formula.id, family, bounds, limits, checks)


def _check_levels(
    k: int, max_element: int, limits: Sequence[tuple[int, int | float]], kind: SumsetKind,
) -> frozenset[int]:
    """The numbers of missing elements, 1..k-1, at which a walk node could
    have no live fold, so that ``live_folds`` is worth its cost there; at 1,
    a leaf parent could, so that ``live_children`` is worth its cost at the
    nodes above them.  A node of n elements (a 0 counted) has |L_j| <=
    min(C(n, j) * 2^j, 2j * max_element + 1), without the 2^j for a kind
    with no signs, and a level qualifies only if that bound lets every
    fold's window pass its limit.  The levels only decide where the walk
    looks: a level left out costs speed, never a result."""
    depth = max(h for h, _ in limits)
    signs = 2 if kind.symmetric else 1
    levels = set()
    for left in range(1, k):
        n = k - left
        most = [min(comb(n, j) * signs**j, 2 * j * max_element + 1) for j in range(depth + 1)]
        if all(max(most[max(0, h - left):h + 1]) > limit for h, limit in limits):
            levels.add(left)
    return frozenset(levels)


def _partitions(config: ScanConfig) -> list[tuple[int, ...]]:
    """Prefix blocks over the first (up to two) nonzero elements."""
    plen, top = _block_shape(config)
    # combinations() would hold the whole range even when plen is 0
    return list(combinations(range(1, top + 1), plen)) if plen else [()]


def _scan_partition(args: tuple[_ScanPlan, tuple[int, ...]]) -> dict:
    """Worker: scan one prefix block. Returns plain lists for cheap merging."""
    plan, prefix = args
    config, check, kind = plan.config, plan.check, plan.kind
    k, m = config.k, config.max_element
    out = {"scanned": 0, "equalities": [], "failures": [], "counterexamples": []}
    bound_at = dict(plan.bounds)
    walk = _walk(k, m, config.family, prefix, kind, plan.limits, plan.checks)
    try:
        for parent, layers, xs, rows, sets in walk:
            out["scanned"] += sets
            head = None  # the parent's canonical text and a comma, once it is needed
            for x, h, card in leaf_cards(layers, xs, m, kind, rows):
                if head is None:
                    head = "".join(f"{a}," for a in parent)
                check(plan, head + str(x), parent + (x,), h, card, bound_at[h], out)
    except (TheoremViolation, EngineMismatch) as exc:
        raise type(exc)(f"[partition {prefix}] {exc}") from None
    return out


def _record(text: str, h: int, card: int, bound: int, **extra) -> dict:
    """A report record; ``text`` is the set's canonical form."""
    return {"set": text, "h": h, "cardinality": card, "bound": bound, **extra}


def _check_verify(
    plan: _ScanPlan, text: str, elements: tuple[int, ...], h: int, card: int,
    bound: int, out: dict,
) -> None:
    if card < bound:
        confirm(FiniteIntSet(elements), h, plan.kind, card)
        raise TheoremViolation(
            f"{plan.config.mode.target} violated on {text}, h={h}: {card} < {bound}"
        )
    if plan.family is None:  # a direct bound, whose limit lets only equality here
        out["equalities"].append(_record(text, h, card, bound))
        return
    family = plan.family.value if match_family(elements, plan.family) is not None else None
    if (card == bound) != (family is not None):
        confirm(FiniteIntSet(elements), h, plan.kind, card)
        raise TheoremViolation(
            f"{plan.config.mode.target} classification failed on {text}: "
            f"equality={card == bound} but family match={family!r} "
            f"(cardinality {card}, bound {bound}, both engines agree)"
        )
    if family is not None:
        out["equalities"].append(_record(text, h, card, bound, family=family))


def _check_conjecture(
    plan: _ScanPlan, text: str, elements: tuple[int, ...], h: int, card: int,
    bound: int, out: dict,
) -> None:
    # the limit is the bound: every card here is a counterexample or an equality
    naive = confirm(FiniteIntSet(elements), h, plan.kind, card)
    if card < bound:
        out["counterexamples"].append(
            _record(text, h, card, bound, naive_cardinality=naive, conjecture=plan.formula)
        )
        return
    expected = plan.family.value
    matched = match_family(elements, plan.family) is not None
    out["equalities"].append(
        _record(text, h, card, bound, family=expected if matched else None)
    )
    if not matched:
        out["failures"].append(
            _record(text, h, card, bound, naive_cardinality=naive, expected_family=expected)
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


# Sets times folds per pool worker.  On a 2-vCPU host (BENCH_17.json,
# medians of 31 runs over 3 rounds), a 2-worker pool against the calling
# process took 0.99x as long at 77,553 set-folds and 0.98x at 124,968 for
# conj:C3_1 k=6, and 1.16x at 76,230 and 1.09x at 129,255 for the
# record-heavy verify:T2_1 k=5, but 0.80x at 193,308 (C3_1); conj:C2_1 k=6
# took 0.85x at 115,647 and 0.65x at 222,432.  Since the walk prunes dead
# folds, starting the workers and shipping the records back cost about
# 10^5 set-folds.
POOLED_SET_FOLDS = 2**17


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
