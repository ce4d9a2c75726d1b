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

``_validate`` lays out a scan's space and lists its prefix blocks once,
and resolves its plan: the space's base and size, the kind the walk
folds, the bound formula, the expected extremal family, and the bound
and limit at each scanned fold.  A worker gets the plan with a run of
prefix blocks, which it walks in order.  The scan sizes its pool from
its own work before it starts one: min(jobs, usable CPUs, blocks, 1 +
set_folds // POOLED_SET_FOLDS) workers, where set_folds is the
completeness count of sets times the scanned folds and the usable CPUs
are those the process's affinity mask allows; below POOLED_SET_FOLDS a
pool's start-up and the records it ships back cost as much as the work
it shares or more.  At one worker all blocks are one run in the calling
process and ``multiprocessing`` is never imported.  Otherwise the blocks
go to a process pool in about four runs per worker, so the pool makes a
few round trips per scan, not one per block, and the runs' results come
back in block order.

A partition is a depth-first walk over a tree whose nodes add one larger
element to their parent's.  A node holds its DP layers stacked in one int
of a ``kernel.Frame`` (m = max_element, depth = the largest scanned
fold): ``kernel.fold`` makes it from its parent's int with a few shifts,
and the parent's int is left as it was, so no node copies anything.  The
worker, ``_scan_blocks``, walks each block with its own stack and stops
at each node P three elements short of its sets, counting them once; it
folds each next element z into P's int in a loop, with no stack entry per
z.  For each Q = P + {z} the leaf step ``kernel.leaf_cards`` reads |h^A|
for every set A = Q + {y, x} and scanned fold h from Q's int, and reports
only the cards at or below the fold's limit, the only ones a check acts
on: the bound, or none for an inverse check, since a family member above
it breaks the converse.  A record names its set by Q's canonical text and
a comma, built once per Q with a record, y's once per y, and ``str(x)``.
A root that lacks two elements or fewer takes the same leaf step once,
before the walk, with no z: as Q, as Q + {y} or as Q + {y, x}.
Records are kept as columns, one list per field of each record kind
(``_FIELDS``), from the check that appends them through a worker's
result, the merge and the ``ScanReport``, whose ``records`` hold them as
``core.Table``s.  ``canonical_json`` writes a table straight from its
columns, and ``csv_rows`` zips them into rows; no dict is built per
record unless a caller reads ``equalities``, ``classification_failures``
or ``conjecture_counterexamples``.

The walk prunes folds that can report nothing more.  Every set A below a
node that still lacks ``left`` elements has |h^A| >= |L_{h-j}| of the
node's layers for j = 0..min(left, h), so a fold whose window of layers
already holds one above the fold's limit is dead below the node
(``kernel.live_folds``).  The leaf step drops the dead folds of each
Q + {y} from its layers h and h - 1 (``kernel.live_rows``) and reads no x
of a y with none left.  Higher up the walk carries the live folds down,
and a node with none left is not walked below; the z loop drops the dead
folds of each P + {z} the same way and skips a z with none left.  The
sets of a node not walked, and of a stop, every z included, are counted
as the gcd-1 completions, by Moebius over the divisors d of the gcd g of
its nonzero elements, sum mu(d) * C(max // d - p // d, left) for its
largest element p, from one table of mu per run of blocks.  These counts
do not share the exact-gcd count of ``count_normalized_sets``, so the
completeness check still compares two derivations.  A check costs a bit
count per layer of each window, so ``_validate`` lists once per scan the
levels 2..k-1, by elements still lacking, where every fold could die, by
|L_j| <= min(C(n, j) * 2^j, 2j * max + 1) at a node of n elements (a 0
counted; no 2^j for the restricted kind), and the walk checks only
there.  The list only decides
where the walk looks; it never changes a result.  An inverse check has
no limit, so its walk never prunes.

One check, ``_check``, acts on the reported cards in every mode, the cards
of one Q per call: a direct theorem is an inverse theorem that names no
family.  It tests each card against the bound and, at or above it, the
set against the plan's family with ``match_family``.  The mode decides
only whether a failure is raised or recorded, and whether the cards that
pass are confirmed too.  A ``FiniteIntSet`` is built only for the oracle,
in ``bounds.confirm``: a verify failure, and every card a conj scan sees.
"""
from __future__ import annotations

import os
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import combinations, islice, repeat
from math import comb, gcd, inf

from .core import FiniteIntSet, SetFamily, SumsetKind, Table, canonical_json
from .errors import (
    EmptySpace, EngineMismatch, KernelOverflow, NotApplicable, TheoremViolation,
)
# classify_extremal, sumset_layered and sumset_naive stay bound here for
# bench/tracing.py, which wraps them; the scan's oracle calls go through
# bounds.confirm
from .inverse import THEOREMS, InverseTheorem, classify_extremal, match_family
from .kernel import (
    Frame, _require_layered_budget, fold, leaf_cards, live_folds, sumset_layered,
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
    h_values: Sequence[int] | None = None   # None: derived from the mode
    jobs: int = 1

    def __post_init__(self) -> None:
        # before any comparison, where a float or a str fails as a raw
        # TypeError; a bool is an int, and would be written as true
        for name in ("k", "max_element", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise NotApplicable(f"scan {name} must be an int, got {value!r}")

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
    """A scan's outcome.  ``records`` maps each record kind of the JSON
    report, ``equalities``, ``classification_failures`` and
    ``conjecture_counterexamples``, to its records as a ``Table`` of
    columns; the properties of the same names build their dicts."""
    config: ScanConfig
    sets_scanned: int
    records: dict[str, Table]
    wall_time: float = field(compare=False)

    @property
    def equalities(self) -> tuple[dict, ...]:
        return self.records["equalities"].dicts()

    @property
    def classification_failures(self) -> tuple[dict, ...]:
        return self.records["classification_failures"].dicts()

    @property
    def conjecture_counterexamples(self) -> tuple[dict, ...]:
        return self.records["conjecture_counterexamples"].dicts()

    @property
    def clean(self) -> bool:
        return not (
            self.records["classification_failures"]
            or self.records["conjecture_counterexamples"]
        )

    def _json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "sets_scanned": self.sets_scanned,
            **self.records,
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return canonical_json(self._json_dict())

    def fingerprint(self) -> str:
        """Report content excluding wall time and the job count; equal
        across parallelism levels."""
        d = self._json_dict()
        del d["wall_time"]
        del d["config"]["jobs"]
        return canonical_json(d)

    def csv_rows(self) -> Iterator[list[object]]:
        """The rows under ``CSV_HEADER``, one per record, made from the
        columns as they are read."""
        for kind, row_type, family in _CSV_ROWS:
            table = self.records[kind]
            if family in table.keys:
                families = [name or "" for name in table.column(family)]
            else:
                families = repeat("")
            yield from map(list, zip(
                repeat(row_type), *map(table.column, _RECORD), families
            ))


CSV_HEADER = ["type", "set", "h", "cardinality", "bound", "family"]
# each record kind's CSV row type and the column its family cell is read from
_CSV_ROWS = (
    ("equalities", "equality", "family"),
    ("classification_failures", "classification_failure", "expected_family"),
    ("conjecture_counterexamples", "counterexample", None),  # no family
)
# the fields of each record kind, in the order of its columns; a direct
# bound's equalities have no family
_RECORD = ("set", "h", "cardinality", "bound")
_FIELDS = {
    "equalities": (*_RECORD, "family"),
    "classification_failures": (*_RECORD, "naive_cardinality", "expected_family"),
    "conjecture_counterexamples": (*_RECORD, "naive_cardinality", "conjecture"),
}


def enumerate_normalized_sets(
    k: int, max_element: int, family: SetFamily
) -> Iterator[FiniteIntSet]:
    """All normalized k-sets in lexicographic order.

    Positive family: k-subsets of [1, max_element] with gcd 1.  Zero
    family: {0} plus a (k-1)-subset of [1, max_element] whose gcd is 1.
    The sets are listed by ``combinations`` and filtered by gcd, with no
    DP: the second derivation of the space, which the sets a scan worker
    hands its check, and its Moebius counts, are tested against.
    """
    size, base = _space_shape(k, max_element, family)
    # combinations() would hold the whole range even when size is 0
    for rest in combinations(range(1, max_element + 1) if size else (), size):
        if gcd(*rest) < 2:  # gcd 1, or gcd() == 0 for {0}
            yield FiniteIntSet(base + rest)


def _mobius(n: int) -> list[int]:
    """mu(d) for d = 0..n, with mu(0) = 0."""
    mu = [0, 1] + [0] * (n - 1)  # mu(1) = 1, and mu sums to 0 over the divisors of d > 1
    for d in range(1, n // 2 + 1):
        mu[2 * d::d] = [e - mu[d] for e in mu[2 * d::d]]
    return mu


def _completions(g: int, p: int, max_element: int, left: int, mu: Sequence[int]) -> int:
    """How many sets X of ``left`` elements of [p + 1, max_element]
    have gcd(g, *X) = 1: by Moebius inversion over the divisors d of g, the
    sum of mu(d) * C(max_element // d - p // d, left), where the binomial
    counts the sets X of multiples of d.  Every d divides g = 0, and those
    above max_element have no multiple in range.  ``mu`` is ``_mobius`` of
    max_element."""
    if g == 1:  # nearly every node, and every root set; 1 is its one divisor
        return comb(max_element - p, left)
    return sum(
        mu[d] * comb(max_element // d - p // d, left)
        for d in range(1, min(g or max_element, max_element) + 1) if g % d == 0
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
    once, or the mode's default, the folds of its theorem-table row or, for
    a direct bound, of its formula.  A row of one fixed fold takes no other."""
    row, formula = _target(config.mode.target)
    if config.h_values is None:
        return (row or formula).folds(config.k)
    # the folds are read more than once, here and by to_json_dict, so a
    # one-shot iterator would be spent by the first reading
    if not isinstance(config.h_values, Sequence):
        raise NotApplicable(
            f"explicit folds must be a sequence, got {type(config.h_values).__name__}"
        )
    # a fold that is not an int, or is a bool, is refused before it is
    # compared; more folds than 1..k holds are refused at the first outside
    # it, before listing any, so a huge range fails fast
    many = any(True for _ in islice(config.h_values, config.k, None))
    for h in config.h_values:
        if not isinstance(h, int) or isinstance(h, bool):
            raise NotApplicable(f"fold {h!r} invalid for {config.mode}: not an int")
        if many and not 1 <= h <= config.k:
            raise NotApplicable(f"fold {h} invalid for {config.mode} at k={config.k}")
    explicit = tuple(sorted(set(config.h_values)))
    if row is not None and row.fold != "interior" and explicit != (fixed := row.folds(config.k)):
        raise NotApplicable(f"{row.id} fixes h = {fixed[0]}, got {tuple(config.h_values)}")
    return explicit


# A scan lists its prefix blocks, with one partial result each, and its
# completeness count holds max_element + 1 entries; max_element is at most
# the block count plus k.  A space of more blocks is refused before either.
MAX_SCAN_BLOCKS = 2**18


@dataclass(frozen=True)
class _ScanPlan:
    """What every partition of one scan shares, resolved once by
    ``_validate``, which lays out the space and lists the blocks: the scan,
    the space's base (the zero family's 0, or nothing) and size (nonzero
    elements per set), the kind its walk folds and its oracle confirms, the
    bound formula's id, the extremal family the target expects (None for a
    direct bound), at each scanned fold the bound and the limit, the largest
    cardinality the leaf step reports to the check, the walk levels, by
    elements still lacking, where a node can lose every fold
    (``_check_levels``), and the fields of each record kind, in the order of
    its columns."""
    config: ScanConfig
    base: tuple[int, ...]
    size: int
    kind: SumsetKind
    formula: str
    family: FamilyName | None
    bounds: dict[int, int]
    limits: tuple[tuple[int, int | float], ...]
    checks: frozenset[int]
    fields: dict[str, tuple[str, ...]]


def _validate(config: ScanConfig) -> tuple[_ScanPlan, list[tuple[int, ...]]]:
    """The scan's plan and its prefix blocks over the first (up to two)
    nonzero elements, kept out of the plan, which every run pickles."""
    mode, k, m = config.mode, config.k, config.max_element
    size, base = _space_shape(k, m, config.family)
    row, formula = _target(mode.target)
    if formula.family is not SetFamily.ANY and formula.family is not config.family:
        raise NotApplicable(f"{mode.target} applies to {formula.family.value} sets")
    if row is not None and not row.covers_k(k):
        raise NotApplicable(f"{mode.target} needs {row.k_range()}")
    # the walk sizes every layer by max_element, not by each set's max|a|, and
    # holds one stacked int of (h+1)*(2h*max+1) bits per tree level below a
    # prefix block, plus one; a block's largest element is top
    plen = min(2, size)
    top, copies = m - (size - plen), size - plen + 1
    # the budget grows with h, so a scan over it at h = 1, as every scan of
    # k > 2^16 is, is over it at every fold: it is refused on k and
    # max_element before its folds, up to k of them, are listed
    _require_layered_budget(1, m, copies)
    h_values = resolve_h_values(config)
    bad = [h for h in h_values if not formula.validity(k, h)]
    if bad or not h_values:
        raise NotApplicable(
            f"fold(s) {bad or h_values} invalid for {mode} at k={k}"
        )
    _require_layered_budget(max(h_values), m, copies)
    blocks = comb(top, plen)
    if blocks > MAX_SCAN_BLOCKS:
        raise KernelOverflow(
            f"scan space splits into {blocks} prefix blocks, over 2^18; lower --max"
        )
    family = None if row is None else row.extremal_at(k)
    bounds = {h: formula.value(k, h) for h in h_values}
    # a family member above its bound breaks an inverse theorem: no limit
    inverse = mode.action == "verify" and family is not None
    limits = tuple((h, inf if inverse else b) for h, b in bounds.items())
    checks = _check_levels(k, m, limits, formula.kind)
    fields = _FIELDS if family is not None else {**_FIELDS, "equalities": _RECORD}
    plan = _ScanPlan(
        config, base, size, formula.kind, formula.id, family, bounds, limits, checks, fields
    )
    # combinations() would hold the whole range even when plen is 0
    return plan, list(combinations(range(1, top + 1), plen)) if plen else [()]


def _check_levels(
    k: int, max_element: int, limits: Sequence[tuple[int, int | float]], kind: SumsetKind,
) -> frozenset[int]:
    """The numbers of missing elements, 2..k-1, at which a walk node could
    have no live fold, so that ``live_folds`` is worth its cost there (the
    leaf step tests every y).  A node of n elements (a 0 counted) has |L_j| <=
    min(C(n, j) * 2^j, 2j * max_element + 1), without the 2^j for a kind
    with no signs, and a level qualifies only if that bound lets every
    fold's window pass its limit.  The levels only decide where the walk
    looks: a level left out costs speed, never a result."""
    depth = max(h for h, _ in limits)
    signs = 2 if kind.symmetric else 1
    levels = set()
    for left in range(2, k):
        n = k - left
        most = [min(comb(n, j) * signs**j, 2 * j * max_element + 1) for j in range(depth + 1)]
        if all(max(most[max(0, h - left):h + 1]) > limit for h, limit in limits):
            levels.add(left)
    return frozenset(levels)


# the columns of each record kind, by the kind's name in the report
_Columns = dict[str, tuple[list, ...]]


def _scan_blocks(args: tuple[_ScanPlan, Sequence[tuple[int, ...]]]) -> tuple[int, _Columns]:
    """Worker: walk a run of prefix blocks in order and hand the cards of
    each node Q two elements short of its sets to ``_check``.
    Returns how many sets the blocks hold, counted at each root read, stop
    and subtree not walked, and their records' columns, plain lists that
    pickle small and merge by extending.  A root lacking two elements or
    fewer goes to ``leaf_cards`` once, before the walk: one lacking two as
    Q, one lacking one as Q + {y} with y its last element, and a set as
    Q + {y, x}, {a} as y = x = a: a folded twice is exact at h = 1, its
    only fold.  The walk meets only nodes lacking three or more.  A stop P
    three elements short folds each z into its int and reads the sets
    P + {z, y, x}, z < y < x, keeping the rows ``live_folds`` keeps on
    P + {z} when two missing elements is a checked level."""
    plan, prefixes = args
    config, checks = plan.config, plan.checks
    m = config.max_element
    frame = Frame(m, max(h for h, _ in plan.limits), plan.kind)
    scanned = 0
    out = {name: tuple([] for _ in fields) for name, fields in plan.fields.items()}
    mu = _mobius(m)
    z_level = 2 in checks
    try:
        for prefix in prefixes:
            elements = plan.base + prefix
            left = plan.size - len(prefix)
            # gcd() == 0 only for {0}
            g, p, parent = gcd(*prefix) or 1, elements[-1], elements
            if left == 2:
                ys, xs = range(p + 1, m), range(p + 2, m + 1)
            elif left == 1:
                parent, ys, xs = elements[:-1], (p,), range(p + 1, m + 1)
            elif left == 0:
                if g > 1:
                    continue
                parent, ys, xs = elements[:-2], elements[-2:-1] or elements, (p,)
            stacked = 1  # value 0 in layer 0
            for a in parent:  # the zero family's 0 and the prefix, less a root's y and x
                stacked = fold(stacked, a, frame)
            if left < 3:  # a root lacking two elements or fewer is read as Q
                scanned += _completions(g, p, m, left, mu)
                if cards := leaf_cards(stacked, g, ys, xs, frame, plan.limits):
                    _check(plan, parent, cards, out)
                continue
            # Depth first over an explicit stack, not a generator per
            # element, so a deep walk cannot reach the interpreter's
            # recursion limit.  An entry is a node still to visit: its
            # parent's elements, stacked layers, gcd and live rows, how many
            # elements the node still lacks, and the element it adds.
            rows, stack = plan.limits, []
            while True:
                low = parent[-1] + 1
                if left in checks and not (rows := live_folds(stacked, left, frame, rows)):
                    scanned += _completions(g, low - 1, m, left, mu)  # not walked
                elif left == 3:
                    scanned += _completions(g, low - 1, m, 3, mu)
                    for z in range(low, m - 1):
                        child = fold(stacked, z, frame)
                        live = live_folds(child, 2, frame, rows) if z_level else rows
                        if live and (cards := leaf_cards(
                            child, gcd(g, z), range(z + 1, m), range(z + 2, m + 1), frame, live
                        )):
                            _check(plan, parent + (z,), cards, out)
                else:
                    xs = range(low, m - left + 2)
                    stack.extend((parent, stacked, g, rows, left - 1, x) for x in reversed(xs))
                if not stack:
                    break
                parent, stacked, g, rows, left, x = stack.pop()
                parent, stacked, g = parent + (x,), fold(stacked, x, frame), gcd(g, x)
    except (TheoremViolation, EngineMismatch) as exc:
        raise type(exc)(f"[partition {prefix}] {exc}") from None
    return scanned, out


def _append(columns: tuple[list, ...], *record: object) -> None:
    """Add one record to the columns of its kind."""
    for column, value in zip(columns, record):
        column.append(value)


def _check(
    plan: _ScanPlan, parent: tuple[int, ...], cards: Iterable[tuple[int, int, int, int]],
    out: _Columns,
) -> None:
    """Check the reported cards of one Q's sets against the bound and the
    family.  A card below its bound fails, and so does an equality off the
    family or a member above the bound.  A verify scan confirms only a
    failure with the oracle, then raises it; a conjecture scan confirms
    every card and records its failures."""
    verify, family, bound_at = plan.config.mode.action == "verify", plan.family, plan.bounds
    equalities = out["equalities"]
    sets, hs, cardinalities, bounds = equalities[:4]
    head, last = "".join(f"{a}," for a in parent), None
    for y, x, h, card in cards:
        if y != last:  # the text of Q + {y} and a comma, and its elements
            last = y
            ytext, ypart = (f"{head}{y},", parent + (y,)) if y < x else (head, parent)
        text, bound = ytext + str(x), bound_at[h]
        if family is None and card == bound:  # a direct bound's equality
            # one record per set at h = 1: appended column by column, with no call
            sets.append(text)
            hs.append(h)
            cardinalities.append(card)
            bounds.append(bound)
            continue
        elements, failure = ypart + (x,), None
        if card < bound:
            failure = f"violated on {text}, h={h}: {card} < {bound}"
            records, label = out["conjecture_counterexamples"], plan.formula
        else:
            equality, matched = card == bound, match_family(elements, family) is not None
            if equality:  # off the family too: a verify scan raises below, dropping it
                _append(equalities, text, h, card, bound, family.value if matched else None)
            if equality != matched:
                failure = (
                    f"classification failed on {text}: equality={equality} but family "
                    f"match={family.value if matched else None!r} "
                    f"(cardinality {card}, bound {bound}, both engines agree)"
                )
                records, label = out["classification_failures"], family.value
            elif verify:  # a member at the bound, or a non-member above it
                continue
        # the oracle first: if it disagrees, the fault is the layered engine
        naive = confirm(FiniteIntSet(elements), h, plan.kind, card)
        if verify:
            raise TheoremViolation(f"{plan.config.mode.target} {failure}")
        if failure:
            _append(records, text, h, card, bound, naive, label)


def _merge(results: Iterator[tuple[int, _Columns]]) -> tuple[int, _Columns]:
    """The results of runs of blocks joined in block order, which is
    enumeration order: the first one's columns extended by the others',
    each dropped once it is merged."""
    scanned, merged = next(results)
    for sets, out in results:
        scanned += sets
        for name, columns in out.items():
            for column, more in zip(merged[name], columns):
                column.extend(more)
    return scanned, merged


# Sets times folds per pool worker: below it a pool's start-up and the
# records it ships back cost about as much as the work it shares.  On a
# 2-vCPU host, with one stacked DP int per walk node (BENCH_23.json,
# medians of 21 alternating runs in each of two rounds), a 2-worker pool
# took 1.08-1.75x as long as the calling process at 55k-78k set-folds
# (verify:T2_1 k=5, conj:C3_1 and conj:C2_1 k=6), 0.89-1.42x at
# 125k-130k and 0.72-1.11x from 193k up: the crossover still lies near
# 130k, where BENCH_17.json to BENCH_22.json put it.
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
    plan, parts = _validate(config)
    expected = count_normalized_sets(config.k, config.max_element, config.family)
    work = 1 + expected * len(plan.bounds) // POOLED_SET_FOLDS
    workers = min(max(1, config.jobs), _usable_cpus(), len(parts), work)
    if workers == 1:
        scanned, merged = _scan_blocks((plan, parts))
    else:
        # imported here: the pool pulls in multiprocessing, pickle and
        # sockets, which a serial scan or a plain ``import sumsets`` never uses
        from concurrent.futures import ProcessPoolExecutor

        # about four runs of blocks per worker: few round trips, and a slow
        # run still leaves the others work to share; map keeps their order
        size = max(1, len(parts) // (4 * workers))
        runs = [(plan, parts[i:i + size]) for i in range(0, len(parts), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scanned, merged = _merge(pool.map(_scan_blocks, runs))

    if scanned != expected:
        raise TheoremViolation(
            f"partition completeness broken: scanned {scanned}, closed form "
            f"{expected}"
        )
    return ScanReport(
        config=config,
        sets_scanned=scanned,
        records={name: Table(plan.fields[name], merged[name]) for name in merged},
        wall_time=time.perf_counter() - start,
    )
