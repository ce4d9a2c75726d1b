"""Lower-bound certificates: labeled element families inside h^+-A.

A certificate family is a chain of labeled sumset members together with the
claimed order relation (strictly-less or equal) between consecutive links.
When every claimed relation holds, the chain forces a minimum number of
distinct values, so the families double as machine-checkable proofs of the
closed-form lower bounds evaluated in :mod:`sumsets.bounds`.  ``_chain``
is the one place where links become ``WitnessElement``s: each family lists
its (label, value, relation, core) links, the relations as data, and
``_chain`` gives the last link no relation.

Three index families cover general sets:

* the s-family: sums of h consecutive-window elements with one omission,
  giving hk - h^2 + 1 distinct positive values;
* the t-family: mixed-sign sums bridging -s[0,0] up to s[0,0], adding
  C(h+1,2) - 1 values for positive sets and C(h,2) - 1 when 0 is in A;
* the u-family: the h = k bridge between t[0,1] and t[1,0], used by the
  extremal classification of full-fold equality sets.

For superincreasing sets two extra labeled sub-families (shifted s-values
and mirrored t-values) raise the certified count to 2hk - h^2 + h - 4 once
h >= 5 and k >= 6.  This module also generates the named extremal families
that attain the bounds with equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import FiniteIntSet, SetFamily, SumsetKind, family_of, make_set
from .errors import DomainViolation, InvalidFamily
from .kernel import require_fold

LESS = "<"
EQUAL = "="


@dataclass(frozen=True)
class WitnessElement:
    """One labeled chain link; ``core`` marks members counted by the family
    (brackets borrowed from a neighboring family are not core)."""

    label: str
    value: int
    relation_to_next: str | None
    core: bool = True

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "value": self.value,
            "relation_to_next": self.relation_to_next,
        }


@dataclass(frozen=True)
class WitnessFamily:
    """A chain of labeled sumset members with claimed order relations."""

    name: str
    h: int
    elements: tuple[WitnessElement, ...]
    expected_distinct: int
    expected_new: int | None = None
    subfamilies: tuple["WitnessFamily", ...] = field(default=())

    def core_values(self) -> set[int]:
        return {e.value for e in self.elements if e.core}


@dataclass(frozen=True)
class FamilyCheck:
    """Outcome of verifying one family's claims against actual numbers."""

    name: str
    chain_ok: bool
    broken_links: tuple[str, ...]
    distinct: int
    expected_distinct: int
    missing_members: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.chain_ok
            and self.distinct == self.expected_distinct
            and not self.missing_members
        )


def _chain(links: Iterable[tuple[str, int, str | None, bool]]) -> tuple[WitnessElement, ...]:
    """The chain of (label, value, relation_to_next, core) links: each link
    claims its relation to the next, and the last claims nothing."""
    chain = [WitnessElement(*link) for link in links]
    chain[-1] = replace(chain[-1], relation_to_next=None)
    return tuple(chain)


def _mirror(chain: tuple[WitnessElement, ...]) -> tuple[WitnessElement, ...]:
    """The negated chain, read in reverse: h^+-A = -h^+-A keeps it in the
    sumset, and negation turns a rising chain into a falling one."""
    return _chain((f"-{e.label}", -e.value, LESS, e.core) for e in reversed(chain))


def _s_value(a: Sequence[int], i: int, j: int, h: int) -> int:
    """Sum of the window a[i..i+h] skipping a[i+h-j] (h distinct elements);
    the window may run one past the end, since l = h - j = h is skipped."""
    return sum(a[i + l] for l in range(h + 1) if l != h - j)


def _t_value(a: Sequence[int], i: int, j: int, h: int) -> int:
    """Mixed-sign sum: negate a[0..h-i-1] except a[j], add top block."""
    head = -sum(a[l] for l in range(h - i) if l != j) + a[j]
    return head + sum(a[h - m] for m in range(1, i + 1))


def _u_value(a: Sequence[int], j: int) -> int:
    k = len(a)
    return a[0] + a[j] - sum(a[l] for l in range(1, k) if l != j)


def s_family(a: FiniteIntSet, h: int) -> WitnessFamily:
    """The ascending window-sum chain; hk - h^2 + 1 distinct values.

    Defined for nonnegative sets; the chain's strictness only needs the
    elements distinct, so a leading zero is fine.
    """
    family_of(a)  # refuses sets with a negative element
    require_fold(a.k, h, SumsetKind.RESTRICTED_SIGNED)
    k = a.k
    seq = a.elements
    # s[i,h] equals s[i+1,0]; keep both labels so the collision is itself a
    # checked claim
    links = [
        (f"s[{i},{j}]", _s_value(seq, i, j, h), LESS if j < h else EQUAL, True)
        for i in range(k - h) for j in range(h + 1)
    ]
    links.append((f"s[{k - h},0]", _s_value(seq, k - h, 0, h), None, True))
    return WitnessFamily(
        name="s", h=h, elements=_chain(links), expected_distinct=h * k - h * h + 1
    )


def _t_chain(a: FiniteIntSet, h: int, zero_in_a: bool) -> tuple[WitnessElement, ...]:
    seq = a.elements
    s00 = _s_value(seq, 0, 0, h)
    boundary = EQUAL if zero_in_a else LESS
    links = [("-s[0,0]", -s00, boundary, False)]
    for i in range(h):
        for j in range(h - i):
            # a row ends at the boundary, and t[h-1,0] always equals s[0,0]
            rel = LESS if j < h - i - 1 else boundary if i < h - 1 else EQUAL
            links.append((f"t[{i},{j}]", _t_value(seq, i, j, h), rel, True))
    links.append(("s[0,0]", s00, None, False))
    return _chain(links)


def _superincreasing_subfamilies(a: FiniteIntSet, h: int) -> tuple[WitnessFamily, ...]:
    seq = a.elements
    if h > a.k - 1:
        raise DomainViolation(
            f"superincreasing sub-families need h <= k-1, got h={h}, k={a.k}"
        )
    subs: list[WitnessFamily] = []

    # shifted s-values v[j] = s[0,j] - 2*a_0 interleave the s[0,*] chain
    if h >= 3:
        links = [("s[0,0]", _s_value(seq, 0, 0, h), LESS, False)]
        for j in range(1, h - 1):
            links.append((f"v[{j}]", _s_value(seq, 0, j, h) - 2 * seq[0], LESS, True))
            links.append((f"s[0,{j}]", _s_value(seq, 0, j, h), LESS, False))
        up = _chain(links)
        subs.append(WitnessFamily(name="v", h=h, elements=up, expected_distinct=h - 2))
        subs.append(
            WitnessFamily(name="-v", h=h, elements=_mirror(up), expected_distinct=h - 2)
        )

    # mirrored t-rows fill the gaps between consecutive t[0,*] values
    for j in range(2, h - 2):
        links = [(f"t[0,{h - j - 1}]", _t_value(seq, 0, h - j - 1, h), LESS, False)]
        for m in range(h - j - 2, -1, -1):
            links.append((f"-t[{j},{m}]", -_t_value(seq, j, m, h), LESS, True))
        links.append((f"-t[{j - 1},{h - j}]", -_t_value(seq, j - 1, h - j, h), LESS, True))
        links.append((f"t[0,{h - j}]", _t_value(seq, 0, h - j, h), LESS, False))
        subs.append(
            WitnessFamily(
                name=f"-t[{j},*]", h=h, elements=_chain(links), expected_distinct=h - j
            )
        )

    if h >= 3:
        top = _chain([
            ("t[0,1]", _t_value(seq, 0, 1, h), LESS, False),
            (f"-t[{h - 3},2]", -_t_value(seq, h - 3, 2, h), LESS, True),
            ("t[0,2]", _t_value(seq, 0, 2, h), LESS, False),
        ])
        subs.append(
            WitnessFamily(name="-t[top]", h=h, elements=top, expected_distinct=1)
        )
    return tuple(subs)


def t_family(
    a: FiniteIntSet,
    h: int,
    zero_in_a: bool = False,
    superincreasing: bool = False,
) -> WitnessFamily:
    """The bridging chain from -s[0,0] to s[0,0].

    With ``zero_in_a`` the row boundaries collapse to equalities and the
    new-value contribution drops from C(h+1,2) - 1 to C(h,2) - 1.  With
    ``superincreasing`` the extra labeled sub-families are attached.
    """
    require_fold(a.k, h, SumsetKind.RESTRICTED_SIGNED)
    family = SetFamily.CONTAINS_ZERO if zero_in_a else SetFamily.POSITIVE
    if family_of(a) is not family:
        raise DomainViolation(f"zero_in_a={zero_in_a} needs a {family.value} set: {a}")
    subfamilies: tuple[WitnessFamily, ...] = ()
    if superincreasing:
        if not is_superincreasing(a):  # a set with 0 in it never is
            raise DomainViolation(f"set {a} is not superincreasing")
        subfamilies = _superincreasing_subfamilies(a, h)
    if zero_in_a:
        distinct = comb(h + 1, 2) - (h - 1)
        new = max(comb(h, 2) - 1, 0)
    else:
        distinct = comb(h + 1, 2)
        new = comb(h + 1, 2) - 1
    return WitnessFamily(
        name="t",
        h=h,
        elements=_t_chain(a, h, zero_in_a),
        expected_distinct=distinct,
        expected_new=new,
        subfamilies=subfamilies,
    )


def u_family(a: FiniteIntSet) -> WitnessFamily:
    """The full-fold (h = k) chain t[0,1] < u[1] < ... < u[k-1] = t[1,0]."""
    if a.elements[0] <= 0 or a.k < 3:
        raise DomainViolation(f"u-family needs a positive set with k >= 3, got {a}")
    k = a.k
    seq = a.elements
    links = [("t[0,1]", _t_value(seq, 0, 1, k), LESS, False)]
    for j in range(1, k):
        links.append((f"u[{j}]", _u_value(seq, j), LESS if j < k - 1 else EQUAL, True))
    links.append(("t[1,0]", _t_value(seq, 1, 0, k), None, False))
    return WitnessFamily(name="u", h=k, elements=_chain(links), expected_distinct=k - 1)


def verify_family(fam: WitnessFamily, membership: Iterable[int]) -> FamilyCheck:
    """Check every claimed relation, the distinct count, and membership of
    each core value in a computed sumset."""
    broken = []
    for cur, nxt in zip(fam.elements, fam.elements[1:]):
        if cur.relation_to_next == LESS and not cur.value < nxt.value:
            broken.append(f"{cur.label} < {nxt.label}")
        elif cur.relation_to_next == EQUAL and cur.value != nxt.value:
            broken.append(f"{cur.label} = {nxt.label}")
    allowed = set(membership)
    missing = tuple(e.label for e in fam.elements if e.core and e.value not in allowed)
    return FamilyCheck(
        name=fam.name,
        chain_ok=not broken,
        broken_links=tuple(broken),
        distinct=len(fam.core_values()),
        expected_distinct=fam.expected_distinct,
        missing_members=missing,
    )


def _census(s: WitnessFamily, t: WitnessFamily) -> int:
    """Distinct core values of s, -s, t and t's sub-families together."""
    union = s.core_values()
    union |= {-v for v in union}
    for fam in (t, *t.subfamilies):
        union |= fam.core_values()
    return len(union)


def combined_census(a: FiniteIntSet, h: int) -> tuple[int, int]:
    """Distinct count of s, -s and t values together with the certified
    total 2(hk - h^2) + C(h+1,2) + 1, or C(h,2) in place of C(h+1,2) when
    0 is in A.  Returns (actual, expected)."""
    zero = a.elements[0] == 0
    count = _census(s_family(a, h), t_family(a, h, zero_in_a=zero))
    tail = comb(h, 2) if zero else comb(h + 1, 2)
    return count, 2 * (h * a.k - h * h) + tail + 1


def superincreasing_census(a: FiniteIntSet, h: int) -> tuple[int, int | None]:
    """Distinct count over all families including the superincreasing
    sub-families.  The certified total 2hk - h^2 + h - 4 applies only for
    h >= 5 and k >= 6; outside that range the count is reported with no
    claimed value."""
    # t first: its fold and domain checks decide which error a bad input gets
    t = t_family(a, h, superincreasing=True)
    claimed = None
    if h >= 5 and a.k >= 6:
        claimed = 2 * h * a.k - h * h + h - 4
    return _census(s_family(a, h), t), claimed


class FamilyName(str, Enum):
    """Named extremal families attaining the lower bounds with equality."""

    ODD_AP = "OddAP"                # d * {1, 3, ..., 2k-1}
    INTERVAL_1K = "Interval1K"      # d * [1, k]
    INTERVAL_0K = "Interval0K"      # d * [0, k-1]
    SPECIAL_0124 = "Special0124"    # d * {0, 1, 2, 4}
    SUM_CLOSED_3 = "SumClosed3"     # {a0, a1, a0+a1}
    SUM_CLOSED_4 = "SumClosed4"     # {0, a1, a2, a1+a2}
    PAIR = "Pair"                   # {a0, a1}, the k=2 exceptional case
    ZERO_PAIR = "ZeroPair"          # {0, a}, the k=2 exceptional case
    ZERO_TRIPLE = "ZeroTriple"      # {0, a1, a2}, the k=3 exceptional case


class FamilyShape(NamedTuple):
    """How a named family is built from (k, d, params) and read back."""

    k: int                  # the family's k when fixed, else its least k
    fixed_k: bool
    free: slice | None      # the elements params fill; None: params ignored
    member: Callable[[int, tuple[int, ...]], list[int]]  # d = 1, from (k, params)


_F = FamilyName

FAMILY_SHAPES: dict[FamilyName, FamilyShape] = {
    _F.ODD_AP: FamilyShape(2, False, None, lambda k, p: [2 * i + 1 for i in range(k)]),
    _F.INTERVAL_1K: FamilyShape(3, False, None, lambda k, p: list(range(1, k + 1))),
    _F.INTERVAL_0K: FamilyShape(2, False, None, lambda k, p: list(range(k))),
    _F.SPECIAL_0124: FamilyShape(4, True, None, lambda k, p: [0, 1, 2, 4]),
    _F.SUM_CLOSED_3: FamilyShape(3, True, slice(0, 2), lambda k, p: [*p, p[0] + p[1]]),
    _F.SUM_CLOSED_4: FamilyShape(4, True, slice(1, 3), lambda k, p: [0, *p, p[0] + p[1]]),
    _F.PAIR: FamilyShape(2, True, slice(0, 2), lambda k, p: list(p)),
    _F.ZERO_PAIR: FamilyShape(2, True, slice(1, 2), lambda k, p: [0, *p]),
    _F.ZERO_TRIPLE: FamilyShape(3, True, slice(1, 3), lambda k, p: [0, *p]),
}


def gen_family(
    name: FamilyName | str,
    k: int | None = None,
    d: int = 1,
    params: Sequence[int] = (),
) -> FiniteIntSet:
    """Instantiate a named extremal family.

    ``d`` dilates every family; ``params`` carries the free elements of the
    small-k exceptional families (see FamilyName comments).
    """
    name = FamilyName(name)
    shape = FAMILY_SHAPES[name]
    if d < 1:
        raise InvalidFamily(f"dilation factor must be positive, got d={d}")
    if shape.fixed_k:
        if k is not None and k != shape.k:
            raise InvalidFamily(f"{name.value} has k={shape.k}, got k={k}")
    elif k is None or k < shape.k:
        raise InvalidFamily(f"{name.value} needs k >= {shape.k}, got k={k}")
    params = tuple(params)
    if shape.free is not None:
        n = shape.free.stop - shape.free.start
        if len(params) != n:
            raise InvalidFamily(
                f"{name.value} needs {n} parameter(s), got {params!r}"
            )
        if any(p <= 0 for p in params):
            raise InvalidFamily(f"{name.value} parameters must be positive")
        if any(q <= p for p, q in zip(params, params[1:])):
            raise InvalidFamily(f"{name.value} parameters must increase")
    return make_set([d * x for x in shape.member(k, params)])


def is_superincreasing(a: FiniteIntSet) -> bool:
    """a_0 > 0 and each element exceeds the sum of all earlier elements."""
    if a.elements[0] <= 0:
        return False
    running = a.elements[0]
    for x in a.elements[1:]:
        if x <= running:
            return False
        running += x
    return True


def gen_superincreasing(k: int) -> FiniteIntSet:
    """The tightest superincreasing set of size k, 1, 2, 4, ..., 2^(k-1):
    each element is one more than the sum of those before it."""
    if k < 1:
        raise InvalidFamily(f"need k >= 1, got k={k}")
    return FiniteIntSet(tuple(1 << i for i in range(k)))
