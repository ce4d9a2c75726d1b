import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsets.core import (
    FiniteIntSet,
    SetFamily,
    SumsetKind,
    SumsetResult,
    Table,
    canonical_json,
    dilate,
    family_of,
    make_set,
    parse_set_literal,
)
from sumsets.errors import DomainViolation, InvalidDilation, InvalidSet, InvalidSetLiteral

int_sets = st.sets(st.integers(-200, 200), min_size=1, max_size=8)


def test_make_set_sorts():
    assert make_set([5, 1, 3]).elements == (1, 3, 5)


def test_make_set_singleton():
    s = make_set([2])
    assert s.elements == (2,) and s.k == 1


def test_make_set_flags_duplicates():
    s = make_set([1, 1, 3])
    assert s.elements == (1, 3)


def test_make_set_rejects_empty():
    with pytest.raises(InvalidSet, match="empty sequence"):
        make_set([])
    with pytest.raises(InvalidSet, match="must be nonempty"):
        FiniteIntSet(())


def test_make_set_rejects_non_integers():
    with pytest.raises(InvalidSet):
        make_set([1, 2.5])


def test_finite_int_set_rejects_unsorted():
    with pytest.raises(InvalidSet):
        FiniteIntSet((3, 1))


@pytest.mark.parametrize("values", [(2, 1), (1, 1), (-1, 3, 2), (0, 0, 1)])
def test_sumset_result_rejects_unsorted_values(values):
    for kind in SumsetKind:
        with pytest.raises(InvalidSet, match="strictly increasing"):
            SumsetResult(values, kind)


@given(st.sets(st.integers(-6, 6), max_size=6))
@example({-2, 1, 2})
def test_sumset_result_symmetry_check_is_closure_under_negation(raw):
    values = tuple(sorted(raw))
    closed = all(-v in raw for v in raw)
    for kind in SumsetKind:
        if kind.symmetric and not closed:
            with pytest.raises(InvalidSet, match=f"{kind.value} sumset must be symmetric"):
                SumsetResult(values, kind)
        else:
            assert SumsetResult(values, kind).cardinality == len(raw)


def test_dilate_examples():
    assert dilate(make_set([1, 3, 5]), 2).elements == (2, 6, 10)
    assert dilate(make_set([1, 2]), -1).elements == (-2, -1)
    assert dilate(make_set([1, 3]), 1).elements == (1, 3)


def test_dilate_by_zero_rejected():
    with pytest.raises(InvalidDilation):
        dilate(make_set([1, 3]), 0)


@given(int_sets, st.integers(-10, 10).filter(lambda a: a != 0))
def test_dilation_preserves_cardinality(raw, alpha):
    a = make_set(raw)
    assert dilate(a, alpha).k == a.k


@given(
    int_sets,
    st.integers(-6, 6).filter(lambda a: a != 0),
    st.integers(-6, 6).filter(lambda a: a != 0),
)
def test_dilation_composes(raw, alpha, beta):
    a = make_set(raw)
    assert dilate(dilate(a, alpha), beta) == dilate(a, alpha * beta)


def test_canonical_serialization_round_trip():
    a = make_set([7, -2, 3])
    assert a.canonical() == "-2,3,7"
    assert parse_set_literal(a.canonical()) == a


@pytest.mark.parametrize("bad", ["", "1,,3", "1, 3", "a,b", " 1,3", "1,3 "])
def test_parse_set_literal_rejects_malformed(bad):
    with pytest.raises(InvalidSetLiteral):
        parse_set_literal(bad)


def test_family_of():
    assert family_of(make_set([1, 4])) is SetFamily.POSITIVE
    assert family_of(make_set([0, 4])) is SetFamily.CONTAINS_ZERO
    with pytest.raises(DomainViolation):
        family_of(make_set([-1, 4]))


def test_canonical_json_round_trips_byte_identical():
    payload = {"b": [1, 2, {"x": None}], "a": "1,3,5", "t": 0.125}
    text = canonical_json(payload)
    assert canonical_json(json.loads(text)) == text


enums = st.sampled_from([*SumsetKind, *SetFamily])
json_strs = st.text() | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9", "\u2028", "\U0001f600"])
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
    | st.floats() | json_strs | enums
)
# one key type per dict: json.dumps cannot sort keys of mixed types
json_key_kinds = (json_strs | enums, st.integers(), st.booleans(), st.none(), st.floats())


@st.composite
def json_tables(draw, nested):
    """1-6 dicts over one key list, each column drawn from one kind of value
    (or from several: a mixed column), each row listing the keys in one of
    two insertion orders."""
    keys = draw(st.lists(json_strs | st.sampled_from(["%", "%s", "a%%b", '"', '%"%']),
                         min_size=1, max_size=5, unique=True))
    orders = (keys, draw(st.permutations(keys)))
    rows = draw(st.integers(1, 6))
    kinds = (json_strs, st.integers() | st.sampled_from([2**80, -2**80]), st.booleans(),
             st.none(), enums, st.floats(), nested, json_scalars | nested)
    columns = [draw(st.lists(draw(st.sampled_from(kinds)), min_size=rows, max_size=rows))
               for _ in keys]
    table = [dict(zip(keys, row)) for row in zip(*columns)]
    return [{key: rec[key] for key in draw(st.sampled_from(orders))} for rec in table]


json_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.one_of(*(st.dictionaries(keys, children, max_size=4) for keys in json_key_kinds))
        | json_tables(children)
    ),
    max_leaves=20,
)


@settings(max_examples=150)
@given(json_tables(json_values) | json_values)
def test_canonical_json_is_the_stdlib_text(obj):
    # the direct writer must reproduce the stdlib's indented, sorted text
    # byte for byte, on the values it writes itself and on those it hands on
    assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100)
@given(json_tables(json_values), st.integers(0, 2))
def test_canonical_json_writes_a_table_of_columns_as_its_dicts(records, depth):
    # columns of ints, bools, None, enums and mixed values, at any depth
    keys = tuple(records[0])
    table = Table(keys, tuple([rec[key] for rec in records] for key in keys))
    assert table.dicts() == tuple(records) and len(table) == len(records)
    empty = Table(keys, tuple([] for _ in keys))
    obj, expected = table, records
    for _ in range(depth):
        obj, expected = {"t": obj, "e": empty}, {"t": expected, "e": []}
    assert canonical_json(obj) == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_canonical_json_keeps_table_columns_lazy():
    # a table's texts are made row by row as the join asks for them; a
    # writer that listed every column's texts first peaked above 4x the text
    records = [
        {"set": f"1,2,{i % 97 + 3},{i + 100}", "h": 1 + i % 5, "cardinality": 10, "bound": 10}
        for i in range(50_000)
    ]
    tracemalloc.start()
    try:
        text = canonical_json({"equalities": records})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * len(text)
