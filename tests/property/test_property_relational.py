"""Property-based tests for the relational substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Relation, RelationSchema, read_csv, write_csv


@st.composite
def relations(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=15))
    higher = draw(st.booleans())
    names = [f"s{i}" for i in range(d)]
    schema = RelationSchema.build(
        join=["g"],
        skyline=names,
        higher_is_better=names[:1] if higher else [],
        payload=["tag"],
    )
    columns = {
        name: [
            float(draw(st.integers(min_value=-50, max_value=50))) for _ in range(n)
        ]
        for name in names
    }
    columns["g"] = [draw(st.sampled_from(["a", "b", "c"])) for _ in range(n)]
    columns["tag"] = [f"t{i}" for i in range(n)]
    return Relation(schema, columns)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_csv_roundtrip(tmp_path_factory, rel):
    path = tmp_path_factory.mktemp("csv") / "rel.csv"
    write_csv(rel, path)
    back = read_csv(rel.schema, path)
    assert back.records() == rel.records()


@given(relations())
@settings(max_examples=50, deadline=None)
def test_oriented_orientation_contract(rel):
    """Oriented values equal raw values times the preference sign."""
    oriented = rel.oriented()
    signs = rel.schema.preference_signs()
    for j, sign in enumerate(signs):
        np.testing.assert_allclose(oriented[:, j], rel.matrix[:, j] * sign)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_take_preserves_records(rel):
    if len(rel) == 0:
        return
    rows = list(range(len(rel) - 1, -1, -2))  # reversed stride-2 subset
    sub = rel.take(rows)
    assert len(sub) == len(rows)
    for pos, row in enumerate(rows):
        assert sub.record(pos) == rel.record(row)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_sort_by_is_stable_permutation(rel):
    if rel.schema.d == 0 or len(rel) == 0:
        return
    key = rel.schema.skyline_names[0]
    out = rel.sort_by(key)
    assert sorted(map(tuple, out.matrix.tolist())) == sorted(
        map(tuple, rel.matrix.tolist())
    )
    values = [rec[key] for rec in out.records()]
    assert values == sorted(values)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_group_index_partitions(rel):
    from repro.relational.groups import GroupIndex

    idx = GroupIndex(rel)
    rows = sorted(r for _, members in idx.items() for r in members)
    assert rows == list(range(len(rel)))
    keys = rel.join_keys()
    for row in range(len(rel)):
        assert row in idx.groupmates(row)
        assert idx.key_of(row) == keys[row]
