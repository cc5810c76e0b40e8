"""Order-exact differential tests of pair enumeration and joined vectors.

``JoinPlan.compatible_pairs`` / ``compatible_pair_count`` and
``JoinedView.oriented_for_pairs`` are vectorized; the references in
``tests/helpers.py`` are the per-row loops they replaced. Results are
compared as arrays (shape, dtype and bytes), not as sets: callers rely
on the row order (left rows in caller order, partners in caller
right-row order, duplicates kept).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinPlan
from repro.core.categorize import Category
from repro.relational import Relation, RelationSchema, ThetaCondition, ThetaOp
from repro.relational.join import JoinedView
from repro.skyline.dominance import k_dominates

from ..helpers import (
    reference_compatible_pair_count,
    reference_compatible_pairs,
    reference_oriented_for_pairs,
)

#: Hash-equal mixed-type keys (1 == 1.0 == True, 0 == False) plus keys
#: only one side draws, so codes must agree across sides and miss cleanly.
SHARED_KEYS = [0, 1, 1.0, True, False, 2, "1", "x"]
LEFT_ONLY = ["left-only", 7]
RIGHT_ONLY = ["right-only", 8.5]


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@st.composite
def relation_pairs(draw):
    """Two relations sharing a schema: 1-2 join columns, 1-3 skyline
    attributes (discretized, so theta ties occur; any of them
    higher-is-better) and up to ``d - 1`` aggregate attributes."""
    n_join = draw(st.integers(min_value=1, max_value=2))
    d = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.integers(min_value=0, max_value=d - 1))
    names = [f"s{i}" for i in range(d)]
    join = [f"j{i}" for i in range(n_join)]
    schema = RelationSchema.build(
        join=join,
        skyline=names,
        aggregate=names[:a],
        higher_is_better=[name for name in names if draw(st.booleans())],
    )
    rels = []
    for side_only in (LEFT_ONLY, RIGHT_ONLY):
        n = draw(st.integers(min_value=0, max_value=9))
        keys = st.sampled_from(SHARED_KEYS + side_only)
        columns = {
            name: [float(draw(st.integers(min_value=0, max_value=3))) for _ in range(n)]
            for name in names
        }
        for name in join:
            columns[name] = [draw(keys) for _ in range(n)]
        rels.append(Relation(schema, columns))
    return rels[0], rels[1], a


def row_lists(draw, n):
    """Unsorted row lists with duplicates (empty when ``n == 0``)."""
    if n == 0:
        return []
    return draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=30))


def theta_conditions(draw, d):
    attr = st.sampled_from([f"s{i}" for i in range(d)])
    op = st.sampled_from(list(ThetaOp))
    count = draw(st.integers(min_value=1, max_value=2))
    return [ThetaCondition(draw(attr), draw(op), draw(attr)) for _ in range(count)]


@st.composite
def plans_and_rows(draw):
    left, right, a = draw(relation_pairs())
    kind = draw(st.sampled_from(["equality", "cartesian", "theta"]))
    theta = theta_conditions(draw, left.schema.d) if kind == "theta" else None
    plan = JoinPlan(
        left, right, kind=kind, aggregate="sum" if a else None, theta=theta
    )
    return plan, row_lists(draw, len(left)), row_lists(draw, len(right))


@given(plans_and_rows())
@settings(max_examples=300, deadline=None)
def test_compatible_pairs_match_reference(case):
    plan, left_rows, right_rows = case
    assert_same_array(
        plan.compatible_pairs(left_rows, right_rows),
        reference_compatible_pairs(plan, left_rows, right_rows),
    )
    # Arrays and ranges are accepted like lists.
    assert_same_array(
        plan.compatible_pairs(np.asarray(left_rows, dtype=np.intp), range(len(plan.right))),
        reference_compatible_pairs(plan, left_rows, range(len(plan.right))),
    )


@given(plans_and_rows())
@settings(max_examples=100, deadline=None)
def test_theta_pairs_blocked_over_left_rows_match_reference(case):
    """A tiny mask budget splits the left rows into many blocks."""
    plan, left_rows, right_rows = case
    with mock.patch("repro.core.plan._THETA_MASK_BUDGET", 5):
        got = plan.compatible_pairs(left_rows, right_rows)
    assert_same_array(got, reference_compatible_pairs(plan, left_rows, right_rows))


@given(plans_and_rows())
@settings(max_examples=300, deadline=None)
def test_compatible_pair_count_matches_reference(case):
    plan, left_rows, right_rows = case
    count = plan.compatible_pair_count(left_rows, right_rows)
    assert type(count) is int
    assert count == reference_compatible_pair_count(plan, left_rows, right_rows)
    assert count == len(reference_compatible_pairs(plan, left_rows, right_rows))


@given(relation_pairs(), st.data())
@settings(max_examples=200, deadline=None)
def test_oriented_for_pairs_matches_reference(rels, data):
    left, right, a = rels
    view = JoinedView(
        left, right, np.empty((0, 2), dtype=np.intp), aggregate="sum" if a else None
    )
    left_rows = row_lists(data.draw, len(left))
    right_rows = row_lists(data.draw, len(right))
    size = min(len(left_rows), len(right_rows))
    pairs = np.column_stack(
        [np.asarray(left_rows[:size], dtype=np.intp),
         np.asarray(right_rows[:size], dtype=np.intp)]
    )
    assert_same_array(
        view.oriented_for_pairs(pairs), reference_oriented_for_pairs(view, pairs)
    )
    # Repeat calls reuse the view's column blocks and stay identical.
    assert_same_array(
        view.oriented_for_pairs(pairs), reference_oriented_for_pairs(view, pairs)
    )


def test_mixed_type_keys_join_like_python_equality():
    """``1``, ``1.0`` and ``True`` are one key; ``"1"`` is another."""
    schema = RelationSchema.build(join=["g"], skyline=["v"])
    left = Relation(schema, {"g": [1, "1", 2], "v": [0.0, 1.0, 2.0]})
    right = Relation(schema, {"g": [True, 1.0, "1", 3], "v": [0.0, 1.0, 2.0, 3.0]})
    plan = JoinPlan(left, right)
    pairs = plan.compatible_pairs([2, 0, 1, 0], [3, 1, 2, 0])
    assert pairs.tolist() == [[0, 1], [0, 0], [1, 2], [0, 1], [0, 0]]
    assert plan.compatible_pair_count([2, 0, 1, 0], [3, 1, 2, 0]) == 5
    left_codes, right_codes = plan.join_codes()
    assert left_codes.tolist() == [0, 1, 2]
    assert right_codes.tolist() == [0, 0, 1, -1]


@given(relation_pairs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_cartesian_categorization_matches_pairwise_definition(rels, k_prime):
    """SS iff no row (itself and exact duplicates included) k'-dominates."""
    relation = rels[0]
    matrix = relation.oriented()
    want = [
        Category.NN
        if any(k_dominates(u, v, k_prime) for u in matrix)
        else Category.SS
        for v in matrix
    ]
    labels = JoinPlan._categorize_cartesian(relation, k_prime).labels
    assert labels.dtype == np.int8
    assert labels.tolist() == want
