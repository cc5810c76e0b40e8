"""Unit tests for repro.relational.relation."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import Relation, RelationSchema


@pytest.fixture
def schema():
    return RelationSchema.build(
        join=["grp"],
        skyline=["cost", "rating"],
        higher_is_better=["rating"],
        payload=["name"],
    )


@pytest.fixture
def relation(schema):
    return Relation(
        schema,
        {
            "grp": ["a", "a", "b"],
            "cost": [10.0, 20.0, 30.0],
            "rating": [3.0, 5.0, 4.0],
            "name": ["x", "y", "z"],
        },
        name="test",
    )


class TestConstruction:
    def test_len_and_d(self, relation):
        assert len(relation) == 3
        assert relation.d == 2

    def test_missing_column(self, schema):
        with pytest.raises(SchemaError, match="missing columns"):
            Relation(schema, {"grp": [], "cost": [], "rating": []})

    def test_extra_column(self, schema):
        with pytest.raises(SchemaError, match="not in schema"):
            Relation(
                schema,
                {"grp": [], "cost": [], "rating": [], "name": [], "zzz": []},
            )

    def test_ragged_columns(self, schema):
        with pytest.raises(SchemaError, match="ragged"):
            Relation(
                schema,
                {"grp": ["a"], "cost": [1.0, 2.0], "rating": [1.0], "name": ["x"]},
            )

    def test_non_numeric_skyline(self, schema):
        with pytest.raises(SchemaError, match="numeric"):
            Relation(
                schema,
                {"grp": ["a"], "cost": ["cheap"], "rating": [1.0], "name": ["x"]},
            )

    def test_nan_rejected(self, schema):
        with pytest.raises(SchemaError, match="finite"):
            Relation(
                schema,
                {"grp": ["a"], "cost": [float("nan")], "rating": [1.0], "name": ["x"]},
            )

    def test_from_records(self, schema):
        rel = Relation.from_records(
            schema,
            [
                {"grp": "a", "cost": 1, "rating": 2, "name": "n1"},
                {"grp": "b", "cost": 3, "rating": 4, "name": "n2"},
            ],
        )
        assert len(rel) == 2
        assert rel.record(1)["cost"] == 3.0

    def test_from_records_missing_key(self, schema):
        with pytest.raises(SchemaError, match="missing attribute"):
            Relation.from_records(schema, [{"grp": "a", "cost": 1, "rating": 2}])

    def test_from_arrays(self):
        rel = Relation.from_arrays(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            ["x", "y"],
            join_key=[0, 1],
            aggregate=["x"],
        )
        assert rel.schema.aggregate_names == ("x",)
        assert rel.join_keys()[1] == (1,)

    def test_from_arrays_shape_errors(self):
        with pytest.raises(SchemaError, match="2-D"):
            Relation.from_arrays(np.zeros(3), ["x"])
        with pytest.raises(SchemaError, match="names"):
            Relation.from_arrays(np.zeros((2, 2)), ["x"])
        with pytest.raises(SchemaError, match="join column"):
            Relation.from_arrays(np.zeros((2, 1)), ["x"], join_key=[1])

    def test_empty_relation(self, schema):
        rel = Relation(schema, {"grp": [], "cost": [], "rating": [], "name": []})
        assert len(rel) == 0
        assert rel.oriented().shape == (0, 2)


class TestAccessors:
    def test_oriented_negates_higher_preference(self, relation):
        oriented = relation.oriented()
        np.testing.assert_allclose(oriented[:, 0], [10, 20, 30])  # cost: lower
        np.testing.assert_allclose(oriented[:, 1], [-3, -5, -4])  # rating: higher

    def test_matrix_is_readonly(self, relation):
        with pytest.raises(ValueError):
            relation.matrix[0, 0] = 99.0
        with pytest.raises(ValueError):
            relation.oriented()[0, 0] = 99.0

    def test_column_by_role(self, relation):
        np.testing.assert_allclose(relation.column("cost"), [10, 20, 30])
        assert relation.column("grp") == ("a", "a", "b")
        assert relation.column("name") == ("x", "y", "z")

    def test_join_keys(self, relation):
        assert relation.join_keys() == [("a",), ("a",), ("b",)]

    def test_record_roundtrip(self, relation):
        rec = relation.record(0)
        assert rec == {"grp": "a", "cost": 10.0, "rating": 3.0, "name": "x"}
        assert relation.records()[2]["name"] == "z"

    def test_local_and_aggregate_indices(self):
        rel = Relation.from_arrays(
            np.zeros((1, 3)), ["a", "b", "c"], aggregate=["b"]
        )
        assert rel.local_column_indices() == [0, 2]
        assert rel.aggregate_column_indices() == [1]
        assert rel.oriented_local().shape == (1, 2)
        assert rel.oriented_aggregate().shape == (1, 1)


class TestOperations:
    def test_take(self, relation):
        sub = relation.take([2, 0])
        assert len(sub) == 2
        assert sub.record(0)["name"] == "z"

    def test_select(self, relation):
        sub = relation.select(lambda r: r["cost"] < 25)
        assert len(sub) == 2

    def test_sort_by(self, relation):
        asc = relation.sort_by("rating")
        assert [r["name"] for r in asc.records()] == ["x", "z", "y"]
        desc = relation.sort_by("rating", descending=True)
        assert [r["name"] for r in desc.records()] == ["y", "z", "x"]

    def test_head(self, relation):
        assert len(relation.head(2)) == 2
        assert len(relation.head(10)) == 3

    def test_repr_and_text(self, relation):
        assert "test" in repr(relation)
        text = relation.to_text(max_rows=2)
        assert "cost" in text and "more rows" in text
