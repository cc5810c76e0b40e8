"""Seeded inputs of the three workloads.

Every input is a :class:`RawRelation` — a numpy attribute matrix plus a
join key per row — generated here from the workload seed and handed to
the program as a :class:`repro.relational.Relation`. The raw arrays stay
with the benchmark so the oracle (:mod:`oracle`) can join them without
the program's join code.

Attributes are independent uniform values in ``[0, 1)``, lower is
better; the first ``a`` attributes are aggregate inputs; row ``i``
belongs to join group ``i % g`` — the paper's synthetic generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The largest Fig. 3b point at benchmark scale: 304 x 304 base tuples,
#: joined size ~9.2k, k = 11 (between the empty k = 9 and the 5k-row
#: k = 12 answers; Hwang, Tsai & Chen's threshold phenomenon).
FIG3B = dict(n=304, d=7, g=10, a=2)
#: d = 5 without aggregates: faithful and exact families both compete.
D5 = dict(n=240, d=5, g=10, a=0)
#: Three-leg key-equality cascade (multi-stop flights), one sum aggregate.
CASCADE = dict(n=40, d=3, g=3, a=1, legs=3)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream...) — adding a stream
    never changes the draws of another."""
    return np.random.default_rng([seed, *stream])


@dataclass
class RawRelation:
    """Attribute matrix + join keys; the first ``a`` columns aggregate."""

    matrix: np.ndarray
    keys: np.ndarray
    a: int
    name: str

    @property
    def names(self) -> list[str]:
        return [f"s{i + 1}" for i in range(self.matrix.shape[1])]

    def to_relation(self):
        from repro.relational import Relation

        return Relation.from_arrays(
            self.matrix, self.names, join_key=[int(k) for k in self.keys],
            join_name="grp", aggregate=self.names[: self.a], name=self.name,
        )

    def records(self, rows: np.ndarray, keys: np.ndarray) -> list[dict[str, object]]:
        """``insert_rows`` payload for new attribute rows."""
        return [
            {"grp": int(key), **{n: float(v) for n, v in zip(self.names, row)}}
            for row, key in zip(rows, keys)
        ]

    def inserted(self, rows: np.ndarray, keys: np.ndarray) -> "RawRelation":
        return RawRelation(np.vstack([self.matrix, rows]),
                           np.concatenate([self.keys, keys]), self.a, self.name)

    def deleted(self, drop: np.ndarray) -> "RawRelation":
        keep = np.setdiff1d(np.arange(len(self.keys)), drop)
        return RawRelation(self.matrix[keep], self.keys[keep], self.a, self.name)


def raw_relation(rng: np.random.Generator, n: int, d: int, g: int, a: int,
                 name: str) -> RawRelation:
    return RawRelation(rng.uniform(0.0, 1.0, size=(n, d)),
                       np.arange(n) % g, a, name)


def pair(rng: np.random.Generator, shape: dict) -> tuple[RawRelation, RawRelation]:
    n, d, g, a = shape["n"], shape["d"], shape["g"], shape["a"]
    return (raw_relation(rng, n, d, g, a, "R1"), raw_relation(rng, n, d, g, a, "R2"))


def cascade_legs(rng: np.random.Generator) -> list[RawRelation]:
    c = CASCADE
    return [raw_relation(rng, c["n"], c["d"], c["g"], c["a"], f"leg{i + 1}")
            for i in range(c["legs"])]
