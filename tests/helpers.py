"""Plain-function test helpers, importable from any test module.

Kept separate from ``conftest.py`` (which pytest reserves for fixtures
and hooks) so test modules can do ``from ..helpers import
make_random_pair`` without relying on conftest import mechanics.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.synthetic import generate_matrix
from repro.relational import Relation
from repro.relational.groups import ThetaOp
from repro.relational.join import pairs_product, theta_conjunction_mask

__all__ = [
    "make_random_pair",
    "reference_compatible_pairs",
    "reference_compatible_pair_count",
    "reference_oriented_for_pairs",
]


def make_random_pair(
    seed: int,
    n: int = 10,
    d: int = 4,
    g: int = 3,
    a: int = 0,
    levels: int = 4,
    distribution: str = "independent",
):
    """Small random relation pair with discretized values (forces ties).

    Discretization matters: ties exercise the equal-sharer logic in the
    target sets, which continuous data would almost never hit.
    """
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(d)]
    rels = []
    for name in ("R1", "R2"):
        matrix = np.floor(generate_matrix(n, d, distribution, rng) * levels)
        rels.append(
            Relation.from_arrays(
                matrix,
                names,
                join_key=[int(i % g) for i in range(n)],
                aggregate=names[:a],
                name=name,
            )
        )
    return rels[0], rels[1]


# ----------------------------------------------------------------------
# Reference implementations of the pair-enumeration and joined-vector
# primitives: plain per-row loops over Python join-key tuples, kept as
# the order-exact oracle for the vectorized JoinPlan / JoinedView code.
# ----------------------------------------------------------------------
def _rows(rows):
    return np.asarray(list(rows), dtype=np.intp)


def reference_compatible_pairs(plan, left_rows, right_rows):
    """Pairs of ``plan`` between two row lists, one left row at a time."""
    left_rows, right_rows = _rows(left_rows), _rows(right_rows)
    if left_rows.size == 0 or right_rows.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if plan.kind == "cartesian":
        return pairs_product(left_rows, right_rows)
    chunks = []
    if plan.kind == "equality":
        lkeys, rkeys = plan.left.join_keys(), plan.right.join_keys()
        by_key = {}
        for r in right_rows:
            by_key.setdefault(rkeys[int(r)], []).append(int(r))
        for l in left_rows:
            partners = by_key.get(lkeys[int(l)])
            if partners:
                chunks.append(pairs_product([int(l)], partners))
    else:
        value_pairs = [
            (
                np.asarray(plan.left.column(c.left_attr), dtype=np.float64),
                np.asarray(plan.right.column(c.right_attr), dtype=np.float64),
            )
            for c in plan.theta_conditions
        ]
        right_subsets = [rvals[right_rows] for _, rvals in value_pairs]
        for l in left_rows:
            mask = theta_conjunction_mask(
                plan.theta_conditions,
                [lvals[int(l)] for lvals, _ in value_pairs],
                right_subsets,
            )
            partners = right_rows[mask]
            if partners.size:
                chunks.append(pairs_product([int(l)], partners))
    if not chunks:
        return np.empty((0, 2), dtype=np.intp)
    return np.concatenate(chunks, axis=0)


def reference_compatible_pair_count(plan, left_rows, right_rows):
    """Pair count of ``plan`` from per-key counts / per-row binary search."""
    left_rows, right_rows = _rows(left_rows), _rows(right_rows)
    if left_rows.size == 0 or right_rows.size == 0:
        return 0
    if plan.kind == "cartesian":
        return int(left_rows.size) * int(right_rows.size)
    if plan.kind == "equality":
        lkeys, rkeys = plan.left.join_keys(), plan.right.join_keys()
        left_counts, right_counts = {}, {}
        for r in left_rows:
            left_counts[lkeys[int(r)]] = left_counts.get(lkeys[int(r)], 0) + 1
        for r in right_rows:
            right_counts[rkeys[int(r)]] = right_counts.get(rkeys[int(r)], 0) + 1
        return sum(c * right_counts.get(key, 0) for key, c in left_counts.items())
    if len(plan.theta_conditions) > 1:
        return int(reference_compatible_pairs(plan, left_rows, right_rows).shape[0])
    cond = plan.theta
    lvals = np.asarray(plan.left.column(cond.left_attr), dtype=np.float64)
    rsorted = np.sort(
        np.asarray(plan.right.column(cond.right_attr), dtype=np.float64)[right_rows]
    )
    total = 0
    for l in left_rows:
        value = lvals[int(l)]
        if cond.op is ThetaOp.LT:
            total += rsorted.size - int(np.searchsorted(rsorted, value, side="right"))
        elif cond.op is ThetaOp.LE:
            total += rsorted.size - int(np.searchsorted(rsorted, value, side="left"))
        elif cond.op is ThetaOp.GT:
            total += int(np.searchsorted(rsorted, value, side="left"))
        else:
            total += int(np.searchsorted(rsorted, value, side="right"))
    return total


def reference_oriented_for_pairs(view, pairs):
    """Joined vectors of ``pairs`` by per-call column fancy-indexing."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    li, ri = pairs[:, 0], pairs[:, 1]
    lay = view.layout
    blocks = [
        view.left.oriented()[li][:, lay.left_local_idx],
        view.right.oriented()[ri][:, lay.right_local_idx],
    ]
    if lay.n_aggregate:
        combined = view.aggregate(
            view.left.matrix[li][:, lay.left_agg_idx],
            view.right.matrix[ri][:, lay.right_agg_idx],
        )
        sky = list(view.left.schema.skyline_names)
        signs = np.asarray(
            [view.left.schema[sky[i]].preference.sign for i in lay.left_agg_idx],
            dtype=np.float64,
        )
        blocks.append(combined * signs)
    return np.concatenate(blocks, axis=1)
