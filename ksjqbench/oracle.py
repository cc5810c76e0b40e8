"""Brute-force reference answers and answer digests.

The oracle joins the benchmark's own raw arrays (key equality along the
chain, aggregate attributes summed), materializes the joined matrix and
tests every joined row against every other (:func:`skyline_rows`). It
shares no join, grouping, pruning or dominance code with the program it
checks; the self-test cross-checks it against the library's
``k_dominant_skyline_naive``.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from data import RawRelation


def joined(rels: list[RawRelation]) -> tuple[np.ndarray, np.ndarray]:
    """``(row tuples m x len(rels), joined matrix)`` of a key-equality chain."""
    by_key = []
    for rel in rels:
        groups: dict[int, list[int]] = {}
        for row, key in enumerate(rel.keys.tolist()):
            groups.setdefault(key, []).append(row)
        by_key.append(groups)
    shared = set(by_key[0]).intersection(*by_key[1:])
    tuples = [combo for key in sorted(shared)
              for combo in itertools.product(*(g[key] for g in by_key))]
    rows = np.asarray(tuples, dtype=np.intp).reshape(-1, len(rels))
    a = rels[0].a
    parts = [rel.matrix[rows[:, i], a:] for i, rel in enumerate(rels)]
    if a:
        parts.append(sum(rel.matrix[rows[:, i], :a] for i, rel in enumerate(rels)))
    return rows, np.hstack(parts)


def skyline_rows(matrix: np.ndarray, k: int, block: int = 256,
                 rows_per_step: int = 512) -> np.ndarray:
    """Indexes of the rows no other row k-dominates (lower is better).

    Brute force: each row is compared with every row until a dominator
    turns up. Dominators are tried in ascending row-sum order, which only
    finds them sooner; a row with none is compared with all rows.
    """
    n = len(matrix)
    by_sum = matrix[np.argsort(matrix.sum(axis=1), kind="stable")]
    dominated = np.zeros(n, dtype=bool)
    for start in range(0, n, block):
        vectors = matrix[start:start + block]
        alive = np.arange(len(vectors))
        for first in range(0, n, rows_per_step):
            rows = by_sum[first:first + rows_per_step][None, :, :]
            v = vectors[alive][:, None, :]
            hit = (((rows <= v).sum(axis=2) >= k) & (rows < v).any(axis=2)).any(axis=1)
            dominated[start + alive[hit]] = True
            alive = alive[~hit]
            if alive.size == 0:
                break
    return np.flatnonzero(~dominated)


def exact_answer(rels: list[RawRelation], k: int) -> set[tuple[int, ...]]:
    rows, matrix = joined(rels)
    return {tuple(r) for r in rows[skyline_rows(matrix, k)].tolist()}


def answer_rows(result) -> set[tuple[int, ...]]:
    rows = getattr(result, "pairs", None)
    if rows is None:
        rows = result.chains
    return {tuple(r) for r in np.asarray(rows).tolist()}


def digest(rows) -> str:
    """Order-free digest of an answer (a set or list of row tuples)."""
    canon = sorted(tuple(int(x) for x in r) for r in rows)
    return hashlib.sha1(repr(canon).encode()).hexdigest()[:16]


def check(rels: list[RawRelation], k: int, mode: str, got: set) -> str | None:
    """``None`` when ``got`` is right, else a one-line reason.

    Exact answers must equal the oracle. Faithful answers must contain
    it (``docs/paper-map.md``: with ``a >= 2`` the paper's pruning can
    keep extra tuples, never drop one).
    """
    want = exact_answer(rels, k)
    if mode == "exact" and got != want:
        return f"exact k={k}: {len(got)} rows vs oracle {len(want)}"
    if mode == "faithful" and not want <= got:
        return f"faithful k={k}: misses {len(want - got)} oracle rows"
    return None


def skyline_size(rels: list[RawRelation], k: int) -> int:
    return len(exact_answer(rels, k))
