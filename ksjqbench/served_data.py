"""Datasets and the seeded request stream of ``served-mix``.

Shared by the client (:mod:`served`) and the server process
(:mod:`serve_child`), which both derive the datasets from the seed.

The traffic mix is an assumption: no recorded traffic backs any of its
shares, rates or sizes. Revise it when real traffic is known.

* Open loop (:func:`stream`): blocks of :data:`BLOCK` requests with a
  fixed quota per block, in an order shuffled by the seed:
  :data:`REPEATS` (8 in 10) exact repeats of a query the result cache
  still holds (Zipf draws, s = :data:`ZIPF_S`, over a fixed popularity
  order of ``(dataset, k, mode)``), :data:`FIND_K` (1 in 10) ``/find_k``
  requests and the rest (1 in 10) queries the cache does not hold. The
  result cache holds :data:`RESULT_CACHE` answers; a simulated LRU of
  that size decides what is cached. Uncached queries and ``/find_k``
  walk a seeded rotation of their keys, so every run sends nearly the
  same expensive requests.
* Closed loop (:func:`closed_loop_stream`, the gated figures): turns of
  :data:`TURN` requests, every query key once and one ``/find_k``. So
  ``/find_k`` is 1/9 of the samples, near its 1 in 10 of the open loop;
  the 3-leg cascade is 2/9, and each query key weighs the same, as in
  the open loop's rotation of uncached queries.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

import numpy as np

import data

WORKERS = 2
MAX_QUEUE = 64
RESULT_CACHE = 6
BLOCK = 10
REPEATS = 8
FIND_K = 1
ZIPF_S = 1.1
#: A repeat names a key at least this many requests old, so the first
#: request for it has normally completed and been cached.
REPEAT_MIN_AGE = 3

F3 = ("f3L", "f3R")
D5 = ("d5L", "d5R")
CAS = ("leg1", "leg2", "leg3")

#: Query keys ``(datasets, k, mode)`` in popularity order. k stays at or
#: above each dataset's threshold, where answers are non-empty. With one
#: uncached query and one ``/find_k`` per block, both rotations repeat
#: every eight blocks.
QUERY_KEYS = [
    (F3, 11, "faithful"), (D5, 9, "exact"), (F3, 10, "exact"), (CAS, 7, "faithful"),
    (D5, 9, "faithful"), (F3, 10, "faithful"), (D5, 10, "faithful"),
    (CAS, 6, "faithful"),
]
#: ``/find_k`` keys ``(datasets, delta)``; exact mode, objective at_least.
FIND_K_KEYS = [(D5, 200), (F3, 50), (D5, 1000), (F3, 2000)]
#: Requests in one turn of both rotations.
ROTATION = 8 * BLOCK
#: Requests in one turn of the closed loop: every query key, one find_k.
TURN = len(QUERY_KEYS) + 1


#: The registered datasets do not depend on the run's seed: across seeds
#: the request stream varies, while every miss costs the same work, so
#: runs compare the serving path rather than three random datasets.
DATASET_SEED = 20170419


def datasets(seed: int | None = None) -> dict[str, data.RawRelation]:
    """Every registered relation, by name (the same for every seed)."""
    f3l, f3r = data.pair(data.rng_for(DATASET_SEED, 2, 0), data.FIG3B)
    d5l, d5r = data.pair(data.rng_for(DATASET_SEED, 2, 1), data.D5)
    legs = data.cascade_legs(data.rng_for(DATASET_SEED, 2, 2))
    return {"f3L": f3l, "f3R": f3r, "d5L": d5l, "d5R": d5r,
            "leg1": legs[0], "leg2": legs[1], "leg3": legs[2]}


def aggregate(names: tuple[str, ...]) -> str | None:
    return None if names == D5 else "sum"


def body(key) -> tuple[str, dict]:
    """``(route, JSON body)`` of a stream key."""
    if key[0] == "find_k":
        names, delta = key[1]
        return "/find_k", {"datasets": list(names), "delta": delta, "mode": "exact",
                           "aggregate": aggregate(names)}
    names, k, mode = key[1]
    return "/query", {"datasets": list(names), "k": k, "mode": mode,
                      "aggregate": aggregate(names)}


def _zipf_pick(rng: np.random.Generator, ranked: list):
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
    return ranked[rng.choice(len(ranked), p=weights / weights.sum())]


def stream(seed: int, count: int) -> list[tuple]:
    """``count`` stream keys: ``("query", key)`` or ``("find_k", key)``."""
    rng = data.rng_for(seed, 3)
    popularity = {key: rank for rank, key in enumerate(QUERY_KEYS)}
    rotations = {
        "new": itertools.cycle(
            [("query", QUERY_KEYS[i]) for i in rng.permutation(len(QUERY_KEYS))]),
        "find_k": itertools.cycle(
            [("find_k", FIND_K_KEYS[i]) for i in rng.permutation(len(FIND_K_KEYS))]),
    }
    lru: OrderedDict = OrderedDict()
    out: list[tuple] = []
    while len(out) < count:
        kinds = ["repeat"] * REPEATS + ["find_k"] * FIND_K
        kinds += ["new"] * (BLOCK - len(kinds))
        for kind in rng.permutation(kinds):
            recent = set(out[-REPEAT_MIN_AGE:])
            cached = [key for key in lru if key not in recent and key[0] == "query"]
            if kind == "repeat" and cached:
                key = _zipf_pick(rng, sorted(cached, key=lambda k: popularity[k[1]]))
            else:
                rotation = rotations["find_k" if kind == "find_k" else "new"]
                key = next(k for k in rotation if k not in lru)
            out.append(key)
            lru[key] = True
            lru.move_to_end(key)
            while len(lru) > RESULT_CACHE:
                lru.popitem(last=False)
    return out[:count]


def closed_loop_stream(seed: int, count: int) -> list[tuple]:
    """``count`` keys for the closed-loop phase, in turns of :data:`TURN`:
    every query key and one ``/find_k`` slot in a seeded order that each
    turn repeats; the slot walks the ``/find_k`` keys. A query key recurs
    after ``TURN - 1`` other keys, a ``/find_k`` key after
    ``len(FIND_K_KEYS) * TURN - 1``: more than the result cache holds, so
    none is cached when it recurs."""
    rng = data.rng_for(seed, 8)
    slots = [("query", key) for key in QUERY_KEYS] + [None]
    order = [slots[i] for i in rng.permutation(len(slots))]
    finds = itertools.cycle(
        [("find_k", FIND_K_KEYS[i]) for i in rng.permutation(len(FIND_K_KEYS))])
    return [order[i % TURN] or next(finds) for i in range(count)]
