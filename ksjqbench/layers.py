"""Layer boundaries the traced run wraps, and the per-layer metrics.

Each :class:`~trace.Target` names a public function (or the one private
entry point a layer has) of ``repro.api``, ``repro.core``,
``repro.relational``, ``repro.skyline`` or ``repro.serving``. Span names
become metric prefixes: ``plan.compatible_pairs`` yields
``plan.compatible_pairs.self_s`` and ``plan.compatible_pairs.calls``.
"""

from __future__ import annotations

from spans import Target

#: Algorithms ``choose_algorithm`` / ``choose_cascade_algorithm`` can pick.
ALGORITHMS = ("grouping", "dominator", "naive", "cartesian", "parallel",
              "indexed", "pruned")


def _rows_out(args, kwargs, result):
    return {"plan.compatible_pairs.pairs_out": len(result)}


def _pairs_in(args, kwargs, result):
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    return {"join.oriented_for_pairs.rows": len(pairs)}


def _vectors_in(args, kwargs, result):
    return {"dominance.k_dominated_any.rows": len(result)}


def _verified(args, kwargs, result):
    return {"verify.answer_rows": result.count, "verify.checked": result.checked}


def _picked(args, kwargs, result):
    return {f"engine.choose.picks.{result[0]}": 1}


def _find_k_evaluations(args, kwargs, result):
    return {"find_k.evaluations": len(result.steps)}


TARGETS = [
    # repro.api
    Target("repro.api.engine:Engine.execute", "engine.execute"),
    Target("repro.api.engine:Engine.explain", "engine.explain"),
    Target("repro.api.engine:Engine.maintain", "engine.maintain"),
    Target("repro.api.engine:choose_algorithm", "engine.choose_algorithm", _picked),
    Target("repro.api.engine:choose_cascade_algorithm", "engine.choose_algorithm",
           _picked),
    # repro.core: plan, targets, algorithms, find_k, cascade, index, parallel,
    # incremental
    Target("repro.core.plan:JoinPlan.compatible_pairs", "plan.compatible_pairs",
           _rows_out),
    Target("repro.core.plan:JoinPlan.categorize_left", "plan.categorize"),
    Target("repro.core.plan:JoinPlan.categorize_right", "plan.categorize"),
    Target("repro.core.plan:JoinPlan.view", "plan.view"),
    Target("repro.core.plan:JoinPlan.stats", "plan.stats"),
    Target("repro.core.targets:target_rows_exact", "targets.target_rows_exact"),
    Target("repro.core.grouping:run_grouping", "algo.grouping", _verified),
    Target("repro.core.dominator:run_dominator", "algo.dominator", _verified),
    Target("repro.core.naive:run_naive", "algo.naive"),
    Target("repro.core.cartesian:run_cartesian", "algo.cartesian"),
    Target("repro.core.find_k:find_k_at_least_delta", "find_k", _find_k_evaluations),
    Target("repro.core.find_k:find_k_at_most_delta", "find_k", _find_k_evaluations),
    Target("repro.core.cascade:run_cascade_pruned", "cascade"),
    Target("repro.core.cascade:run_cascade_naive", "cascade"),
    Target("repro.core.index:DominanceIndex.build", "index.build"),
    Target("repro.core.index:run_indexed", "index.run_indexed"),
    Target("repro.core.index:run_cascade_indexed", "index.run_indexed"),
    Target("repro.core.parallel:run_parallel", "parallel.run_parallel"),
    Target("repro.core.parallel:run_cascade_parallel", "parallel.run_parallel"),
    # The delta-maintenance layer's entry point is the engine's routing hook.
    Target("repro.core.incremental:MaintainedResult._on_delta", "incremental"),
    Target("repro.core.incremental:MaintainedResult.result", "incremental.result"),
    # repro.relational
    Target("repro.relational.join:JoinedView.oriented_for_pairs",
           "join.oriented_for_pairs", _pairs_in),
    Target("repro.relational.dataset:Dataset.insert_rows", "dataset.insert_rows"),
    Target("repro.relational.dataset:Dataset.delete_rows", "dataset.delete_rows"),
    # repro.skyline
    Target("repro.skyline.dominance:is_k_dominated", "dominance.is_k_dominated"),
    Target("repro.skyline.dominance:k_dominated_any", "dominance.k_dominated_any",
           _vectors_in),
    Target("repro.skyline.kdominant:k_dominant_candidates_block",
           "kdominant.candidates_block"),
    # repro.serving: the request boundary is the server's router.
    Target("repro.serving.server:KSJQServer._dispatch", "serving.request"),
    Target("repro.serving.protocol:json_response", "serving.encode"),
]
