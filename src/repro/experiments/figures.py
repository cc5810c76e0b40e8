"""Experiment registry: one spec per figure of the paper (Figs. 1-11).

Sizes are in paper units (Table 7 defaults: n=3300, d=7, k=11, a=2,
g=10, independent, delta=10000); the harness scales them. Where the
paper leaves a sub-experiment's parameters implicit, the choice made
here is recorded in docs/paper-map.md (Sec. 7).
"""

from __future__ import annotations


from .spec import ExperimentSpec, SweepPoint

__all__ = ["FIGURES", "get_figure", "figure_ids"]


def _ksjq_point(label: str, **kw) -> SweepPoint:
    return SweepPoint(label=label, **kw)


def _build_registry() -> dict[str, ExperimentSpec]:
    figures: list[ExperimentSpec] = []

    # ---------------- Aggregate experiments (Sec. 7.1) ----------------
    figures.append(
        ExperimentSpec(
            figure="fig1a",
            title="Effect of k (aggregate; d=7, a=2)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"k={k}", d=7, a=2, k=k) for k in (8, 9, 10, 11)
            ),
            paper_shape=(
                "time rises sharply with k; G fastest, D pays dominator "
                "generation, N slowest (1.5-2x G)"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig1b",
            title="Effect of k (aggregate; d=6, a=1)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"k={k}", d=6, a=1, k=k) for k in (7, 8, 9, 10)
            ),
            paper_shape="same trend as fig1a at lower dimensionality",
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig2a",
            title="Effect of number of aggregate attributes a (d=7, k=11)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"a={a}", d=7, a=a, k=11) for a in (0, 1, 2, 3)
            ),
            paper_shape="running time increases with a; G < D < N throughout",
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig2b",
            title="Dimensionality medley (d, k, a)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"d={d},k={k},a={a}", d=d, a=a, k=k)
                for (d, k, a) in ((5, 7, 1), (5, 7, 2), (6, 7, 1), (6, 7, 2), (6, 8, 2))
            ),
            paper_shape=(
                "time increases with k and a but *decreases* with d at fixed k "
                "(larger d lowers k', making grouping and joins cheaper)"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig3a",
            title="Effect of number of join groups g (aggregate)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"g={g}", d=7, a=2, k=11, g=g)
                for g in (1, 2, 5, 10, 25, 50, 100)
            ),
            paper_shape=(
                "two opposing effects: more groups -> smaller join but more "
                "SN tuples; times peak at medium g"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig3b",
            title="Effect of dataset size n (aggregate)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"n={n}", n=n, d=7, a=2, k=11)
                for n in (100, 330, 1000, 3300, 10_000, 33_000)
            ),
            paper_shape=(
                "time grows ~quadratically in n (joined size n^2/g); G and D "
                "scale sublinearly in the joined size"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig4",
            title="Type of data distribution (aggregate)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(dist, d=7, a=2, k=11, distribution=dist)
                for dist in ("independent", "correlated", "anticorrelated")
            ),
            paper_shape="correlated fastest, anti-correlated slowest",
        )
    )

    # ---------------- No-aggregation experiments (Sec. 7.2) -----------
    figures.append(
        ExperimentSpec(
            figure="fig5a",
            title="Effect of k (no aggregation; d=5)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"k={k}", d=5, a=0, k=k) for k in (6, 7, 8, 9)
            ),
            paper_shape=(
                "time rises sharply with k; naive join time constant, so its "
                "join share dominates at low k"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig5b",
            title="Effect of d at fixed k (no aggregation)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"d={d},k={k}", d=d, a=0, k=k)
                for (d, k) in ((4, 7), (5, 7), (6, 7), (6, 11), (7, 11), (10, 11))
            ),
            paper_shape="at fixed k, larger d lowers k' and the total time drops",
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig6a",
            title="Effect of number of join groups g (no aggregation; d=4, k=7)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"g={g}", d=4, a=0, k=7, g=g)
                for g in (1, 2, 5, 10, 25, 50, 100)
            ),
            paper_shape="same two opposing effects as fig3a",
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig6b",
            title="Effect of dataset size n (no aggregation; d=5, k=8)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(f"n={n}", n=n, d=5, a=0, k=8)
                for n in (100, 330, 1000, 3300, 10_000, 33_000)
            ),
            paper_shape="drastic growth with n; sublinear in joined size for G/D",
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig7",
            title="Type of data distribution (no aggregation; d=5, k=8)",
            kind="ksjq",
            points=tuple(
                _ksjq_point(dist, d=5, a=0, k=8, distribution=dist)
                for dist in ("independent", "correlated", "anticorrelated")
            ),
            paper_shape="correlated fastest, anti-correlated slowest",
        )
    )

    # ---------------- Find-k experiments (Sec. 7.3) -------------------
    figures.append(
        ExperimentSpec(
            figure="fig8a",
            title="Find-k: effect of threshold delta (d=5, a=0)",
            kind="findk",
            series=("B", "R", "N"),
            points=tuple(
                SweepPoint(label=f"delta={delta}", d=5, a=0, delta=delta)
                for delta in (10, 100, 1000, 10_000, 100_000)
            ),
            paper_shape=(
                "N grows with delta; R fast for very large delta (bounds "
                "short-circuit); B always fastest"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig8b",
            title="Find-k: effect of dimensionality d (delta=10000, a=0)",
            kind="findk",
            series=("B", "R", "N"),
            points=tuple(
                SweepPoint(label=f"d={d}", d=d, a=0, delta=10_000)
                for d in (3, 4, 5, 7, 10)
            ),
            paper_shape=(
                "low d terminates fast; larger d searches a wider range; "
                "B 1.2-1.5x faster than R, N slower by 2-2.5x"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig9a",
            title="Find-k: effect of join groups g (d=5, delta=10000)",
            kind="findk",
            series=("B", "R", "N"),
            points=tuple(
                SweepPoint(label=f"g={g}", d=5, a=0, g=g, delta=10_000)
                for g in (1, 2, 5, 10, 25, 50, 100)
            ),
            paper_shape="no appreciable effect of g",
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig9b",
            title="Find-k: effect of dataset size n (d=5, delta=1000)",
            kind="findk",
            series=("B", "R", "N"),
            points=tuple(
                SweepPoint(label=f"n={n}", n=n, d=5, a=0, delta=1000)
                for n in (100, 330, 1000, 3300, 10_000, 33_000)
            ),
            paper_shape=(
                "small n: threshold unreachable, k=max returned fast; time "
                "grows with n; B most suitable throughout"
            ),
        )
    )
    figures.append(
        ExperimentSpec(
            figure="fig10",
            title="Find-k: type of data distribution (d=5, delta=10000)",
            kind="findk",
            series=("B", "R", "N"),
            points=tuple(
                SweepPoint(label=dist, d=5, a=0, delta=10_000, distribution=dist)
                for dist in ("independent", "correlated", "anticorrelated")
            ),
            paper_shape="correlated fastest, anti-correlated slowest",
        )
    )

    # ---------------- Real data (Sec. 7.4) ----------------------------
    figures.append(
        ExperimentSpec(
            figure="fig11",
            title="Real flight data (192 x 155, 13 hubs, a=2), k in {6,7,8}",
            kind="ksjq",
            points=tuple(
                SweepPoint(label=f"k={k}", dataset="flights", k=k, a=2, d=5)
                for k in (6, 7, 8)
            ),
            paper_shape=(
                "milliseconds overall; G best, then D, then N — same ordering "
                "as synthetic data"
            ),
        )
    )

    return {spec.figure: spec for spec in figures}


FIGURES: dict[str, ExperimentSpec] = _build_registry()


def get_figure(figure_id: str) -> ExperimentSpec:
    """Look up one figure spec by id (e.g. ``"fig3a"``)."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; known: {', '.join(sorted(FIGURES))}"
        ) from None


def figure_ids() -> list[str]:
    """All known figure ids, sorted."""
    return sorted(FIGURES)
