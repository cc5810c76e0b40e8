"""Fig. 6: scalability without aggregation (Sec. 7.2.2-7.2.3).

Fig. 6a sweeps g at d=4, k=7 (the paper states these values for this
experiment); Fig. 6b sweeps n at d=5 (the paper leaves k implicit; we
use k=8, the mid-range — recorded in docs/paper-map.md, Sec. 7).
"""

import pytest

from .conftest import bench_ksjq, dataset, scaled_n, skip_if_oversized


@pytest.mark.parametrize("algo", ["G", "D", "N"])
@pytest.mark.parametrize("g", [1, 2, 5, 10, 25, 50, 100])
@pytest.mark.benchmark(group="fig6a")
def test_fig6a_effect_of_join_groups(benchmark, algo, g):
    skip_if_oversized(scaled_n(), g)
    left, right = dataset(d=4, a=0, g=g)
    bench_ksjq(benchmark, algo, left, right, 7, None)


@pytest.mark.parametrize("algo", ["G", "D", "N"])
@pytest.mark.parametrize("paper_n", [100, 330, 1000, 3300, 10_000, 33_000])
@pytest.mark.benchmark(group="fig6b")
def test_fig6b_effect_of_dataset_size(benchmark, algo, paper_n):
    skip_if_oversized(scaled_n(paper_n), 10)
    left, right = dataset(paper_n=paper_n, d=5, a=0)
    bench_ksjq(benchmark, algo, left, right, 8, None)
