"""Fig. 7: effect of the data distribution without aggregation (Sec. 7.2.4).

Same shape as Fig. 4: anti-correlated slowest, correlated fastest.
The paper leaves (d, k) implicit for this figure; we use d=5, k=8
(recorded in docs/paper-map.md, Sec. 7).
"""

import pytest

from .conftest import bench_ksjq, dataset


@pytest.mark.parametrize("algo", ["G", "D", "N"])
@pytest.mark.parametrize("dist", ["independent", "correlated", "anticorrelated"])
@pytest.mark.benchmark(group="fig7")
def test_fig7_data_distribution(benchmark, algo, dist):
    left, right = dataset(d=5, a=0, distribution=dist)
    bench_ksjq(benchmark, algo, left, right, 8, None)
