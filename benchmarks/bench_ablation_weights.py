"""Ablation — the GCLR weighting under collusion (eq. 17's damping).

The same collusion attack measured with weighting on
(a=4) vs off (a=1, every weight 1). Eq. 17 predicts the weighted error
is the unweighted error shrunk by N/(N + sum(w-1)); the benchmark
asserts the ordering and reports the measured ratio.
"""

from repro.attacks.collusion import group_colluders, select_colluders
from repro.core.weights import WeightParams
from repro.experiments.collusion_common import measure_collusion


def test_ablation_weighting_damps_collusion(benchmark, collusion_graph, collusion_trust):
    n = collusion_graph.num_nodes
    attack = group_colluders(select_colluders(n, 0.4, rng=22), 5)
    targets = list(range(0, n, 3))

    def run():
        weighted, _ = measure_collusion(
            collusion_graph, collusion_trust, attack,
            params=WeightParams(a=4.0, b=1.0), targets=targets, use_gossip=False,
        )
        unweighted, _ = measure_collusion(
            collusion_graph, collusion_trust, attack,
            params=WeightParams(a=1.0, b=1.0), targets=targets, use_gossip=False,
        )
        return weighted, unweighted

    weighted, unweighted = benchmark(run)
    assert weighted <= unweighted * 1.01  # weighting never amplifies the attack
    benchmark.extra_info["rms_weighted"] = round(weighted, 4)
    benchmark.extra_info["rms_unweighted"] = round(unweighted, 4)
    if unweighted > 0:
        benchmark.extra_info["damping"] = round(weighted / unweighted, 4)
