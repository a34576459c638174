"""Unit tests for variant 4 (simultaneous GCLR — the full DGT system)."""

import numpy as np
import pytest

from repro.core import vector_gclr
from repro.core.backend import GossipConfig
from repro.core.vector_gclr import aggregate_vector_gclr, gclr_reputations, true_vector_gclr
from repro.core.weights import WeightParams
from repro.network.graph import Graph
from repro.trust.matrix import TrustMatrix, random_trust_matrix
from tests.reference_gclr import neighbor_corrections_loop, reference_gclr


class TestTrueVectorGclr:
    def test_columns_match_single_target_truth(self, pa_graph_small, small_trust):
        params = WeightParams()
        targets = [2, 8, 31]
        matrix = true_vector_gclr(pa_graph_small, small_trust, targets, params)
        for col, target in enumerate(targets):
            single = reference_gclr(pa_graph_small, small_trust, target, params)
            np.testing.assert_array_equal(matrix[:, col], single)

    def test_all_convention(self, pa_graph_small, small_trust):
        params = WeightParams()
        matrix = true_vector_gclr(pa_graph_small, small_trust, [5], params, "all")
        single = reference_gclr(pa_graph_small, small_trust, 5, params, "all")
        np.testing.assert_array_equal(matrix[:, 0], single)


class TestAggregation:
    def test_gossip_accuracy(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[0, 5, 9], config=GossipConfig(xi=1e-7, rng=1)
        )
        assert result.max_absolute_error < 0.02
        assert result.reputations.shape == (60, 3)

    def test_reputation_of_accessor(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[0, 5], config=GossipConfig(xi=1e-6, rng=2)
        )
        assert result.reputation_of(3, 5) == pytest.approx(
            float(result.reputations[3, 1])
        )
        with pytest.raises(KeyError):
            result.reputation_of(3, 42)

    def test_reputations_differ_across_estimators(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[5], config=GossipConfig(xi=1e-7, rng=3)
        )
        assert float(result.reputations[:, 0].std()) > 0.0

    def test_all_convention(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small,
            small_trust,
            targets=[5],
            config=GossipConfig(xi=1e-7, rng=4),
            denominator_convention="all",
        )
        assert result.max_absolute_error < 0.01

    def test_rejects_bad_inputs(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="distinct"):
            aggregate_vector_gclr(pa_graph_small, small_trust, targets=[1, 1])
        with pytest.raises(ValueError, match="non-empty"):
            aggregate_vector_gclr(pa_graph_small, small_trust, targets=[])
        with pytest.raises(ValueError, match="targets"):
            aggregate_vector_gclr(pa_graph_small, small_trust, targets=[-1])
        with pytest.raises(ValueError, match="denominator_convention"):
            aggregate_vector_gclr(
                pa_graph_small, small_trust, targets=[1], denominator_convention="x"
            )
        with pytest.raises(ValueError, match="nodes"):
            aggregate_vector_gclr(pa_graph_small, TrustMatrix(3), targets=[1])

    def test_deterministic(self, pa_graph_small, small_trust):
        config = GossipConfig(xi=1e-5, rng=7)
        a = aggregate_vector_gclr(pa_graph_small, small_trust, targets=[3], config=config)
        b = aggregate_vector_gclr(pa_graph_small, small_trust, targets=[3], config=config)
        assert np.array_equal(a.reputations, b.reputations)

    def test_weights_one_equals_vector_global(self, pa_graph_small, small_trust):
        # a=1 collapses GCLR to the plain global mean over observers.
        result = aggregate_vector_gclr(
            pa_graph_small,
            small_trust,
            targets=[5],
            config=GossipConfig(xi=1e-8, rng=8, params=WeightParams(a=1.0)),
        )
        expected = small_trust.column_mean_over_observers(5)
        assert np.allclose(result.reputations[:, 0], expected, atol=0.01)


PARAMS = [WeightParams(), WeightParams(16, 2)]


class TestEq6Product:
    """The sparse product adds the loop's terms in the loop's order."""

    @pytest.mark.parametrize("params", PARAMS, ids=["a4-b1", "a16-b2"])
    @pytest.mark.parametrize("extra_pairs", [0, 400], ids=["edges", "extra-pairs"])
    def test_terms_byte_equal_to_the_loop(self, pa_graph_small, params, extra_pairs):
        # extra_pairs adds opinions about non-neighbours, which eq. 6 must skip.
        trust = random_trust_matrix(pa_graph_small, extra_pairs=extra_pairs, rng=17)
        targets = np.arange(pa_graph_small.num_nodes)
        got = vector_gclr._neighbor_corrections_matrix(pa_graph_small, trust, targets, params)
        want = neighbor_corrections_loop(pa_graph_small, trust, targets, params)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "edges, triples",
        [
            ([], [(0, 1, 0.5), (3, 2, 0.7)]),  # no edges at all
            ([(0, 1), (1, 2)], []),  # no opinions at all
            ([(0, 1), (1, 2)], [(0, 3, 0.5), (3, 0, 0.7)]),  # opinions off the graph only
            ([(0, 1), (1, 2)], [(0, 1, 0.0), (1, 0, 0.0)]),  # zero excess everywhere
        ],
        ids=["edgeless", "empty", "off-graph", "zero-excess"],
    )
    def test_degenerate_matrices_match_the_loop(self, edges, triples):
        graph = Graph(4, edges)
        trust = TrustMatrix.from_arrays(4, *zip(*triples)) if triples else TrustMatrix(4)
        targets = np.arange(4)
        got = vector_gclr._neighbor_corrections_matrix(graph, trust, targets, WeightParams())
        want = neighbor_corrections_loop(graph, trust, targets, WeightParams())
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("params", PARAMS, ids=["a4-b1", "a16-b2"])
    @pytest.mark.parametrize("convention", ["observers", "all"])
    def test_results_byte_equal_to_the_loop(self, pa_graph_small, monkeypatch, params, convention):
        trust = random_trust_matrix(pa_graph_small, extra_pairs=400, rng=17)
        config = GossipConfig(xi=1e-5, rng=5, params=params)

        def run():
            return aggregate_vector_gclr(
                pa_graph_small, trust, config=config, denominator_convention=convention
            )

        got = run()
        monkeypatch.setattr(vector_gclr, "_neighbor_corrections_matrix", neighbor_corrections_loop)
        want = run()
        assert got.reputations.tobytes() == want.reputations.tobytes()
        assert got.true_reputations.tobytes() == want.true_reputations.tobytes()
        # The public pieces give the bytes the entry point shares out.
        targets = np.arange(pa_graph_small.num_nodes)
        assert gclr_reputations(
            pa_graph_small, trust, targets, got.outcome, params, convention
        ).tobytes() == got.reputations.tobytes()
        assert true_vector_gclr(
            pa_graph_small, trust, targets, params, convention
        ).tobytes() == got.true_reputations.tobytes()

    def test_one_call_computes_the_terms_once(self, pa_graph_small, small_trust, monkeypatch):
        calls = []
        compute = vector_gclr._neighbor_corrections_matrix

        def spy(*args):
            calls.append(args)
            return compute(*args)

        monkeypatch.setattr(vector_gclr, "_neighbor_corrections_matrix", spy)
        aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[0, 5, 9], config=GossipConfig(xi=1e-5, rng=1)
        )
        assert len(calls) == 1

    def test_a_repeated_target_gets_equal_columns(self, pa_graph_small, small_trust):
        # Every copy of a repeated target gets its neighbour terms (the
        # per-target dict of the old loop gave them to the last copy only).
        matrix = true_vector_gclr(pa_graph_small, small_trust, [5, 5], WeightParams())
        single = reference_gclr(pa_graph_small, small_trust, 5, WeightParams())
        np.testing.assert_array_equal(matrix[:, 0], single)
        np.testing.assert_array_equal(matrix[:, 1], single)

    def test_rejects_a_graph_larger_than_the_matrix(self, pa_graph_small):
        with pytest.raises(ValueError, match="60 nodes"):
            true_vector_gclr(pa_graph_small, TrustMatrix(10), [1], WeightParams())
