"""Unified backend registry, facade and cross-backend equivalence.

The load-bearing acceptance check lives here: every registered backend
(and the ``"auto"`` choice) must agree to 1e-8 on the shared fixture
topology, and the old per-variant entry points must keep working as
thin shims over the same registry.
"""

import numpy as np
import pytest

from repro.core.backend import (
    AUTO_MESSAGE_MAX_NODES,
    BackendCapabilityError,
    GossipConfig,
    available_backends,
    choose_backend_name,
    get_backend,
    register_backend,
    resolve_backend_name,
    run_backend,
)
from repro.core.differential import fixed_push_counts, resolve_push_counts
from repro.core.single_gclr import aggregate_single_gclr
from repro.core.single_global import aggregate_single_global
from repro.core.vector_gclr import aggregate_vector_gclr
from repro.core.vector_global import aggregate_vector_global
from repro.facade import aggregate
from repro.network.graph import Graph
from repro.network.topology_example import example_network
from tests.test_sharded_engine import ring_graph

TRUE_MEAN = 4.5  # mean of arange(10) on the fixture topology


@pytest.fixture
def fixture_values():
    return np.arange(10, dtype=np.float64)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert names == ("async", "message", "sparse")

    def test_vector_alias_resolves_to_dense(self):
        # "dense" and "vector" name the retired dense engine; both are
        # now aliases of the one vectorised engine, like "csr".
        for alias in ("dense", "vector", "csr"):
            assert resolve_backend_name(alias) == "sparse"
            assert get_backend(alias) is get_backend("sparse")

    def test_unknown_backend_raises_value_and_key_error(self):
        # "sharded" named the retired multi-process engine; no alias
        # quietly turns a request for worker processes into one process.
        for name in ("gpu", "sharded"):
            with pytest.raises(ValueError, match="engine"):
                get_backend(name)
            with pytest.raises(KeyError):
                get_backend(name)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("dense", get_backend("sparse"))

    def test_custom_backend_plugs_into_facade(self, fixture_values):
        class Recorder:
            name = "recorder-test"

            def __init__(self):
                self.calls = 0

            def run(self, graph, values, weights, *, extras=None, config=None):
                self.calls += 1
                return get_backend("sparse").run(
                    graph, values, weights, extras=extras, config=config
                )

        recorder = Recorder()
        register_backend("recorder-test", recorder, overwrite=True)
        out = aggregate(
            example_network(),
            fixture_values,
            GossipConfig(xi=1e-6, rng=3),
            backend="recorder-test",
        )
        assert recorder.calls == 1
        assert np.allclose(out.estimates, TRUE_MEAN, atol=1e-3)


class TestGossipConfig:
    def test_rejects_nonpositive_xi(self):
        with pytest.raises(ValueError, match="xi"):
            GossipConfig(xi=0.0)

    def test_rejects_k_and_push_counts_together(self):
        with pytest.raises(ValueError, match="not both"):
            GossipConfig(k=1, push_counts=np.ones(3, dtype=np.int64))

    def test_rejects_bad_k_loss_patience(self):
        with pytest.raises(ValueError, match="k"):
            GossipConfig(k=0)
        with pytest.raises(ValueError, match="loss_probability"):
            GossipConfig(loss_probability=1.5)
        with pytest.raises(ValueError, match="patience"):
            GossipConfig(patience=0)

    def test_resolved_push_counts(self, fig2_network):
        assert GossipConfig().resolved_push_counts(fig2_network) is None
        k1 = GossipConfig(k=1).resolved_push_counts(fig2_network)
        np.testing.assert_array_equal(k1, fixed_push_counts(fig2_network, 1))

    def test_loss_probability_does_not_perturb_engine_stream(self):
        # The loss model's stream is derived statelessly from the seed,
        # so a churn run and a loss-free run of the same seed draw
        # identical gossip targets — loss effects are isolatable.
        rng_plain, _ = GossipConfig(rng=7).materialize()
        rng_churn, loss = GossipConfig(rng=7, loss_probability=0.5).materialize()
        assert loss is not None
        np.testing.assert_array_equal(rng_plain.random(16), rng_churn.random(16))

    def test_loss_probability_materializes_seeded_model(self):
        config = GossipConfig(loss_probability=0.4, rng=11)
        _, loss = config.materialize()
        assert loss is not None and loss.loss_probability == 0.4
        # Same seed -> same loss draws (the model is re-derivable).
        _, loss2 = GossipConfig(loss_probability=0.4, rng=11).materialize()
        senders = np.arange(50)
        targets = (senders + 1) % 50
        np.testing.assert_array_equal(
            loss.apply(senders, targets), loss2.apply(senders, targets)
        )


class TestResolvePushCounts:
    """The deduplicated per-hub push-count contract (one definition)."""

    def test_default_is_differential_rule(self, fig2_network):
        from repro.core.differential import push_counts

        np.testing.assert_array_equal(
            resolve_push_counts(fig2_network), push_counts(fig2_network)
        )

    def test_strict_rejects_above_degree_and_zero(self, triangle):
        with pytest.raises(ValueError, match="degree"):
            resolve_push_counts(triangle, np.array([3, 1, 1]))
        with pytest.raises(ValueError, match="at least once"):
            resolve_push_counts(triangle, np.array([0, 1, 1]))

    def test_non_strict_clamps_oversized_counts_with_warning(self, triangle):
        from repro.core.differential import PushCountClampWarning

        with pytest.warns(PushCountClampWarning):
            counts = resolve_push_counts(triangle, np.array([5, 1, 1]), strict=False)
        np.testing.assert_array_equal(counts, [2, 1, 1])

    def test_shape_always_checked(self, triangle):
        with pytest.raises(ValueError, match="shape"):
            resolve_push_counts(triangle, np.ones(2, dtype=np.int64), strict=False)

    def test_returns_fresh_array(self, triangle):
        original = np.array([1, 1, 1])
        resolved = resolve_push_counts(triangle, original)
        resolved[0] = 2
        assert original[0] == 1


class TestCrossBackendEquivalence:
    """Acceptance: every backend agrees to 1e-8 on the fixture topology."""

    # "dense" rows below run through the alias of "sparse" that the
    # retired dense engine's name now resolves to.
    @pytest.mark.parametrize(
        "backend", ["message", "dense", "sparse", "async", "auto"]
    )
    def test_backend_hits_fixpoint_to_1e8(self, fixture_values, backend):
        out = run_backend(
            example_network(),
            fixture_values,
            np.ones(10),
            config=GossipConfig(xi=1e-10, rng=5, max_steps=100_000),
            backend=backend,
        )
        assert np.abs(out.estimates.reshape(-1) - TRUE_MEAN).max() < 1e-8
        assert out.converged.all()
        # Splitting conserves mass on every backend.
        assert float(out.values.sum()) == pytest.approx(float(fixture_values.sum()), rel=1e-9)
        assert float(out.weights.sum()) == pytest.approx(10.0, rel=1e-9)

    def test_backends_agree_pairwise(self, fixture_values):
        estimates = {
            name: run_backend(
                example_network(),
                fixture_values,
                np.ones(10),
                config=GossipConfig(xi=1e-10, rng=7, max_steps=100_000),
                backend=name,
            ).estimates.reshape(-1)
            for name in ("message", "sparse", "async")
        }
        names = sorted(estimates)
        for a in names:
            for b in names:
                np.testing.assert_allclose(
                    estimates[a], estimates[b], atol=1e-8, err_msg=f"{a} vs {b}"
                )


class TestAutoSelection:
    def test_policy_table(self):
        """The whole ``"auto"`` policy: rows are sizes, columns config shapes.

        Latency-bearing networks go async; N <= 64 goes to the message
        engine unless the config needs ``run_to_max`` or several
        channels; everything else runs on sparse, up to 250k nodes and
        beyond.
        """
        from repro.network.churn import PacketLossModel
        from repro.network.conditions import HomogeneousLink, LatencySpec

        columns = {
            "plain": GossipConfig(),
            "run_to_max": GossipConfig(run_to_max=True, max_steps=5),
            "num_channels=2": GossipConfig(num_channels=2),
            "latency": GossipConfig(
                network=HomogeneousLink(latency=LatencySpec("exponential", 0.5))
            ),
            "loss_model": GossipConfig(loss_model=PacketLossModel(0.2, rng=0)),
        }
        expected = {
            64: ["message", "sparse", "sparse", "async", "message"],
            65: ["sparse", "sparse", "sparse", "async", "sparse"],
            20_001: ["sparse", "sparse", "sparse", "async", "sparse"],
            250_001: ["sparse", "sparse", "sparse", "async", "sparse"],
        }
        actual = {
            n: [choose_backend_name(ring_graph(n), config) for config in columns.values()]
            for n in expected
        }
        assert actual == expected, list(columns)

    def test_small_graph_uses_message(self):
        assert choose_backend_name(example_network()) == "message"

    def test_medium_graph_uses_dense(self):
        # Just above the message engine's ceiling, auto runs the engine
        # that the name "dense" now resolves to: the one sparse engine.
        ring = ring_graph(AUTO_MESSAGE_MAX_NODES + 10)
        name = choose_backend_name(ring)
        assert name == "sparse"
        assert get_backend(name) is get_backend("dense")

    def test_large_graph_uses_sparse(self):
        assert choose_backend_name(ring_graph(20_001)) == "sparse"

    def test_run_to_max_skips_message(self):
        config = GossipConfig(run_to_max=True, max_steps=5)
        assert choose_backend_name(example_network(), config) == "sparse"

    def test_loss_model_config_falls_back_to_sparse_at_sharded_scale(self):
        # Both loss knobs stay on the sparse engine at 250k nodes.
        from repro.network.churn import PacketLossModel

        big = ring_graph(250_001)
        lossy = GossipConfig(loss_model=PacketLossModel(0.2, rng=0))
        assert choose_backend_name(big, lossy) == "sparse"
        seeded = GossipConfig(loss_probability=0.2, rng=0)
        assert choose_backend_name(big, seeded) == "sparse"


class TestCapabilityErrors:
    def test_message_rejects_run_to_max(self, fixture_values):
        with pytest.raises(BackendCapabilityError, match="run_to_max"):
            run_backend(
                example_network(),
                fixture_values,
                np.ones(10),
                config=GossipConfig(run_to_max=True, max_steps=5),
                backend="message",
            )

    def test_async_rejects_extras_loss_model_and_matrix_state(self, fixture_values):
        from repro.network.conditions import PacketLossModel

        g = example_network()
        with pytest.raises(BackendCapabilityError, match="extra"):
            run_backend(
                g, fixture_values, np.ones(10),
                extras={"count": np.ones(10)}, backend="async",
            )
        # Uniform loss_probability now runs natively (as an InstantLink);
        # only an explicit pre-built loss_model is rejected, because its
        # generator is not the derived link stream.
        with pytest.raises(BackendCapabilityError, match="link model"):
            run_backend(
                g, fixture_values, np.ones(10),
                config=GossipConfig(loss_model=PacketLossModel(0.2, rng=0)),
                backend="async",
            )
        with pytest.raises(BackendCapabilityError, match="scalar"):
            run_backend(g, np.ones((10, 3)), np.ones((10, 3)), backend="async")

    def test_async_rejects_synchronous_stop_knobs(self, fixture_values):
        with pytest.raises(BackendCapabilityError, match="patience"):
            run_backend(
                example_network(), fixture_values, np.ones(10),
                config=GossipConfig(patience=10), backend="async",
            )
        with pytest.raises(BackendCapabilityError, match="warmup"):
            run_backend(
                example_network(), fixture_values, np.ones(10),
                config=GossipConfig(warmup_steps=5), backend="async",
            )


class TestFacade:
    def test_array_input_estimates_mean(self, fixture_values):
        out = aggregate(example_network(), fixture_values, GossipConfig(xi=1e-7, rng=1))
        assert np.allclose(out.estimates, TRUE_MEAN, atol=1e-4)

    def test_vector_global_variant_matches_entry_point(self, pa_graph_small, small_trust):
        targets = [0, 3, 9]
        # The entry point defaults to backend="auto"; pin one engine so
        # both sides run the identical trajectory.
        old = aggregate_vector_global(
            pa_graph_small, small_trust, targets=targets, xi=1e-6, rng=17, backend="sparse"
        )
        new = aggregate(
            pa_graph_small,
            small_trust,
            GossipConfig(xi=1e-6, rng=17),
            backend="sparse",
            variant="vector-global",
            targets=targets,
        )
        np.testing.assert_array_equal(old.outcome.values, new.values)
        np.testing.assert_array_equal(old.outcome.weights, new.weights)

    def test_default_variant_is_vector_global(self, pa_graph_small, small_trust):
        out = aggregate(
            pa_graph_small, small_trust, GossipConfig(xi=1e-5, rng=19), backend="sparse"
        )
        assert out.values.shape == (pa_graph_small.num_nodes, pa_graph_small.num_nodes)

    def test_vector_gclr_variant_matches_entry_point(self, pa_graph_small, small_trust):
        targets = [1, 4, 7]
        old = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=targets, xi=1e-6, rng=23, backend="sparse"
        )
        new = aggregate(
            pa_graph_small,
            small_trust,
            GossipConfig(xi=1e-6, rng=23),
            backend="sparse",
            variant="vector-gclr",
            targets=targets,
        )
        np.testing.assert_array_equal(old.outcome.values, new.values)
        np.testing.assert_array_equal(old.outcome.extras["count"], new.extras["count"])

    def test_single_variants_match_entry_points(self, pa_graph_small, small_trust):
        old = aggregate_single_global(
            pa_graph_small, small_trust, 5, xi=1e-6, rng=29, backend="sparse"
        )
        new = aggregate(
            pa_graph_small,
            small_trust,
            GossipConfig(xi=1e-6, rng=29),
            backend="sparse",
            variant="single-global",
            target=5,
        )
        np.testing.assert_array_equal(old.outcome.values, new.values)
        old_gclr = aggregate_single_gclr(
            pa_graph_small, small_trust, 5, xi=1e-6, rng=31, backend="sparse"
        )
        new_gclr = aggregate(
            pa_graph_small,
            small_trust,
            GossipConfig(xi=1e-6, rng=31),
            backend="sparse",
            variant="single-gclr",
            target=5,
        )
        np.testing.assert_array_equal(old_gclr.outcome.values, new_gclr.values)

    def test_variant_validation(self, pa_graph_small, small_trust, fixture_values):
        with pytest.raises(ValueError, match="variant"):
            aggregate(pa_graph_small, small_trust, variant="bogus")
        with pytest.raises(ValueError, match="target"):
            aggregate(pa_graph_small, small_trust, variant="single-global")
        with pytest.raises(ValueError, match="TrustMatrix"):
            aggregate(example_network(), fixture_values, variant="vector-global")
        with pytest.raises(ValueError, match="mean"):
            aggregate(pa_graph_small, small_trust, variant="mean")
        with pytest.raises(ValueError, match="extras"):
            aggregate(
                pa_graph_small,
                small_trust,
                variant="vector-gclr",
                targets=[0],
                extras={"x": np.ones(pa_graph_small.num_nodes)},
            )

    def test_size_mismatch_rejected(self, fixture_values):
        with pytest.raises(ValueError, match="row per node"):
            aggregate(example_network(), fixture_values[:5])

    def test_duplicate_targets_rejected(self, pa_graph_small, small_trust):
        with pytest.raises(ValueError, match="distinct"):
            aggregate(pa_graph_small, small_trust, variant="vector-global", targets=[1, 1])
        with pytest.raises(ValueError, match="outside"):
            aggregate(pa_graph_small, small_trust, variant="vector-gclr", targets=[999])

    def test_isolated_designated_node_rejected(self, small_trust):
        # Node 59 isolated in a 60-node graph matching the trust matrix.
        lonely = Graph(60, [(i, i + 1) for i in range(58)])
        with pytest.raises(ValueError, match="isolated"):
            aggregate(
                lonely, small_trust, variant="vector-gclr", targets=[0], designated_node=59
            )


class TestVariantEntryPointsOnOtherBackends:
    """The old names now accept any registered backend."""

    def test_vector_gclr_on_sparse(self, pa_graph_small, small_trust):
        result = aggregate_vector_gclr(
            pa_graph_small, small_trust, targets=[0, 3, 9], xi=1e-6, rng=7, backend="sparse"
        )
        assert result.max_absolute_error < 0.01

    def test_single_global_engine_alias_still_works(self, pa_graph_small, small_trust):
        result = aggregate_single_global(
            pa_graph_small, small_trust, 2, xi=1e-6, rng=7, backend="vector"
        )
        assert result.max_relative_error < 0.01

    def test_single_global_on_sparse_backend(self, pa_graph_small, small_trust):
        result = aggregate_single_global(
            pa_graph_small, small_trust, 2, xi=1e-6, rng=7, backend="sparse"
        )
        assert result.max_relative_error < 0.01


class TestConfigAwareLayers:
    """Layers that consume the whole GossipConfig, not just engine knobs."""

    def test_collusion_impact_honours_push_rule(self, pa_graph_small, small_trust):
        from repro.attacks.collusion import group_colluders, select_colluders
        from repro.attacks.evaluate import collusion_impact

        attack = group_colluders(select_colluders(60, 0.2, rng=1), 3)
        differential = collusion_impact(
            pa_graph_small, small_trust, attack,
            targets=[0, 5, 9], config=GossipConfig(xi=1e-5, rng=4),
        )
        normal_push = collusion_impact(
            pa_graph_small, small_trust, attack,
            targets=[0, 5, 9], config=GossipConfig(xi=1e-5, rng=4, k=1),
        )
        # k=1 must actually flow through: fewer pushes per step.
        assert normal_push.clean_outcome.push_messages != differential.clean_outcome.push_messages
        # Both estimate the same fixpoint, so impacts stay comparable.
        assert normal_push.rms_gclr == pytest.approx(differential.rms_gclr, abs=0.05)

    def test_collusion_impact_churn_noise_cancels(self, pa_graph_small, small_trust):
        from repro.attacks.collusion import group_colluders, select_colluders
        from repro.attacks.evaluate import collusion_impact
        from repro.network.churn import PacketLossModel

        attack = group_colluders(select_colluders(60, 0.2, rng=2), 3)
        impact = collusion_impact(
            pa_graph_small, small_trust, attack,
            targets=[0, 5, 9],
            config=GossipConfig(xi=1e-5, rng=4, loss_probability=0.2),
        )
        assert np.isfinite(impact.rms_gclr)
        with pytest.raises(ValueError, match="loss_probability"):
            collusion_impact(
                pa_graph_small, small_trust, attack,
                config=GossipConfig(xi=1e-5, rng=4, loss_model=PacketLossModel(0.2, rng=0)),
            )

    def test_round_manager_reads_config_defaults(self, pa_graph_small, small_trust):
        from repro.core.rounds import GossipRoundManager
        from repro.core.weights import WeightParams

        params = WeightParams(a=3.0, b=0.6)
        manager = GossipRoundManager(
            pa_graph_small,
            config=GossipConfig(xi=1e-4, rng=5, params=params, delta=0.2),
        )
        assert manager._delta == 0.2
        assert manager._params is params
        assert manager._xi == 1e-4
        record = manager.run_round(small_trust, targets=[0, 1])
        assert record.total_opinions > 0


class TestCsrRoundTripWithIsolatedNodes:
    """Graph.to_scipy_csr / from_csr keep isolated nodes intact."""

    @pytest.fixture
    def graph_with_isolates(self):
        # Nodes 3 and 5 are isolated (degree 0).
        return Graph(6, [(0, 1), (1, 2), (0, 2), (2, 4)])

    def test_scipy_round_trip(self, graph_with_isolates):
        rebuilt = Graph.from_scipy_sparse(graph_with_isolates.to_scipy_csr())
        assert rebuilt == graph_with_isolates
        assert rebuilt.degree(3) == 0 and rebuilt.degree(5) == 0

    def test_raw_csr_round_trip(self, graph_with_isolates):
        rebuilt = Graph.from_csr(
            graph_with_isolates.num_nodes,
            graph_with_isolates.indptr,
            graph_with_isolates.indices,
        )
        assert rebuilt == graph_with_isolates
        np.testing.assert_array_equal(rebuilt.degrees, graph_with_isolates.degrees)

    def test_gossip_skips_isolates_on_all_backends(self, graph_with_isolates):
        values = np.arange(6, dtype=np.float64)
        for backend in ("message", "sparse"):
            out = run_backend(
                graph_with_isolates,
                values,
                np.ones(6),
                config=GossipConfig(xi=1e-8, rng=3),
                backend=backend,
            )
            connected = [0, 1, 2, 4]
            expected = values[connected].mean()
            assert np.allclose(out.estimates.reshape(-1)[connected], expected, atol=1e-5)
            # Isolated nodes keep their own value (they never gossip).
            assert out.estimates.reshape(-1)[3] == pytest.approx(3.0)
            assert out.estimates.reshape(-1)[5] == pytest.approx(5.0)


class TestNetworkAxis:
    """The ``network=`` axis: validation, capability errors, byte-identity."""

    def test_network_must_be_a_link_model(self):
        with pytest.raises(ValueError, match="LinkModel"):
            GossipConfig(network=0.3)

    def test_network_excludes_legacy_loss_knobs(self, fixture_values):
        from repro.network.conditions import InstantLink, PacketLossModel

        with pytest.raises(ValueError, match="not both"):
            GossipConfig(network=InstantLink(0.1), loss_probability=0.2)
        with pytest.raises(ValueError, match="not both"):
            GossipConfig(network=InstantLink(0.1), loss_model=PacketLossModel(0.2, rng=0))

    @pytest.mark.parametrize("backend", ["message", "dense", "sparse"])
    def test_sync_backends_reject_latency_models(self, fixture_values, backend):
        from repro.network.conditions import HomogeneousLink, LatencySpec

        config = GossipConfig(
            rng=1, network=HomogeneousLink(latency=LatencySpec("exponential", 0.5))
        )
        with pytest.raises(BackendCapabilityError, match="step-synchronous"):
            run_backend(
                example_network(), fixture_values, np.ones(10),
                config=config, backend=backend,
            )

    def test_sync_backends_reject_per_edge_loss(self, fixture_values):
        from repro.network.conditions import RegionalLinkModel

        config = GossipConfig(
            rng=1, network=RegionalLinkModel(2, intra_loss=0.0, inter_loss=0.3)
        )
        with pytest.raises(BackendCapabilityError, match="per-edge"):
            run_backend(
                example_network(), fixture_values, np.ones(10),
                config=config, backend="sparse",
            )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_loss_only_network_byte_identical_to_loss_probability(
        self, fixture_values, backend
    ):
        from repro.network.conditions import InstantLink

        legacy = run_backend(
            example_network(), fixture_values, np.ones(10),
            config=GossipConfig(xi=1e-8, rng=11, loss_probability=0.3),
            backend=backend,
        )
        linked = run_backend(
            example_network(), fixture_values, np.ones(10),
            config=GossipConfig(xi=1e-8, rng=11, network=InstantLink(0.3)),
            backend=backend,
        )
        assert linked.steps == legacy.steps
        assert np.array_equal(linked.values, legacy.values)
        assert np.array_equal(linked.weights, legacy.weights)

    def test_uniform_regional_loss_resolves_on_sync_backends(self, fixture_values):
        from repro.network.conditions import RegionalLinkModel

        out = run_backend(
            example_network(), fixture_values, np.ones(10),
            config=GossipConfig(
                xi=1e-8, rng=2,
                network=RegionalLinkModel(2, intra_loss=0.2, inter_loss=0.2),
            ),
            backend="sparse",
        )
        assert np.allclose(out.estimates, TRUE_MEAN, atol=1e-4)

    def test_auto_steers_latency_models_to_async(self):
        from repro.network.conditions import HomogeneousLink, InstantLink, LatencySpec

        latency = GossipConfig(
            network=HomogeneousLink(latency=LatencySpec("exponential", 0.5))
        )
        assert choose_backend_name(example_network(), latency) == "async"
        # Loss-only models keep the ordinary size-based policy.
        loss_only = GossipConfig(network=InstantLink(0.3))
        assert choose_backend_name(example_network(), loss_only) == "message"

    def test_async_runs_latency_network_end_to_end(self, fixture_values):
        from repro.network.conditions import HomogeneousLink, LatencySpec

        out = run_backend(
            example_network(), fixture_values, np.ones(10),
            config=GossipConfig(
                xi=1e-5, rng=4,
                network=HomogeneousLink(0.05, latency=LatencySpec("exponential", 0.2)),
            ),
            backend="auto",
        )
        assert float(out.values.sum()) == pytest.approx(45.0, rel=1e-9)
        assert np.allclose(out.estimates, TRUE_MEAN, atol=5e-2)

    def test_async_loss_probability_matches_instant_link(self, fixture_values):
        from repro.network.conditions import InstantLink

        legacy = run_backend(
            example_network(), fixture_values, np.ones(10),
            config=GossipConfig(xi=1e-5, rng=6, loss_probability=0.2),
            backend="async",
        )
        linked = run_backend(
            example_network(), fixture_values, np.ones(10),
            config=GossipConfig(xi=1e-5, rng=6, network=InstantLink(0.2)),
            backend="async",
        )
        assert np.array_equal(linked.values, legacy.values)
        assert np.array_equal(linked.weights, legacy.weights)
