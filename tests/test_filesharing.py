"""Integration-grade tests for the file-sharing simulation."""

import numpy as np
import pytest

import repro.core.backend as backend_mod
import repro.simulation.filesharing as filesharing
from repro.core.vector_gclr import true_vector_gclr
from repro.core.weights import WeightParams
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.simulation.filesharing import (
    FileSharingSimulation,
    SimulationConfig,
    SimulationReport,
)
from repro.simulation.peer import (
    cooperative_profile,
    free_rider_profile,
    whitewasher_profile,
)


def _world(n=40, horizon=40.0, seed=0, free_rider_every=4, **config_kwargs):
    graph = preferential_attachment_graph(n, m=2, rng=seed)
    profiles = [
        free_rider_profile() if i % free_rider_every == 0 else cooperative_profile()
        for i in range(n)
    ]
    config = SimulationConfig(horizon=horizon, aggregation_interval=10.0, **config_kwargs)
    return graph, profiles, config


class TestBasicRun:
    def test_produces_transactions(self):
        graph, profiles, config = _world()
        sim = FileSharingSimulation(graph, profiles, config, rng=1)
        report = sim.run()
        assert report.transactions > 0
        assert set(report.by_profile) == {"cooperative", "free_rider"}

    def test_aggregation_rounds_match_interval(self):
        graph, profiles, config = _world(horizon=35.0)
        sim = FileSharingSimulation(graph, profiles, config, rng=2)
        report = sim.run()
        assert report.aggregation_rounds == 3  # t = 10, 20, 30

    def test_deterministic_from_seed(self):
        graph, profiles, config = _world()
        a = FileSharingSimulation(graph, profiles, config, rng=7).run()
        b = FileSharingSimulation(graph, profiles, config, rng=7).run()
        assert a.transactions == b.transactions
        assert a.by_profile["cooperative"].downloads == b.by_profile["cooperative"].downloads

    def test_profile_count_validation(self):
        graph, profiles, config = _world()
        with pytest.raises(ValueError, match="one profile per node"):
            FileSharingSimulation(graph, profiles[:-1], config)


class TestReputationEffect:
    def test_free_riders_starve_under_reputation(self):
        graph, profiles, config = _world(n=60, horizon=60.0)
        sim = FileSharingSimulation(graph, profiles, config, rng=3)
        report = sim.run()
        assert report.success_ratio("cooperative", "free_rider") > 1.3

    def test_anarchy_baseline_is_fairer_to_free_riders(self):
        graph, profiles, config = _world(n=60, horizon=60.0)
        with_rep = FileSharingSimulation(graph, profiles, config, rng=4).run()
        without_rep = FileSharingSimulation(
            graph, profiles, config, rng=4, use_reputation=False
        ).run()
        assert (
            with_rep.success_ratio("cooperative", "free_rider")
            > without_rep.success_ratio("cooperative", "free_rider")
        )

    def test_reputation_matrix_available_after_run(self):
        graph, profiles, config = _world()
        sim = FileSharingSimulation(graph, profiles, config, rng=5)
        assert sim.reputation_matrix is None
        sim.run()
        assert sim.reputation_matrix is not None
        assert sim.reputation_matrix.shape == (40, 40)

    def test_trust_matrix_snapshot(self):
        graph, profiles, config = _world()
        sim = FileSharingSimulation(graph, profiles, config, rng=6)
        sim.run()
        trust = sim.trust_matrix()
        assert trust.num_observations > 0
        for _, _, value in trust.items():
            assert 0.0 <= value <= 1.0


class TestGossipAggregation:
    """``aggregation_backend`` runs a real differential gossip round."""

    @pytest.mark.parametrize("backend", ["sparse", "message"])
    def test_rounds_gossip_to_the_exact_reputations(self, backend, monkeypatch):
        params = WeightParams(a=3.0, b=0.5)
        graph, profiles, config = _world(
            aggregation_backend=backend, aggregation_xi=1e-6, gclr_params=params
        )
        chosen, rounds = [], []
        real_get_backend = backend_mod.get_backend
        monkeypatch.setattr(
            backend_mod,
            "get_backend",
            lambda name: chosen.append(backend_mod.resolve_backend_name(name))
            or real_get_backend(name),
        )
        real_aggregate = filesharing.aggregate_vector_gclr

        def recording_aggregate(graph, trust, **kwargs):
            result = real_aggregate(graph, trust, **kwargs)
            rounds.append((trust, kwargs["config"], result))
            return result

        monkeypatch.setattr(filesharing, "aggregate_vector_gclr", recording_aggregate)
        sim = FileSharingSimulation(graph, profiles, config, rng=5)
        report = sim.run()

        assert report.aggregation_rounds == len(rounds) == 4  # t = 10, 20, 30, 40
        assert chosen == [backend] * 4
        for trust, round_config, result in rounds:
            assert round_config.xi == 1e-6
            assert round_config.params is params
            assert result.outcome.steps > 0
            exact = true_vector_gclr(graph, trust, range(40), params)
            # 100 * xi: a round run at the default xi=1e-4 misses it.
            np.testing.assert_allclose(result.reputations, exact, atol=1e-4)
        # Peers are served the last round's gossip estimates.
        assert sim.reputation_matrix is rounds[-1][2].reputations


class TestWhitewashing:
    def test_whitewash_events_fire(self):
        graph = preferential_attachment_graph(30, m=2, rng=10)
        profiles = [
            whitewasher_profile(whitewash_interval=10.0) if i < 5 else cooperative_profile()
            for i in range(30)
        ]
        config = SimulationConfig(horizon=45.0, aggregation_interval=15.0)
        sim = FileSharingSimulation(graph, profiles, config, rng=11)
        report = sim.run()
        assert report.whitewash_events >= 5 * 4  # resets at t=10,20,30,40 each

    def test_whitewashing_does_not_help_under_zero_policy(self):
        graph = preferential_attachment_graph(40, m=2, rng=12)

        def build(profile_factory):
            profiles = [
                profile_factory() if i < 8 else cooperative_profile() for i in range(40)
            ]
            config = SimulationConfig(horizon=60.0, aggregation_interval=15.0)
            return FileSharingSimulation(graph, profiles, config, rng=13).run()

        plain = build(free_rider_profile)
        washing = build(lambda: whitewasher_profile(whitewash_interval=15.0))
        plain_rate = plain.by_profile["free_rider"].download_success_rate
        washing_rate = washing.by_profile["whitewasher"].download_success_rate
        # Resetting identity must not meaningfully beat staying put.
        assert washing_rate <= plain_rate + 0.1


class TestReport:
    def test_success_ratio_handles_zero_division(self):
        report = SimulationReport(
            by_profile={
                "a": _summary("a", downloads=5, requests=10),
                "b": _summary("b", downloads=0, requests=10),
            },
            aggregation_rounds=0,
            whitewash_events=0,
            transactions=0,
        )
        assert report.success_ratio("a", "b") == float("inf")
        assert report.success_ratio("b", "a") == 0.0

    def test_mean_satisfaction_zero_when_no_downloads(self):
        summary = _summary("x", downloads=0, requests=3)
        assert summary.mean_satisfaction == 0.0
        assert summary.download_success_rate == 0.0


def _summary(name, *, downloads, requests):
    from repro.simulation.filesharing import ProfileSummary

    return ProfileSummary(
        profile_name=name,
        peers=1,
        requests=requests,
        downloads=downloads,
        lookup_failures=0,
        mean_satisfaction=0.0,
        uploads_served=0,
        uploads_declined=0,
    )
