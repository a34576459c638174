"""Algorithm registry, adapters, Absolute Trust, and tournament tests.

Pins the contracts ISSUE 10 introduced:

- registry round-trips (the name-table contract every registry
  shares is pinned in ``tests/test_registry.py``);
- the diff-gossip adapter is **byte-identical** to a direct
  ``repro.aggregate`` call at a fixed seed;
- the Absolute Trust fixpoint solves its defining equation and is
  seed-independent (the fixpoint is unique);
- every baseline solver routes ``rng`` through ``as_generator``
  (``None`` / int / ``Generator`` / ``SeedSequence`` all accepted);
- ``attack_impact(algorithm=...)`` measures any registered algorithm
  while the classic path stays unchanged;
- the scenario algorithm axis and the tournament leaderboard are
  deterministic from their seed.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import (
    AlgorithmOutcome,
    PreparedAlgorithm,
    UnknownAlgorithmError,
    available_algorithms,
    get_algorithm,
    register_algorithm,
    resolve_algorithm_name,
)
from repro.core.backend import BackendCapabilityError, GossipConfig
from repro.facade import aggregate
from repro.network.conditions import LinkModel
from repro.network.preferential_attachment import (
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)
from repro.trust.matrix import TrustMatrix, complete_trust_matrix, random_trust_matrix

CANONICAL = (
    "absolute-trust",
    "diff-gossip",
    "eigentrust",
    "flooding",
    "gossip-trust",
    "push-pull",
    "push-sum",
)


@pytest.fixture(scope="module")
def world():
    graph = preferential_attachment_graph(60, m=2, rng=5)
    trust = complete_trust_matrix(60, rng=6)
    return graph, trust


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert set(CANONICAL) <= set(available_algorithms())

    def test_available_sorted_canonical(self):
        names = available_algorithms()
        assert list(names) == sorted(names)
        assert "dgt" not in names  # one name per algorithm

    def test_resolve_returns_canonical(self):
        assert resolve_algorithm_name("push-pull") == "push-pull"
        # One name per algorithm: the short spellings are not canonical.
        with pytest.raises(UnknownAlgorithmError):
            resolve_algorithm_name("dgt")

    def test_register_round_trip(self, monkeypatch):
        from repro.algorithms import registry as registry_mod

        sentinel = get_algorithm("flooding")
        # Register into a copy of the table, so the entry cannot outlive the test.
        table = registry_mod._ALGORITHMS
        monkeypatch.setattr(table, "_entries", dict(table._entries))
        register_algorithm("test-rt", sentinel)
        assert get_algorithm("test-rt") is sentinel
        assert "test-rt" in available_algorithms()

    def test_duplicate_name_rejected_before_mutation(self):
        original = get_algorithm("diff-gossip")
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("diff-gossip", get_algorithm("flooding"))
        # the refused registration must not have replaced the entry
        assert get_algorithm("diff-gossip") is original

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_algorithm("", get_algorithm("flooding"))


# -- diff-gossip byte-identity ----------------------------------------------


class TestDiffGossipByteIdentity:
    @pytest.mark.parametrize("backend", ["sparse"])
    def test_adapter_matches_direct_facade_call(self, world, backend):
        graph, trust = world
        targets = [0, 3, 7, 11]
        direct = aggregate(
            graph, trust, GossipConfig(xi=1e-4, rng=7), backend=backend,
            variant="vector-global", targets=targets,
        )
        outcome = (
            get_algorithm("diff-gossip")
            .prepare(graph, trust, GossipConfig(xi=1e-4), targets=targets, backend=backend)
            .run(rng=7)
        )
        raw = outcome.raw
        assert np.array_equal(direct.values, raw.values)
        assert np.array_equal(direct.weights, raw.weights)
        assert direct.steps == raw.steps == outcome.rounds
        assert direct.total_messages == raw.total_messages == outcome.messages

    def test_prepared_config_seed_replays(self, world):
        graph, trust = world
        prepared = get_algorithm("diff-gossip").prepare(
            graph, trust, GossipConfig(xi=1e-4, rng=7), targets=[0, 3], backend="sparse"
        )
        # rng=None keeps the prepared config's seed — identical replay
        a = prepared.run()
        b = prepared.run()
        assert np.array_equal(a.estimates, b.estimates)
        assert a.rounds == b.rounds and a.messages == b.messages


# -- absolute trust ----------------------------------------------------------


class TestAbsoluteTrust:
    def test_fixpoint_solves_defining_equation(self, world):
        from repro.baselines.absolute_trust import absolute_trust_fixpoint

        _, trust = world
        result = absolute_trust_fixpoint(trust, tolerance=1e-12)
        assert result.converged
        t = result.values
        dense = trust.to_dense()
        mask = trust.observation_mask()
        # t_j = sum_{i in R_j} T_ij t_i / sum_{i in R_j} t_i — the dense
        # restatement of the arXiv:1601.01419 fixpoint.
        weights = np.where(mask, t[:, None], 0.0)
        denom = weights.sum(axis=0)
        numer = (weights * dense).sum(axis=0)
        expected = np.where(denom > 0, numer / np.where(denom == 0, 1.0, denom), 0.0)
        np.testing.assert_allclose(t, expected, atol=1e-9)

    def test_seed_independent_fixpoint(self, world):
        from repro.baselines.absolute_trust import absolute_trust_fixpoint

        _, trust = world
        reference = absolute_trust_fixpoint(trust).values
        for rng in (1, 2, np.random.default_rng(3), np.random.SeedSequence(4)):
            seeded = absolute_trust_fixpoint(trust, rng=rng)
            assert seeded.converged
            np.testing.assert_allclose(seeded.values, reference, atol=1e-7)

    def test_unobserved_peer_pinned_to_zero(self):
        from repro.baselines.absolute_trust import absolute_trust_fixpoint

        trust = TrustMatrix(4)
        trust.set(0, 1, 0.8)
        trust.set(1, 0, 0.6)
        trust.set(0, 2, 0.5)
        # node 3 was never observed: the newcomer convention pins it at 0
        result = absolute_trust_fixpoint(trust)
        assert result.values[3] == 0.0
        assert result.converged


# -- adapter surface ---------------------------------------------------------


class TestAdapters:
    @pytest.mark.parametrize("name", CANONICAL)
    def test_deterministic_and_well_formed(self, world, name):
        graph, trust = world
        targets = [0, 3, 7, 11]
        config = GossipConfig(xi=1e-4)
        algorithm = get_algorithm(name)
        a = algorithm.prepare(graph, trust, config, targets=targets).run(rng=11)
        b = algorithm.prepare(graph, trust, config, targets=targets).run(rng=11)
        assert isinstance(a, AlgorithmOutcome)
        assert a.algorithm == name
        assert a.estimates.shape == a.truth.shape == (len(targets),)
        assert a.rounds >= 1 or name == "flooding"
        assert a.messages > 0
        assert a.wall_clock_seconds >= 0.0
        assert a.messages_per_node == pytest.approx(a.messages / a.num_nodes)
        # same seed, same row — the tournament's determinism contract
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert (a.rounds, a.messages, a.converged) == (b.rounds, b.messages, b.converged)

    def test_flooding_exact_and_rng_ignored(self, world):
        graph, trust = world
        algorithm = get_algorithm("flooding")
        a = algorithm.prepare(graph, trust, targets=[1, 2]).run(rng=1)
        b = algorithm.prepare(graph, trust, targets=[1, 2]).run(rng=999)
        assert a.rms_error == 0.0  # flooding computes the exact observer mean
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert a.messages == b.messages

    def test_prepare_rejects_out_of_range_target(self, world):
        graph, trust = world
        with pytest.raises(ValueError, match="target"):
            get_algorithm("flooding").prepare(graph, trust, targets=[60])

    def test_default_targets_are_all_nodes(self, world):
        graph, trust = world
        outcome = get_algorithm("absolute-trust").prepare(graph, trust).run(rng=3)
        assert outcome.estimates.shape == (graph.num_nodes,)

    def test_protocol_runtime_checkable(self):
        from repro.algorithms.base import AggregationAlgorithm

        for name in CANONICAL:
            assert isinstance(get_algorithm(name), AggregationAlgorithm)

    def test_prepared_algorithm_type(self, world):
        graph, trust = world
        prepared = get_algorithm("push-pull").prepare(graph, trust, targets=[0])
        assert isinstance(prepared, PreparedAlgorithm)
        assert prepared.algorithm == "push-pull"

    def test_push_pull_rejects_a_lossy_network(self):
        # push-pull has no loss model: a loss setting must not run silently lossless.
        graph = preferential_attachment_graph(40, m=2, rng=5)
        trust = random_trust_matrix(graph, rng=6)
        lossy = GossipConfig(xi=1e-5, network=LinkModel(0.5))
        with pytest.raises(BackendCapabilityError, match="push-pull"):
            get_algorithm("push-pull").prepare(graph, trust, lossy, targets=[1, 2])
        # push-sum runs through the backend layer and applies the loss.
        push_sum = get_algorithm("push-sum")
        lossless = push_sum.prepare(graph, trust, GossipConfig(xi=1e-5), targets=[1, 2]).run(3)
        lossy_run = push_sum.prepare(graph, trust, lossy, targets=[1, 2]).run(3)
        assert lossy_run.rounds > lossless.rounds

    @pytest.mark.parametrize("name", ["push-sum", "push-pull"])
    def test_opinion_columns_without_a_dense_matrix(self, name):
        # Three opinion columns must not cost an (N, N) dense copy (68.7 MB at this N).
        graph = preferential_attachment_graph_fast(3000, m=4, rng=1)
        trust = random_trust_matrix(graph, rng=2)
        targets = [5, 7, 11]
        gc.collect()
        tracemalloc.start()
        try:
            prepared = get_algorithm(name).prepare(graph, trust, GossipConfig(), targets=targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        outcome = prepared.run(rng=4)
        expected = [trust.column_mean_over_all(t) for t in targets]
        np.testing.assert_array_equal(outcome.truth, expected)


# -- rng signature regression (satellite 1) ----------------------------------


RNG_FORMS = [
    None,
    17,
    np.random.default_rng(17),
    np.random.SeedSequence(17),
]


class TestRngSignatures:
    @pytest.mark.parametrize("rng", RNG_FORMS, ids=["none", "int", "generator", "seedseq"])
    def test_push_pull_average_accepts_rnglike(self, world, rng):
        from repro.baselines.push_pull import push_pull_average

        graph, _ = world
        values = np.linspace(0.0, 1.0, graph.num_nodes)
        outcome = push_pull_average(graph, values, xi=1e-3, rng=rng)
        assert outcome.values.shape[0] == graph.num_nodes

    @pytest.mark.parametrize("rng", RNG_FORMS, ids=["none", "int", "generator", "seedseq"])
    def test_normal_push_engine_accepts_rnglike(self, world, rng):
        from repro.core.differential import fixed_push_counts
        from repro.core.sparse_engine import SparseGossipEngine

        graph, _ = world
        engine = SparseGossipEngine(graph, push_counts=fixed_push_counts(graph, 1), rng=rng)
        values = np.ones(graph.num_nodes)
        outcome = engine.run(values, np.ones(graph.num_nodes), xi=1e-2)
        assert outcome.values.shape[0] == graph.num_nodes

    @pytest.mark.parametrize("rng", RNG_FORMS, ids=["none", "int", "generator", "seedseq"])
    def test_fixpoint_baselines_accept_rnglike(self, world, rng):
        from repro.baselines.absolute_trust import absolute_trust_fixpoint
        from repro.baselines.eigentrust import eigentrust_fixpoint
        from repro.baselines.gossip_trust import gossip_trust_fixpoint

        _, trust = world
        for solver in (absolute_trust_fixpoint, eigentrust_fixpoint, gossip_trust_fixpoint):
            result = solver(trust, rng=rng)
            assert result.values.shape == (trust.num_nodes,)

    def test_int_seed_determinism(self, world):
        from repro.baselines.push_pull import push_pull_average

        graph, _ = world
        values = np.linspace(0.0, 1.0, graph.num_nodes)
        a = push_pull_average(graph, values, xi=1e-3, rng=17)
        b = push_pull_average(graph, values, xi=1e-3, rng=17)
        assert np.array_equal(a.values, b.values)
        assert a.steps == b.steps

    def test_push_pull_vector_columns(self, world):
        from repro.baselines.push_pull import push_pull_average

        graph, _ = world
        n = graph.num_nodes
        columns = np.stack([np.linspace(0, 1, n), np.full(n, 3.0)], axis=1)
        outcome = push_pull_average(graph, columns, xi=1e-4, rng=2)
        assert outcome.values.shape == (n, 2)
        np.testing.assert_allclose(outcome.estimates.mean(axis=0), [0.5, 3.0], atol=1e-3)

    def test_push_pull_rejects_bad_shape(self, world):
        from repro.baselines.push_pull import push_pull_average

        graph, _ = world
        with pytest.raises(ValueError):
            push_pull_average(graph, np.ones((graph.num_nodes, 2, 2)))
        with pytest.raises(ValueError):
            push_pull_average(graph, np.ones(graph.num_nodes + 1))


# -- attack_impact(algorithm=) ----------------------------------------------


class TestAttackImpactAlgorithm:
    @pytest.fixture(scope="class")
    def attack_world(self):
        from repro.attacks.models import make_attack

        graph = preferential_attachment_graph(60, m=2, rng=5)
        trust = complete_trust_matrix(60, rng=6)
        model = make_attack("collusion", fraction=0.3, group_size=5, seed=2)
        return graph, trust, model

    def test_algorithm_path_reports_name_and_outcomes(self, attack_world):
        from repro.attacks.evaluate import attack_impact

        graph, trust, model = attack_world
        impact = attack_impact(
            graph, trust, model, config=GossipConfig(xi=1e-4, rng=9),
            algorithm="absolute-trust",
        )
        assert impact.algorithm == "absolute-trust"
        assert impact.clean_algo_outcome is not None
        assert impact.dirty_algo_outcome is not None
        assert impact.clean_outcome is None  # gossip-outcome fields unused
        assert impact.rms_gclr >= 0.0
        assert impact.backend is None  # not a backend-routed algorithm

    def test_algorithm_path_deterministic(self, attack_world):
        from repro.attacks.evaluate import attack_impact

        graph, trust, model = attack_world
        config = GossipConfig(xi=1e-4, rng=9)
        a = attack_impact(graph, trust, model, config=config, algorithm="diff-gossip")
        b = attack_impact(graph, trust, model, config=config, algorithm="diff-gossip")
        assert a.rms_gclr == b.rms_gclr
        assert a.backend == b.backend  # resolved once against the dirty world

    def test_algorithm_instance_accepted(self, attack_world):
        from repro.attacks.evaluate import attack_impact

        graph, trust, model = attack_world
        config = GossipConfig(xi=1e-4, rng=9)
        by_name = attack_impact(graph, trust, model, config=config, algorithm="flooding")
        by_instance = attack_impact(
            graph, trust, model, config=config, algorithm=get_algorithm("flooding")
        )
        assert by_name.rms_gclr == by_instance.rms_gclr

    def test_classic_path_untouched(self, attack_world):
        from repro.attacks.evaluate import attack_impact

        graph, trust, model = attack_world
        impact = attack_impact(graph, trust, model, config=GossipConfig(xi=1e-4, rng=9))
        assert impact.algorithm is None
        assert impact.clean_algo_outcome is None
        assert impact.clean_outcome is not None

    def test_series_shares_clean_run(self, attack_world):
        from repro.attacks.evaluate import attack_impact_series
        from repro.attacks.models import make_attack

        graph, trust, _ = attack_world
        model = make_attack("on-off", fraction=0.2, period=2, seed=3)
        series = attack_impact_series(
            graph, trust, model, epochs=4,
            config=GossipConfig(xi=1e-4, rng=9), algorithm="eigentrust",
        )
        assert len(series) == 4
        first_clean = series[0].clean_algo_outcome
        assert all(s.clean_algo_outcome is first_clean for s in series)
        # the off-phase epochs collapse to zero shift under shared seeds
        assert series[1].rms_gclr == pytest.approx(0.0, abs=1e-12)

    def test_sybil_restricts_to_honest_rows(self, attack_world):
        from repro.attacks.evaluate import attack_impact
        from repro.attacks.models import make_attack

        graph, trust, _ = attack_world
        model = make_attack("sybil", num_sybils=6, seed=4)
        impact = attack_impact(
            graph, trust, model, config=GossipConfig(xi=1e-4, rng=9),
            algorithm="diff-gossip",
        )
        assert impact.num_nodes_dirty == 66
        assert np.isfinite(impact.rms_gclr)


# -- scenario algorithm axis --------------------------------------------------


class TestAlgorithmSpec:
    def test_unknown_kind_rejected_at_construction(self):
        from repro.scenarios.spec import AlgorithmSpec

        with pytest.raises(UnknownAlgorithmError):
            AlgorithmSpec(kind="nope")

    def test_algorithm_requires_trust_global_workload(self):
        from repro.scenarios.spec import (
            AlgorithmSpec,
            Scenario,
            TopologySpec,
            WorkloadSpec,
        )

        with pytest.raises(ValueError, match="algorithm axis"):
            Scenario(
                name="bad",
                description="x",
                topology=TopologySpec(kind="example"),
                workload=WorkloadSpec(kind="mean"),
                algorithm=AlgorithmSpec(kind="flooding"),
            )

    def test_pinned_scenario_runs_deterministically(self):
        from repro.scenarios import run_scenario

        a = run_scenario("absolute-trust-powerlaw", small=True)
        b = run_scenario("absolute-trust-powerlaw", small=True)
        assert a.metrics == b.metrics
        assert (a.steps, a.push_messages) == (b.steps, b.push_messages)
        assert a.backend == "n/a"  # not a backend-routed algorithm
        assert "accuracy_rms" in a.metrics
        assert a.converged_fraction == 1.0


# -- tournament ---------------------------------------------------------------


class TestTournament:
    @pytest.fixture(scope="class")
    def tiny_record(self):
        from repro.experiments.tournament import build_leaderboard

        return build_leaderboard(
            seed=7,
            small=True,
            algorithms=("diff-gossip", "absolute-trust", "flooding"),
            scenarios=("collusion-under-churn",),
            attacks={"collusion": dict(fraction=0.3, group_size=5)},
            backends=("sparse",),
        )

    def test_schema(self, tiny_record):
        assert tiny_record["benchmark"] == "tournament"
        assert len(tiny_record["cells"]) == 3  # 1 backend-routed + 2 exact
        for cell in tiny_record["cells"]:
            for key in (
                "scenario", "algorithm", "backend", "accuracy_rms",
                "accuracy_max_abs", "rounds", "messages", "messages_per_node",
                "wall_clock_seconds", "converged", "attacks",
            ):
                assert key in cell
            for family_cell in cell["attacks"].values():
                assert {"shift_rms", "shift_unweighted", "amplification"} <= set(family_cell)
        assert [row["algorithm"] for row in tiny_record["leaderboard"]]

    def test_deterministic_leaderboard(self, tiny_record):
        import json

        from repro.experiments.tournament import build_leaderboard, strip_timing

        again = build_leaderboard(
            seed=7,
            small=True,
            algorithms=("diff-gossip", "absolute-trust", "flooding"),
            scenarios=("collusion-under-churn",),
            attacks={"collusion": dict(fraction=0.3, group_size=5)},
            backends=("sparse",),
        )
        assert json.dumps(strip_timing(tiny_record), sort_keys=True) == json.dumps(
            strip_timing(again), sort_keys=True
        )

    def test_strip_timing_removes_wall_clock_only(self, tiny_record):
        from repro.experiments.tournament import strip_timing

        stripped = strip_timing(tiny_record)
        assert all("wall_clock_seconds" not in c for c in stripped["cells"])
        assert all("total_wall_clock_seconds" not in r for r in stripped["leaderboard"])
        # everything else survives
        assert len(stripped["cells"]) == len(tiny_record["cells"])
        assert stripped["cells"][0]["messages"] == tiny_record["cells"][0]["messages"]

    def test_adversary_shared_across_algorithms(self, tiny_record):
        # every algorithm faced the same poisoned matrix: the unweighted
        # comparator (algorithm-independent) must be identical per cell
        unweighted = {
            cell["attacks"]["collusion"]["shift_unweighted"]
            for cell in tiny_record["cells"]
        }
        assert len(unweighted) == 1

    def test_committed_artifact_matches_regeneration(self):
        """BENCH_tournament.json regenerates bit-identically (timing aside)."""
        import json
        from pathlib import Path

        from repro.experiments.tournament import build_leaderboard, strip_timing

        path = Path(__file__).parent.parent / "BENCH_tournament.json"
        committed = json.loads(path.read_text())
        regenerated = build_leaderboard(
            seed=committed["seed"],
            small=committed["small"],
            xi=committed["xi"],
            num_targets=committed["num_targets"],
        )
        assert json.dumps(strip_timing(committed), sort_keys=True) == json.dumps(
            strip_timing(regenerated), sort_keys=True
        )
