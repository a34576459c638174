"""Scenario layer: specs, registry, runner and CLI."""

import numpy as np
import pytest

from repro.scenarios import (
    AlgorithmSpec,
    AttackSpec,
    DynamicSpec,
    Scenario,
    ServiceSpec,
    TopologySpec,
    WorkloadSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.scenarios.__main__ import main as scenarios_main

SEEDED = ("static-powerlaw", "churn-heavy", "collusion-under-churn", "free-riding-500k")
ATTACK_SEEDED = ("slander-under-churn", "sybil-flood-100k", "oscillating-colluders")


class TestCatalogue:
    def test_seeded_scenarios_registered(self):
        names = available_scenarios()
        for expected in SEEDED + ATTACK_SEEDED:
            assert expected in names

    def test_unknown_scenario_lists_catalogue(self):
        with pytest.raises(KeyError, match="static-powerlaw"):
            get_scenario("bogus")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("static-powerlaw")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)


class TestSpecValidation:
    def test_bad_topology_kind(self):
        with pytest.raises(ValueError, match="topology kind"):
            TopologySpec(kind="torus")

    def test_bad_workload_kind(self):
        with pytest.raises(ValueError, match="workload kind"):
            WorkloadSpec(kind="bogus")

    def test_bad_attack(self):
        with pytest.raises(ValueError, match="fraction"):
            AttackSpec(fraction=0.0)
        with pytest.raises(ValueError, match="group_size"):
            AttackSpec(group_size=0)

    def test_attack_family_params_validated_at_construction(self):
        # Bad per-family knobs fail when the spec is built, not mid-run.
        with pytest.raises(ValueError, match="period"):
            AttackSpec(kind="on-off", period=0)
        with pytest.raises(ValueError, match="on_epochs"):
            AttackSpec(kind="on-off", period=2, on_epochs=3)
        with pytest.raises(ValueError, match="victim_fraction"):
            AttackSpec(kind="slandering", victim_fraction=1.0)
        with pytest.raises(ValueError, match="sybil_fraction"):
            AttackSpec(kind="sybil", sybil_fraction=0.0)
        with pytest.raises(ValueError, match="newcomer_trust"):
            AttackSpec(kind="whitewashing", newcomer_trust=1.5)

    def test_attack_kind_validated_against_registry(self):
        with pytest.raises(ValueError, match="available"):
            AttackSpec(kind="ddos")
        # Each family has one name: "bad-mouthing" is spelled "slandering".
        with pytest.raises(ValueError, match="available"):
            AttackSpec(kind="bad-mouthing")
        from repro.attacks.models import SlanderingModel

        spec = AttackSpec(kind="slandering", fraction=0.2)
        assert isinstance(spec.build(seed=1), SlanderingModel)

    def test_attack_spec_builds_every_family(self):
        from repro.attacks.models import (
            CollusionModel,
            OnOffModel,
            SybilFloodModel,
            WhitewashingAttackModel,
        )

        assert isinstance(AttackSpec(kind="collusion").build(seed=1), CollusionModel)
        assert isinstance(
            AttackSpec(kind="whitewashing").build(seed=1), WhitewashingAttackModel
        )
        on_off = AttackSpec(kind="on-off", max_victims=5).build(seed=1)
        assert isinstance(on_off, OnOffModel)
        assert on_off.inner is not None and on_off.inner.max_victims == 5
        assert isinstance(AttackSpec(kind="sybil").build(seed=1), SybilFloodModel)

    def test_trust_gclr_requires_attack(self):
        with pytest.raises(ValueError, match="AttackSpec"):
            Scenario(
                name="x",
                description="d",
                topology=TopologySpec(),
                workload=WorkloadSpec(kind="trust-gclr"),
            )

    @pytest.mark.parametrize(
        "axes, kind, reason",
        [
            (dict(workload=WorkloadSpec(kind="mean")), "sybil", "never applies"),
            (dict(workload=WorkloadSpec(kind="trust-global")), "sybil", "never applies"),
            (dict(workload=WorkloadSpec(kind="free-riding")), "collusion", "never applies"),
            (
                dict(workload=WorkloadSpec(kind="trust-global"), algorithm=AlgorithmSpec("eigentrust")),
                "slandering",
                "never applies",
            ),
            (dict(workload=WorkloadSpec(kind="mean"), service=ServiceSpec()), "whitewashing", "never applies"),
            (dict(workload=WorkloadSpec(kind="mean"), dynamic=DynamicSpec()), "collusion", "per-epoch hook"),
            (dict(workload=WorkloadSpec(kind="mean"), dynamic=DynamicSpec()), "slandering", "per-epoch hook"),
            (dict(workload=WorkloadSpec(kind="dual-rank")), "sybil", "grows the topology"),
        ],
        ids=[
            "mean-sybil",
            "trust-global-sybil",
            "free-riding-collusion",
            "algorithm-slandering",
            "service-whitewashing",
            "dynamic-collusion",
            "dynamic-slandering",
            "dual-rank-sybil",
        ],
    )
    def test_attack_the_runner_never_applies_is_rejected(self, axes, kind, reason):
        # Rejected before the topology is built: the run would otherwise
        # drop the attack without a word, count zero attack events, or
        # fail mid-run.
        with pytest.raises(ValueError, match=reason):
            Scenario(
                name="x",
                description="d",
                topology=TopologySpec(),
                attack=AttackSpec(kind=kind),
                **axes,
            )


class TestRunScenario:
    def test_static_powerlaw_small(self):
        result = run_scenario("static-powerlaw", small=True)
        assert result.backend == "sparse"  # auto at N=200
        assert result.num_nodes == 200
        assert result.converged_fraction == 1.0
        assert result.metrics["max_rel_error"] < 0.01

    def test_churn_heavy_small_stays_accurate(self):
        result = run_scenario("churn-heavy", small=True)
        assert result.metrics["loss_probability"] == 0.3
        # Mass-conserving self-push: churn slows mixing, never breaks it.
        assert result.metrics["max_abs_error"] < 0.01

    def test_collusion_under_churn_small(self):
        result = run_scenario("collusion-under-churn", small=True)
        assert result.metrics["num_colluders"] > 0
        assert result.metrics["rms_gclr"] >= 0.0
        assert result.metrics["rms_unweighted"] >= 0.0

    def test_slander_under_churn_small(self):
        result = run_scenario("slander-under-churn", small=True)
        assert result.metrics["rms_gclr"] > 0.0
        assert result.metrics["num_nodes_dirty"] == result.num_nodes
        assert result.metrics["loss_probability"] == 0.2

    def test_sybil_flood_small_enlarges_dirty_world(self):
        result = run_scenario("sybil-flood-100k", small=True)
        assert result.backend == "sparse"
        # A 10% swarm joined the poisoned run only.
        assert result.metrics["num_nodes_dirty"] == pytest.approx(
            1.1 * result.num_nodes, rel=0.01
        )
        assert result.metrics["rms_gclr"] > 0.0

    def test_million_peer_scenario_small_shape(self):
        result = run_scenario("million-peer", small=True)
        assert result.backend == "sparse"
        assert result.converged_fraction == 1.0
        assert result.metrics["mean_abs_error"] < 1e-3

    def test_oscillating_colluders_off_phase_cancels(self):
        result = run_scenario("oscillating-colluders", small=True)
        assert result.backend == "sparse"
        assert result.metrics["rms_gclr"] > 0.0
        # Honest phase under identical seeds: the poison vanishes.
        assert result.metrics["rms_gclr_off"] == 0.0

    def test_dynamic_scenario_carries_attack(self):
        from repro.scenarios import DynamicSpec

        scenario = Scenario(
            name="test-whitewash-churn",
            description="whitewashers cycling identities through churn epochs",
            topology=TopologySpec(kind="powerlaw", num_nodes=120, small_num_nodes=120, m=2),
            workload=WorkloadSpec(kind="mean"),
            dynamic=DynamicSpec(epochs=3, join_rate=0.02, leave_rate=0.02),
            attack=AttackSpec(kind="whitewashing", fraction=0.05),
            backend="sparse",
            xi=1e-5,
            max_steps=400,
            seed=77,
        )
        result = run_scenario(scenario)
        assert result.metrics["total_attack_events"] > 0
        assert result.metrics["final_mean_abs_error"] < 0.05

    def test_computing_vs_delegating_contains_cross_channel_slander(self):
        result = run_scenario("computing-vs-delegating", small=True)
        assert result.backend == "sparse"  # auto at N=200, V=2
        assert result.metrics["num_channels"] == 2.0
        assert result.converged_fraction == 1.0
        # Both channels reach their (post-attack) fixpoints via gossip.
        assert result.metrics["computing_mean_rel_error"] < 0.01
        assert result.metrics["delegating_mean_rel_error"] < 0.01
        # The slandered computing rank moves off the clean truth; the
        # honest delegating rank must stay at gossip-noise level.
        assert result.metrics["slander_shift_poisoned"] > 0.1
        assert result.metrics["slander_shift_contained"] < 1e-3
        assert (
            result.metrics["slander_shift_contained"]
            < result.metrics["slander_shift_poisoned"] / 100
        )

    def test_dual_rank_steers_on_off_targets_onto_victims(self):
        # An on-off attack is steered through its inner slandering
        # family, so its poisoned rank carries the attack, not noise.
        scenario = Scenario(
            name="test-dual-rank-on-off",
            description="dual rank under an on-off slandering attack",
            topology=TopologySpec(kind="powerlaw", num_nodes=400, small_num_nodes=400, m=2),
            workload=WorkloadSpec(kind="dual-rank", num_targets=20),
            attack=AttackSpec(kind="on-off", fraction=0.2, victim_fraction=0.05),
        )
        metrics = run_scenario(scenario).metrics
        assert metrics["slander_shift_poisoned"] >= 100 * metrics["slander_shift_contained"]

    def test_free_riding_small_detects_free_riders(self):
        result = run_scenario("free-riding-500k", small=True)
        assert result.backend == "sparse"
        assert result.metrics["detection_rate"] > 0.95
        assert result.metrics["false_positive_rate"] < 0.05

    def test_seed_reproducibility_and_override(self):
        a = run_scenario("churn-heavy", small=True, seed=123)
        b = run_scenario("churn-heavy", small=True, seed=123)
        c = run_scenario("churn-heavy", small=True, seed=124)
        assert a.steps == b.steps
        assert a.metrics == b.metrics
        assert a.metrics != c.metrics

    def test_service_soak_rates_are_timings_not_metrics(self):
        # Wall-clock rates live in `timings`, so two runs print the same
        # metric lines and a determinism diff can drop the `timing:` ones.
        a = run_scenario("service-soak", small=True)
        b = run_scenario("service-soak", small=True)
        assert a.metrics == b.metrics
        assert set(a.timings) == {"ingest_reports_per_second", "query_per_second"}
        timing_lines = [line for line in a.to_text().splitlines() if line.startswith("  timing: ")]
        assert len(timing_lines) == 2

    def test_backend_override(self):
        result = run_scenario("churn-heavy", small=True, backend="sparse")
        assert result.backend == "sparse"
        assert result.metrics["max_abs_error"] < 0.01

    def test_result_to_text_renders(self):
        result = run_scenario("static-powerlaw", small=True)
        text = result.to_text()
        assert "static-powerlaw" in text and "backend=sparse" in text

    def test_custom_scenario_composes(self):
        scenario = Scenario(
            name="test-er-mean",
            description="mean gossip on an ER graph",
            topology=TopologySpec(kind="erdos-renyi", num_nodes=120, small_num_nodes=120, p=0.06),
            workload=WorkloadSpec(kind="mean"),
            xi=1e-6,
            seed=9,
        )
        result = run_scenario(scenario)
        assert result.num_nodes == 120
        assert result.metrics["max_abs_error"] < 1e-3


class TestCli:
    def test_list(self, capsys):
        assert scenarios_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SEEDED:
            assert name in out

    def test_run_small(self, capsys):
        assert scenarios_main(["run", "static-powerlaw", "--small"]) == 0
        assert "max_rel_error" in capsys.readouterr().out

    def test_run_unknown_fails(self, capsys):
        assert scenarios_main(["run", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_with_overrides(self, capsys):
        assert (
            scenarios_main(
                ["run", "churn-heavy", "--small", "--seed", "5", "--backend", "sparse"]
            )
            == 0
        )
        assert "backend=sparse" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--workers", "--executor"])
    def test_run_rejects_retired_shard_flags(self, flag, capsys):
        with pytest.raises(SystemExit):
            scenarios_main(["run", "static-powerlaw", "--small", flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err


def test_free_riding_full_shape_uses_sparse_by_spec():
    scenario = get_scenario("free-riding-500k")
    assert scenario.topology.num_nodes == 500_000
    assert scenario.backend == "sparse"
    assert np.isfinite(scenario.xi)


class TestNetworkSpec:
    def _scenario(self, network, **overrides):
        from repro.scenarios import NetworkSpec  # noqa: F401 (re-export pin)

        base = dict(
            name="net-test",
            description="network-axis validation fixture",
            seed=1,
            topology=TopologySpec("powerlaw", num_nodes=120, small_num_nodes=60),
            workload=WorkloadSpec("mean"),
            network=network,
        )
        base.update(overrides)
        return Scenario(**base)

    def test_reexported_from_package(self):
        from repro.scenarios import NetworkSpec
        from repro.scenarios.spec import NetworkSpec as inner

        assert NetworkSpec is inner

    def test_validation(self):
        from repro.scenarios import NetworkSpec

        with pytest.raises(ValueError, match="loss"):
            NetworkSpec(loss=1.5)
        with pytest.raises(ValueError, match="regions >= 2"):
            NetworkSpec(partition_start=2.0, partition_duration=3.0)
        with pytest.raises(ValueError, match="regions >= 2"):
            NetworkSpec(inter_latency_mean=0.5)
        with pytest.raises(ValueError, match="partition_duration"):
            NetworkSpec(num_regions=2, partition_start=2.0, partition_duration=0.0)
        with pytest.raises(ValueError, match="regions must be >= 1"):
            NetworkSpec(num_regions=0)

    def test_latency_network_requires_mean_workload(self):
        from repro.scenarios import NetworkSpec

        with pytest.raises(ValueError, match="'mean' workload"):
            self._scenario(
                NetworkSpec(latency_mean=0.5),
                workload=WorkloadSpec("dual-rank"),
            )

    def test_build_link_shapes(self):
        from repro.network.conditions import LatencySpec, LinkModel, PartitionWindow
        from repro.scenarios import NetworkSpec

        assert NetworkSpec(loss=0.1).build_link() == LinkModel(0.1)
        assert NetworkSpec(latency_mean=0.5).build_link() == LinkModel(
            latency=LatencySpec("exponential", 0.5)
        )
        regional = NetworkSpec(
            num_regions=2, latency_mean=0.05, inter_latency_mean=0.5,
            partition_start=3.0, partition_duration=4.0,
        ).build_link()
        assert regional == LinkModel(
            latency=LatencySpec("exponential", 0.05),
            regions=2,
            inter_latency=LatencySpec("exponential", 0.5),
            partitions=(PartitionWindow(3.0, 4.0),),
        )
        assert regional.partitions[0].end == 7.0

    def test_epoch_partition_round_trip(self):
        from repro.scenarios import NetworkSpec

        spec = NetworkSpec(num_regions=3, partition_start=3, partition_duration=4)
        schedule = spec.epoch_partition()
        assert (schedule.start_epoch, schedule.heal_epoch, schedule.num_groups) == (3, 7, 3)
        assert NetworkSpec(num_regions=2).epoch_partition() is None


class TestNetworkScenarios:
    NAMES = ("wan-vs-lan", "flaky-region", "partition-under-attack")

    def test_registered(self):
        for name in self.NAMES:
            assert name in available_scenarios()
            get_scenario(name)

    def test_wan_vs_lan_small_runs_on_async(self):
        result = run_scenario(get_scenario("wan-vs-lan"), small=True)
        assert result.backend == "async"
        assert result.converged_fraction == 1.0
        assert result.metrics["max_abs_error"] < 1e-2
        assert any("network conditions" in note for note in result.notes)

    def test_flaky_region_small_converges_despite_flake(self):
        result = run_scenario(get_scenario("flaky-region"), small=True)
        assert result.backend == "async"
        assert result.converged_fraction == 1.0
        assert result.metrics["max_abs_error"] < 1e-2

    def test_partition_under_attack_small_heals(self):
        result = run_scenario(get_scenario("partition-under-attack"), small=True)
        assert result.metrics["partition_epochs"] == 4
        assert result.metrics["final_mean_abs_error"] < 1e-2
        assert any("scheduled partition" in note for note in result.notes)
