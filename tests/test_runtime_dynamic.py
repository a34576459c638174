"""Dynamic runtime: churn traces, warm-start epochs, exactness invariants."""

import pytest

from repro import ChurnTrace, GossipConfig, MutableOverlay, run_dynamic
from repro.core.backend import BackendCapabilityError
from repro.runtime.dynamics import DynamicReputationRuntime
from repro.runtime.trace import EpochChurn
from repro.trust.newcomer_policy import DynamicNewcomerPolicy


def small_overlay(n=80, seed=3):
    return MutableOverlay.grow_preferential(n, m=2, rng=seed)


class TestChurnTrace:
    def test_steady_trace_is_deterministic(self):
        kwargs = dict(population=500, join_rate=0.02, leave_rate=0.03, seed=11)
        assert ChurnTrace.steady(6, **kwargs) == ChurnTrace.steady(6, **kwargs)

    def test_steady_rates_scale_counts(self):
        # Rates compound as the scheduled population grows, so bound the
        # first epoch tightly-ish and the horizon loosely.
        trace = ChurnTrace.steady(10, population=1000, join_rate=0.05, leave_rate=0.01, seed=2)
        assert trace.total_arrivals > trace.total_departures
        assert 20 <= trace.epochs[0].arrivals <= 90
        assert 10 * 1000 * 0.05 * 0.5 < trace.total_arrivals < 10 * 1000 * 0.05 * 3

    def test_departures_respect_min_population(self):
        trace = ChurnTrace.steady(
            50, population=20, join_rate=0.0, leave_rate=0.5, seed=3, min_population=10
        )
        assert 20 + trace.total_arrivals - trace.total_departures >= 10

    def test_flash_crowd_spikes_then_decays(self):
        trace = ChurnTrace.flash_crowd(
            8, population=1000, base_rate=0.001, spike_epoch=2, spike_fraction=0.4, seed=5
        )
        arrivals = [e.arrivals for e in trace]
        assert arrivals[2] == max(arrivals) and arrivals[2] > 300
        assert arrivals[4] < arrivals[3] < arrivals[2]
        # The surge churns back out afterwards.
        assert sum(e.departures for e in trace.epochs[3:]) > 200

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnTrace(())
        with pytest.raises(ValueError):
            EpochChurn(-1, 0)
        with pytest.raises(ValueError):
            ChurnTrace.steady(0, population=10, join_rate=0.1, leave_rate=0.1)
        with pytest.raises(ValueError):
            ChurnTrace.steady(5, population=10, join_rate=1.5, leave_rate=0.1)
        with pytest.raises(ValueError):
            ChurnTrace.flash_crowd(4, population=100, spike_epoch=9)


class TestRunDynamic:
    def test_replay_is_deterministic(self):
        trace = ChurnTrace.steady(4, population=80, join_rate=0.05, leave_rate=0.05, seed=7)
        runs = [
            run_dynamic(small_overlay(), trace, GossipConfig(delta=0.0), backend="sparse")
            for _ in range(2)
        ]
        for a, b in zip(runs[0].records, runs[1].records):
            payload_a, payload_b = a.to_dict(), b.to_dict()
            payload_a.pop("elapsed_seconds")
            payload_b.pop("elapsed_seconds")
            assert payload_a == payload_b

    def test_exact_mean_under_churn_with_zero_delta(self):
        # With Δ = 0 the warm-start invariant sum(v)/sum(w) == mean(x)
        # holds exactly through joins, leaves and drift.
        trace = ChurnTrace.steady(5, population=100, join_rate=0.08, leave_rate=0.08, seed=9)
        result = run_dynamic(
            small_overlay(100, seed=1),
            trace,
            GossipConfig(delta=0.0, max_steps=2000),
            backend="sparse",
            opinion_drift=0.2,
            epoch_tol=1e-7,
        )
        for record in result.records:
            assert record.converged_fraction == 1.0
            assert record.mean_abs_error < 1e-6
            assert record.max_abs_error < 1e-4

    def test_population_follows_trace(self):
        trace = ChurnTrace.steady(4, population=120, join_rate=0.1, leave_rate=0.02, seed=13)
        result = run_dynamic(small_overlay(120, seed=2), trace, backend="sparse")
        expected = 120
        for churn, record in zip(trace, result.records):
            expected += churn.arrivals - churn.departures
            assert record.num_peers == expected
            assert record.arrivals == churn.arrivals
            assert record.departures == churn.departures

    def test_warm_start_uses_fewer_steady_state_rounds(self):
        trace = ChurnTrace.steady(5, population=400, join_rate=0.005, leave_rate=0.005, seed=17)
        kwargs = dict(config=GossipConfig(delta=0.0), backend="sparse", opinion_drift=0.01)
        warm = run_dynamic(MutableOverlay.grow_preferential(400, m=2, rng=5), trace, **kwargs)
        cold = run_dynamic(
            MutableOverlay.grow_preferential(400, m=2, rng=5), trace, warm_start=False, **kwargs
        )
        # Epoch 0 is cold in both runs by construction.
        assert warm.records[0].steps == cold.records[0].steps
        assert not warm.records[0].warm and warm.records[1].warm
        assert warm.steady_state_steps < 0.5 * cold.steady_state_steps

    def test_auto_backend_on_tiny_overlay_picks_a_capable_engine(self):
        # Regression: the accuracy rule needs run_to_max, so "auto" must
        # skip the message engine even on <= 64-peer overlays instead of
        # selecting it and then rejecting it.
        trace = ChurnTrace.steady(2, population=50, join_rate=0.03, leave_rate=0.03, seed=1)
        result = run_dynamic(MutableOverlay.grow_preferential(50, m=2, rng=0), trace)
        assert result.backend == "sparse"
        assert all(r.converged_fraction == 1.0 for r in result.records)

    def test_accepts_plain_graph_input(self, pa_graph_small):
        trace = ChurnTrace.steady(2, population=60, join_rate=0.05, leave_rate=0.05, seed=19)
        result = run_dynamic(pa_graph_small, trace, backend="sparse")
        assert len(result.records) == 2

    def test_newcomer_policy_grants_and_observes(self):
        policy = DynamicNewcomerPolicy(max_initial_trust=0.3)
        trace = ChurnTrace.steady(3, population=80, join_rate=0.2, leave_rate=0.0, seed=23)
        overlay = small_overlay()
        runtime = DynamicReputationRuntime(
            overlay, config=GossipConfig(delta=0.0), backend="sparse", newcomer_policy=policy
        )
        runtime.run(trace)
        assert policy.join_rate() > 0  # every join was observed
        # Joiners' published opinions came from the policy (all below the cap).
        joiner_ids = [p for p in overlay.peer_ids() if p >= 80]
        assert joiner_ids
        opinions = runtime.opinions()
        pids = overlay.peer_ids().tolist()
        for pid in joiner_ids:
            assert opinions[pids.index(pid)] <= 0.3

    def test_delta_suppresses_small_repush(self):
        # With a huge Δ nothing is ever re-announced: published opinions
        # freeze at their initial values even under heavy drift.
        trace = ChurnTrace.steady(3, population=80, join_rate=0.0, leave_rate=0.0, seed=29)
        overlay = small_overlay()
        runtime = DynamicReputationRuntime(
            overlay, config=GossipConfig(delta=10.0), backend="sparse", opinion_drift=0.5
        )
        result = runtime.run(trace)
        assert result.records[-1].mean_abs_error < 1e-3

    def test_protocol_stop_rule_runs_engine_protocol(self):
        trace = ChurnTrace.steady(2, population=80, join_rate=0.02, leave_rate=0.02, seed=31)
        result = run_dynamic(
            small_overlay(),
            trace,
            GossipConfig(xi=1e-4, delta=0.0),
            backend="sparse",
            stop_rule="protocol",
        )
        assert all(r.converged_fraction == 1.0 for r in result.records)

    def test_protocol_stop_rule_supports_async_warm_epochs(self):
        # Regression: the shortened warm warmup must not be forced onto
        # the async backend (it has no per-step warmup and rejects it).
        trace = ChurnTrace.steady(2, population=80, join_rate=0.02, leave_rate=0.02, seed=47)
        result = run_dynamic(
            small_overlay(),
            trace,
            GossipConfig(xi=1e-3, delta=0.0),
            backend="async",
            stop_rule="protocol",
        )
        assert len(result.records) == 2 and result.records[1].warm

    def test_accuracy_rule_rejects_backends_without_run_to_max(self):
        # The event-driven engine has no steps to budget.
        trace = ChurnTrace.steady(2, population=80, join_rate=0.0, leave_rate=0.0, seed=37)
        with pytest.raises(BackendCapabilityError, match="async"):
            run_dynamic(small_overlay(), trace, backend="async")

    def test_accuracy_rule_runs_on_the_message_engine(self):
        # Both step-synchronous engines run the fixed-budget blocks.
        trace = ChurnTrace.steady(2, population=80, join_rate=0.02, leave_rate=0.02, seed=37)
        result = run_dynamic(small_overlay(), trace, GossipConfig(delta=0.0), backend="message")
        assert all(r.converged_fraction == 1.0 for r in result.records)
        assert result.records[-1].mean_abs_error < 1e-3

    def test_budget_exhaustion_reports_unconverged(self):
        trace = ChurnTrace.steady(1, population=80, join_rate=0.0, leave_rate=0.0, seed=41)
        result = run_dynamic(
            small_overlay(),
            trace,
            GossipConfig(max_steps=4),
            backend="sparse",
            epoch_tol=1e-12,
        )
        assert result.records[0].converged_fraction == 0.0
        assert result.records[0].steps == 4

    def test_validation(self):
        overlay = small_overlay()
        with pytest.raises(ValueError):
            DynamicReputationRuntime(overlay, stop_rule="nope")
        with pytest.raises(ValueError):
            DynamicReputationRuntime(overlay, epoch_tol=0.0)
        with pytest.raises(ValueError):
            DynamicReputationRuntime(overlay, opinion_drift=1.5)
        with pytest.raises(ValueError):
            DynamicReputationRuntime(overlay, attachment_m=0)

    def test_to_dict_and_text_roundtrip(self):
        trace = ChurnTrace.steady(2, population=80, join_rate=0.05, leave_rate=0.05, seed=43)
        result = run_dynamic(small_overlay(), trace, backend="sparse")
        payload = result.to_dict()
        assert payload["backend"] == "sparse"
        assert len(payload["epochs"]) == 2
        assert "steady-state" in result.to_text()


class TestDynamicScenarios:
    def test_flash_crowd_small(self):
        from repro.scenarios import run_scenario

        result = run_scenario("flash-crowd", small=True)
        assert result.backend == "sparse"
        assert result.metrics["epochs"] == 8
        assert result.metrics["total_arrivals"] > 100  # the surge arrived
        assert result.metrics["final_mean_abs_error"] < 0.01

    def test_steady_churn_small_warm_start_wins(self):
        from repro.scenarios import run_scenario

        result = run_scenario("steady-churn-100k", small=True)
        assert result.backend == "sparse"
        assert result.converged_fraction == 1.0
        assert (
            result.metrics["steady_state_steps"]
            <= result.metrics["cold_bootstrap_steps"] / 3
        )

    def test_dynamic_requires_mean_workload(self):
        from repro.scenarios.spec import DynamicSpec, Scenario, TopologySpec, WorkloadSpec

        with pytest.raises(ValueError):
            Scenario(
                name="bad",
                description="d",
                topology=TopologySpec(),
                workload=WorkloadSpec(kind="trust-global"),
                dynamic=DynamicSpec(),
            )

    def test_auto_backend_dynamic_scenario_on_tiny_graph(self):
        # Regression: "auto" must reach the runtime unresolved so tiny
        # graphs don't pre-resolve to the message engine and get rejected.
        from repro.scenarios.spec import DynamicSpec, Scenario, TopologySpec, WorkloadSpec, run_scenario

        scenario = Scenario(
            name="tiny-dynamic",
            description="auto backend on a <=64-node dynamic world",
            topology=TopologySpec(num_nodes=60, small_num_nodes=60),
            workload=WorkloadSpec(kind="mean"),
            dynamic=DynamicSpec(epochs=2, join_rate=0.03, leave_rate=0.03),
            backend="auto",
            seed=99,
        )
        result = run_scenario(scenario, small=True)
        assert result.backend == "sparse"
        assert result.converged_fraction == 1.0


class TestEpochPartition:
    """The epoch-indexed partition schedule replayed on the overlay."""

    def _run(self, *, epochs=8, n=80, seed=21, heal=5):
        from repro.network.conditions import EpochPartition

        trace = ChurnTrace.steady(
            epochs, population=n, join_rate=0.02, leave_rate=0.02, seed=seed
        )
        runtime = DynamicReputationRuntime(
            small_overlay(n, seed=seed + 1),
            config=GossipConfig(delta=0.0, max_steps=600),
            backend="sparse",
            partition=EpochPartition(start_epoch=2, heal_epoch=heal),
        )
        return runtime, runtime.run(trace)

    def test_counters_track_cut_and_heal(self):
        runtime, result = self._run()
        assert runtime.partition_cut_edges > 0
        assert runtime.partition_bridges > 0
        assert 0 < runtime.partition_restored_edges <= runtime.partition_cut_edges
        # Islands cannot agree on the global mean while cut off; after
        # the heal the overlay re-mixes back to full accuracy.
        window = result.records[2:5]
        assert any(r.converged_fraction < 1.0 for r in window)
        assert result.records[-1].converged_fraction == 1.0

    def test_overlay_reconnects_after_heal(self):
        runtime, _ = self._run()
        graph, _ = runtime._overlay.snapshot()
        assert graph.is_connected()

    def test_group_scoped_repair_never_heals_early(self):
        from repro.network.conditions import EpochPartition

        schedule = EpochPartition(start_epoch=2, heal_epoch=5)
        runtime, _ = self._run()
        # During every active epoch the overlay held zero cross-group
        # edges after the cut; the runtime re-cuts churn-wired edges each
        # epoch, so any survivor would have been counted and removed.
        # The heal restored only edges whose endpoints both survived.
        assert runtime.partition_restored_edges <= runtime.partition_cut_edges
        assert schedule.group(4) == 0 and schedule.group(7) == 1

    def test_partition_replay_is_deterministic(self):
        results = [self._run(seed=33)[1] for _ in range(2)]
        for a, b in zip(results[0].records, results[1].records):
            payload_a, payload_b = a.to_dict(), b.to_dict()
            payload_a.pop("elapsed_seconds")
            payload_b.pop("elapsed_seconds")
            assert payload_a == payload_b

    def test_partition_free_records_unchanged_by_feature(self):
        # The partition axis must not add record fields or perturb the
        # partition-free replay (golden stability).
        trace = ChurnTrace.steady(3, population=60, join_rate=0.02,
                                  leave_rate=0.02, seed=5)
        base = run_dynamic(small_overlay(60, seed=6), trace,
                           GossipConfig(delta=0.0), backend="sparse")
        again = run_dynamic(small_overlay(60, seed=6), trace,
                            GossipConfig(delta=0.0), backend="sparse",
                            partition=None)
        for a, b in zip(base.records, again.records):
            payload_a, payload_b = a.to_dict(), b.to_dict()
            payload_a.pop("elapsed_seconds")
            payload_b.pop("elapsed_seconds")
            assert payload_a == payload_b
            assert "partition" not in " ".join(payload_a)

    def test_validation(self):
        with pytest.raises(ValueError, match="EpochPartition"):
            DynamicReputationRuntime(small_overlay(), partition=object())
