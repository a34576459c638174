"""Adversary engine: registry, purity/determinism, family semantics,
cross-backend agreement and the backend-default regression tests.

The load-bearing acceptance checks live here: every registered attack
family must be measurable through :func:`attack_impact` on the message
and sparse gossip backends with 1e-8 agreement, and the measurement's default
backend must follow the auto policy instead of silently pinning the
dense engine (the bug class PR 4 fixed in ``push_sum_average``).
"""

import numpy as np
import pytest

from repro.attacks import (
    AttackModel,
    CollusionModel,
    ComposedAttack,
    OnOffModel,
    SlanderingModel,
    SybilFloodModel,
    WhitewashingAttackModel,
    attack_impact,
    attack_impact_series,
    available_attacks,
    collusion_impact,
    get_attack,
    make_attack,
    register_attack,
    resolve_attack_name,
    stack_attacks,
)
from repro.attacks.evaluate import as_attack_model
from repro.attacks.models import UnknownAttackError
from repro.core.backend import GossipConfig
from repro.network.mutable import MutableOverlay
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.trust.matrix import TrustMatrix, complete_trust_matrix

FAMILY_PARAMS = {
    "collusion": dict(fraction=0.2, group_size=3),
    "slandering": dict(fraction=0.2, victim_fraction=0.15),
    "whitewashing": dict(fraction=0.2),
    "on-off": dict(fraction=0.2, period=2, on_epochs=1),
    "sybil": dict(sybil_fraction=0.2, collude_width=3, slander_width=3),
}


@pytest.fixture(scope="module")
def world():
    graph = preferential_attachment_graph(24, m=2, rng=3)
    trust = complete_trust_matrix(24, rng=4)
    return graph, trust


def matrix_state(trust):
    """Hashable full snapshot: values plus the explicit-entry mask."""
    return (trust.to_dense().tobytes(), trust.observation_mask().tobytes())


class TestRegistry:
    def test_builtin_families_registered(self):
        names = available_attacks()
        for expected in ("collusion", "whitewashing", "slandering", "on-off", "sybil"):
            assert expected in names

    def test_aliases_resolve(self):
        assert resolve_attack_name("bad-mouthing") == "slandering"
        assert resolve_attack_name("oscillation") == "on-off"
        assert resolve_attack_name("sybil-flood") == "sybil"
        assert resolve_attack_name("whitewash") == "whitewashing"
        assert get_attack("badmouthing") is get_attack("slandering")

    def test_unknown_family_raises_value_and_key_error(self):
        with pytest.raises(UnknownAttackError, match="available"):
            get_attack("ddos")
        with pytest.raises(ValueError):
            get_attack("ddos")
        with pytest.raises(KeyError):
            make_attack("ddos")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_attack("collusion", CollusionModel)
        with pytest.raises(ValueError, match="alias"):
            register_attack("fresh-name", CollusionModel, aliases=("sybil",))

    def test_make_attack_forwards_params(self):
        model = make_attack("slandering", fraction=0.3, victim_fraction=0.2, seed=9)
        assert isinstance(model, SlanderingModel)
        assert model.fraction == 0.3 and model.seed == 9

    def test_custom_family_plugs_into_attack_impact(self, world):
        from repro.attacks import models as models_mod

        graph, trust = world

        class NoOpAttack(AttackModel):
            name = "noop-test"

            def apply(self, trust, overlay=None, *, epoch=0):
                return trust.copy(), overlay

        register_attack("noop-test", NoOpAttack, overwrite=True)
        try:
            impact = attack_impact(
                graph, trust, "noop-test", targets=[0, 5],
                config=GossipConfig(xi=1e-5, rng=2), backend="sparse",
            )
            # A no-op adversary measures exactly zero under shared seeds.
            assert impact.rms_gclr == 0.0
            assert impact.rms_unweighted == 0.0
        finally:
            # Don't leak the fixture family into the global registry.
            models_mod._ATTACKS.pop("noop-test", None)

    def test_as_attack_model_rejects_garbage(self):
        with pytest.raises(TypeError, match="AttackModel"):
            as_attack_model(42)


class TestPurityAndDeterminism:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_apply_never_mutates_inputs(self, world, family):
        graph, trust = world
        before = matrix_state(trust)
        overlay = MutableOverlay.from_graph(graph)
        edges_before = overlay.num_edges
        model = make_attack(family, seed=11, **FAMILY_PARAMS[family])
        model.apply(trust, overlay, epoch=0)
        assert matrix_state(trust) == before
        assert overlay.num_edges == edges_before
        assert overlay.num_peers == graph.num_nodes

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_same_seed_epoch_replays_identically(self, world, family):
        graph, trust = world
        model = make_attack(family, seed=11, **FAMILY_PARAMS[family])
        a = model.poison(trust, MutableOverlay.from_graph(graph), epoch=2)
        b = model.poison(trust, MutableOverlay.from_graph(graph), epoch=2)
        assert matrix_state(a) == matrix_state(b)

    def test_different_seeds_differ(self, world):
        graph, trust = world
        a = SlanderingModel(fraction=0.2, victim_fraction=0.2, seed=1).poison(trust)
        b = SlanderingModel(fraction=0.2, victim_fraction=0.2, seed=2).poison(trust)
        assert matrix_state(a) != matrix_state(b)


class TestFamilySemantics:
    def test_collusion_rows(self, world):
        graph, trust = world
        model = CollusionModel(fraction=0.25, group_size=3, seed=5)
        attack = model.attack_for(24)
        poisoned = model.poison(trust)
        group = attack.groups[0]
        colluder = group[0]
        for target in range(24):
            if target == colluder:
                continue
            expected = 1.0 if target in group else 0.0
            assert poisoned.get(colluder, target) == expected

    def test_slandering_touches_only_victim_entries(self, world):
        graph, trust = world
        model = SlanderingModel(fraction=0.2, victim_fraction=0.15, seed=5)
        slanderers, victims = model.cast(24)
        assert set(slanderers).isdisjoint(set(victims))
        poisoned = model.poison(trust)
        victim_set = set(int(v) for v in victims)
        for s in slanderers:
            for target in range(24):
                if target == int(s):
                    continue
                if target in victim_set:
                    assert poisoned.get(int(s), target) == 0.0
                else:
                    assert poisoned.get(int(s), target) == trust.get(int(s), target)

    def test_slandering_victim_cap(self, world):
        _, trust = world
        model = SlanderingModel(fraction=0.2, victim_fraction=0.5, max_victims=2, seed=5)
        _, victims = model.cast(24)
        assert victims.size == 2

    def test_slandering_caps_victims_by_default(self):
        # The planting loop is O(slanderers x victims); an uncapped
        # default would densify the matrix at advertised scales.
        model = SlanderingModel(seed=1)
        assert model.max_victims == SlanderingModel.DEFAULT_MAX_VICTIMS
        _, victims = model.cast(100_000)
        assert victims.size == SlanderingModel.DEFAULT_MAX_VICTIMS
        # Lifting the cap is an explicit act.
        _, uncapped = SlanderingModel(victim_fraction=0.01, max_victims=None, seed=1).cast(
            50_000
        )
        assert uncapped.size == 500

    def test_whitewashing_erases_incoming_keeps_outgoing(self, world):
        graph, trust = world
        model = WhitewashingAttackModel(fraction=0.2, seed=7)
        washers = model.whitewashers_for(24)
        poisoned = model.poison(trust)
        for w in washers:
            assert poisoned.observers_of(int(w)) == frozenset()
            # Outgoing opinions survive: identity changed, knowledge did not.
            row = poisoned.row(int(w))
            honest_row = trust.row(int(w))
            for target, value in honest_row.items():
                if int(target) not in set(int(x) for x in washers):
                    assert row[target] == value

    def test_whitewashing_benefit_of_doubt_grants_former_observers_only(self):
        trust = TrustMatrix(5)
        trust.set(0, 2, 0.1)
        trust.set(1, 2, 0.2)
        model = WhitewashingAttackModel(fraction=0.3, newcomer_trust=0.5, seed=0)
        # Force node 2 to be the washer via a tiny bespoke matrix sweep.
        washed = None
        for seed in range(50):
            candidate = WhitewashingAttackModel(fraction=0.3, newcomer_trust=0.5, seed=seed)
            if 2 in set(int(w) for w in candidate.whitewashers_for(5)):
                model, washed = candidate, 2
                break
        assert washed == 2
        poisoned = model.poison(trust)
        grants = {obs: poisoned.get(obs, 2) for obs in poisoned.observers_of(2)}
        assert set(grants) <= {0, 1}  # never a manufactured observer
        assert all(v == 0.5 for v in grants.values())

    def test_on_off_duty_cycle(self, world):
        graph, trust = world
        model = OnOffModel(fraction=0.2, period=3, on_epochs=1, seed=5)
        assert [model.is_on(e) for e in range(6)] == [True, False, False] * 2
        off = model.poison(trust, epoch=1)
        assert matrix_state(off) == matrix_state(trust)
        on = model.poison(trust, epoch=3)
        assert matrix_state(on) != matrix_state(trust)

    def test_on_off_wraps_inner_family(self, world):
        graph, trust = world
        inner = SlanderingModel(fraction=0.2, victim_fraction=0.15, seed=5)
        model = OnOffModel(fraction=0.2, period=2, on_epochs=1, inner=inner, seed=5)
        assert matrix_state(model.poison(trust, epoch=0)) == matrix_state(
            inner.poison(trust, epoch=0)
        )

    def test_on_off_validation(self):
        with pytest.raises(ValueError, match="on_epochs"):
            OnOffModel(on_epochs=0)
        with pytest.raises(ValueError, match="on_epochs"):
            OnOffModel(period=2, on_epochs=3)

    def test_sybil_enlarges_world_without_touching_honest_block(self, world):
        graph, trust = world
        model = SybilFloodModel(sybil_fraction=0.25, collude_width=2, slander_width=2, seed=5)
        poisoned, flooded = model.apply(trust, MutableOverlay.from_graph(graph))
        swarm = model.sybil_count(24)
        assert poisoned.num_nodes == 24 + swarm
        assert flooded.num_peers == 24 + swarm
        # Honest opinions are untouched, in both value and mask.
        for observer in range(24):
            assert {
                t: v for t, v in poisoned.row(observer).items()
            } == trust.row(observer)
        # Honest peers hold no opinion about the strangers (zero initial
        # trust — the paper's whitewashing/sybil defence).
        for sid in range(24, 24 + swarm):
            assert all(obs >= 24 for obs in poisoned.observers_of(sid) if obs != sid)
        # The snapshot is a contiguous, valid graph.
        dirty_graph, pids = flooded.snapshot()
        np.testing.assert_array_equal(pids, np.arange(24 + swarm))
        flooded.check_invariants()

    def test_sybil_requires_aligned_overlay(self, world):
        graph, trust = world
        with pytest.raises(ValueError, match="overlay"):
            SybilFloodModel(seed=1).apply(trust, None)
        overlay = MutableOverlay.from_graph(graph)
        overlay.add_peer(m=2, rng=0)  # peer ids now outrun the matrix
        with pytest.raises(ValueError, match="align"):
            SybilFloodModel(seed=1).apply(trust, overlay)

    def test_composed_attack_stacks(self, world):
        graph, trust = world
        collusion = CollusionModel(fraction=0.1, group_size=2, seed=2)
        sybil = SybilFloodModel(sybil_fraction=0.1, collude_width=1, slander_width=1, seed=2)
        stacked = stack_attacks(collusion, sybil)
        assert stacked.affects_topology
        assert not stack_attacks(collusion).affects_topology
        poisoned, flooded = stacked.apply(trust, MutableOverlay.from_graph(graph))
        # Both effects present: enlarged world AND colluder rows.
        assert poisoned.num_nodes == 24 + sybil.sybil_count(24)
        colluder = stacked.attacks[0].attack_for(24).groups[0][0]
        group = set(stacked.attacks[0].attack_for(24).groups[0])
        assert all(
            poisoned.get(colluder, t) == (1.0 if t in group else 0.0)
            for t in range(24)
            if t != colluder
        )

    def test_composed_attack_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ComposedAttack(attacks=())


class TestCrossBackendAgreement:
    """Acceptance: every family agrees to 1e-8 across all four backends."""

    TARGETS = [0, 3, 7, 11, 19]

    @pytest.fixture(scope="class")
    def impacts(self, world):
        graph, trust = world
        config = GossipConfig(xi=1e-10, rng=13, max_steps=100_000)
        table = {}
        for family, params in FAMILY_PARAMS.items():
            model = make_attack(family, seed=17, **params)
            exact = attack_impact(
                graph, trust, model, targets=self.TARGETS, use_gossip=False
            )
            table[family] = {
                "exact": exact,
                "gossip": {
                    backend: attack_impact(
                        graph,
                        trust,
                        model,
                        targets=self.TARGETS,
                        config=config,
                        backend=backend,
                    )
                    for backend in ("message", "sparse")
                },
            }
        return table

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_backends_agree_to_1e8(self, impacts, family):
        rows = impacts[family]["gossip"]
        values = {name: impact.rms_gclr for name, impact in rows.items()}
        reference = values["sparse"]
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=1e-8), (
                f"{family}: backend {name} rms {value} vs sparse {reference}"
            )
        # The unweighted comparator never touches the gossip layer, so
        # it must be bit-identical across backends.
        unweighted = {impact.rms_unweighted for impact in rows.values()}
        assert len(unweighted) == 1

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_gossip_approaches_exact_fixpoint(self, impacts, family):
        exact = impacts[family]["exact"].rms_gclr
        for name, impact in impacts[family]["gossip"].items():
            assert impact.rms_gclr == pytest.approx(exact, abs=1e-6), (
                f"{family} on {name}"
            )

    def test_sybil_worlds_enlarged_on_every_backend(self, impacts):
        for impact in impacts["sybil"]["gossip"].values():
            assert impact.num_nodes_dirty > 24


class TestImpactSeries:
    def test_on_off_series_traces_duty_cycle(self, world):
        graph, trust = world
        series = attack_impact_series(
            graph,
            trust,
            OnOffModel(fraction=0.2, period=2, on_epochs=1, seed=3),
            epochs=4,
            targets=[0, 5, 9],
            config=GossipConfig(xi=1e-5, rng=8),
            backend="sparse",
        )
        assert [s.epoch for s in series] == [0, 1, 2, 3]
        # Honest phases cancel exactly under shared seeds.
        assert series[1].rms_gclr == 0.0 and series[3].rms_gclr == 0.0
        assert series[0].rms_gclr > 0.0
        # The seeded series is stationary across cycles.
        assert series[2].rms_gclr == pytest.approx(series[0].rms_gclr)

    def test_series_reuses_the_clean_run(self, world):
        # The clean world is epoch-invariant; the series must execute
        # its gossip run once, not once per epoch.
        graph, trust = world
        series = attack_impact_series(
            graph,
            trust,
            CollusionModel(fraction=0.2, group_size=2, seed=3),
            epochs=3,
            targets=[0, 5],
            config=GossipConfig(xi=1e-5, rng=8),
            backend="sparse",
        )
        assert series[0].clean_outcome is series[1].clean_outcome is series[2].clean_outcome

    def test_on_off_wrapping_sybil_propagates_topology(self, world):
        # Regression: OnOffModel used to inherit affects_topology=False,
        # so a duty-cycled sybil flood crashed in attack_impact.
        graph, trust = world
        inner = SybilFloodModel(sybil_fraction=0.2, collude_width=2, slander_width=2, seed=5)
        model = OnOffModel(fraction=0.2, period=2, on_epochs=1, inner=inner, seed=5)
        assert model.affects_topology
        on = attack_impact(
            graph, trust, model, targets=[0, 5],
            config=GossipConfig(xi=1e-4, rng=8), epoch=0,
        )
        assert on.num_nodes_dirty == 24 + inner.sybil_count(24)
        off = attack_impact(
            graph, trust, model, targets=[0, 5],
            config=GossipConfig(xi=1e-4, rng=8), epoch=1,
        )
        assert off.num_nodes_dirty == 24 and off.rms_gclr == 0.0

    def test_static_family_traces_flat_line(self, world):
        graph, trust = world
        series = attack_impact_series(
            graph,
            trust,
            CollusionModel(fraction=0.2, group_size=2, seed=3),
            epochs=2,
            targets=[0, 5],
            config=GossipConfig(xi=1e-5, rng=8),
            backend="sparse",
        )
        assert series[0].rms_gclr == series[1].rms_gclr

    def test_series_validates_epochs(self, world):
        graph, trust = world
        with pytest.raises(ValueError, match="epochs"):
            attack_impact_series(graph, trust, "collusion", epochs=0)


class TestDynamicHooks:
    """AttackModel.on_epoch against the live dynamic runtime."""

    def _run(self, attack, *, epochs=3, population=60):
        from repro.core.backend import GossipConfig as Config
        from repro.runtime.dynamics import run_dynamic
        from repro.runtime.trace import ChurnTrace

        overlay = MutableOverlay.grow_preferential(population, m=2, rng=3)
        trace = ChurnTrace.steady(
            epochs, population=population, join_rate=0.02, leave_rate=0.02, seed=5
        )
        return run_dynamic(
            overlay, trace, Config(delta=0.0), backend="sparse",
            epoch_tol=1e-5, attack=attack,
        )

    def test_whitewashing_cycles_identities_each_epoch(self):
        result = self._run(WhitewashingAttackModel(fraction=0.1, seed=7))
        assert all(r.attack_events > 0 for r in result.records)
        # Δ=0 invariant survives identity churn: the estimate still
        # lands on the live-peer mean.
        assert result.final_record.mean_abs_error < 1e-3

    def test_sybil_flood_is_a_single_wave(self):
        # A join flood fires once at flood_epoch (per-epoch re-flooding
        # would compound (1 + fraction)^epochs and blow up the trace).
        result = self._run(SybilFloodModel(sybil_fraction=0.05, flood_epoch=1, seed=2))
        events = [r.attack_events for r in result.records]
        assert events[1] > 0
        assert events[0] == 0 and all(e == 0 for e in events[2:])
        assert result.records[1].num_peers > result.records[0].num_peers
        assert result.final_record.mean_abs_error < 1e-3

    def test_on_off_oscillators_republish(self):
        result = self._run(OnOffModel(fraction=0.1, period=2, on_epochs=1, seed=2))
        assert all(r.attack_events > 0 for r in result.records)
        # Inflated publications move the honest mean the network tracks;
        # the runtime must still converge onto it exactly.
        assert result.final_record.mean_abs_error < 1e-3

    def test_on_off_actually_turns_off(self):
        # Regression: per-epoch oscillator sampling left earlier
        # oscillators stuck at 1.0 through honest phases. Membership is
        # persistent now, so an honest phase resets exactly the peers
        # the attack phase inflated.
        from repro.core.backend import GossipConfig as Config
        from repro.network.mutable import MutableOverlay as Overlay
        from repro.runtime.dynamics import DynamicReputationRuntime
        from repro.runtime.trace import ChurnTrace

        attack = OnOffModel(fraction=0.2, period=2, on_epochs=1, seed=9)

        def final_opinions(epochs):
            runtime = DynamicReputationRuntime(
                Overlay.grow_preferential(60, m=2, rng=3),
                config=Config(delta=0.0),
                backend="sparse",
                epoch_tol=1e-5,
                attack=attack,
            )
            runtime.run(
                ChurnTrace.steady(epochs, population=60, join_rate=0.0, leave_rate=0.0, seed=5)
            )
            return runtime.opinions()

        after_on = final_opinions(1)  # epoch 0 is an attack phase
        oscillators = attack.persistent_members(np.arange(60), attack.fraction)
        assert int((after_on == 1.0).sum()) == oscillators.size > 0
        after_off = final_opinions(2)  # epoch 1 is an honest phase
        assert not np.any(after_off == 1.0)

    def test_persistent_members_survive_growth(self):
        model = OnOffModel(fraction=0.3, seed=4)
        small = model.persistent_members(np.arange(50), 0.3)
        grown = model.persistent_members(np.arange(80), 0.3)
        # Existing ids never reshuffle when the overlay grows.
        np.testing.assert_array_equal(small, grown[grown < 50])

    def test_whitewash_forwards_epoch_to_newcomer_policy(self):
        # Regression: the hook used to drop epoch, so every whitewash
        # rejoin hit the policy's join-rate window at now=0.0.
        from repro.core.backend import GossipConfig as Config
        from repro.runtime.dynamics import run_dynamic
        from repro.runtime.trace import ChurnTrace
        from repro.trust.newcomer_policy import DynamicNewcomerPolicy

        class RecordingPolicy(DynamicNewcomerPolicy):
            def __init__(self):
                super().__init__(max_initial_trust=0.2)
                self.joins = []

            def observe_join(self, *, now, population):
                self.joins.append(float(now))
                return super().observe_join(now=now, population=population)

        policy = RecordingPolicy()
        overlay = MutableOverlay.grow_preferential(60, m=2, rng=3)
        trace = ChurnTrace.steady(3, population=60, join_rate=0.0, leave_rate=0.0, seed=5)
        run_dynamic(
            overlay, trace, Config(delta=0.0), backend="sparse", epoch_tol=1e-5,
            newcomer_policy=policy,
            attack=WhitewashingAttackModel(fraction=0.1, seed=7),
        )
        assert sorted(set(policy.joins)) == [0.0, 1.0, 2.0]

    def test_dynamic_attack_replays_deterministically(self):
        a = self._run(WhitewashingAttackModel(fraction=0.1, seed=7))
        b = self._run(WhitewashingAttackModel(fraction=0.1, seed=7))
        assert [r.true_mean for r in a.records] == [r.true_mean for r in b.records]
        assert [r.attack_events for r in a.records] == [
            r.attack_events for r in b.records
        ]


class TestBackendDefaultRegression:
    """Satellite bugfix: the measurement must follow the auto policy.

    ``collusion_impact`` used to hardcode ``backend="dense"``, silently
    running every large-graph measurement through the (since retired)
    dense engine's per-hub Python loop — the same bug class PR 4 fixed
    in ``push_sum_average``.
    """

    def test_signature_defaults_are_auto(self):
        import inspect

        assert inspect.signature(attack_impact).parameters["backend"].default == "auto"
        assert (
            inspect.signature(collusion_impact).parameters["backend"].default == "auto"
        )

    @pytest.fixture
    def big_ring(self):
        # Circulant graph with power-of-two chords: large yet
        # log-diameter, so the gclr weight diffuses to every node within
        # the warmup-scale budget a coarse xi allows (a plain ring would
        # need diameter ~ N/2 steps).
        from repro.network.graph import Graph

        n = 20_001
        offsets = np.array(
            [d for k in range(15) for d in (1 << k, -(1 << k))], dtype=np.int64
        )
        neighbors = (np.arange(n, dtype=np.int64)[:, None] + offsets[None, :]) % n
        neighbors.sort(axis=1)
        indptr = np.arange(n + 1, dtype=np.int64) * offsets.size
        return Graph.from_csr(n, indptr, neighbors.reshape(-1), validate=False)

    @pytest.fixture
    def spy(self, monkeypatch):
        import repro.core.backend as backend_mod

        chosen = []
        real_get_backend = backend_mod.get_backend
        monkeypatch.setattr(
            backend_mod,
            "get_backend",
            lambda name: chosen.append(backend_mod.resolve_backend_name(name))
            or real_get_backend(name),
        )
        return chosen

    def _ring_trust(self, n):
        trust = TrustMatrix(n)
        for node in range(0, 64):
            trust.set(node, (node + 1) % n, 0.5)
            trust.set((node + 1) % n, node, 0.5)
        return trust

    def test_large_graph_routes_to_sparse_by_default(self, big_ring, spy):
        trust = self._ring_trust(big_ring.num_nodes)
        attack = CollusionModel(fraction=0.001, group_size=1, seed=1).attack_for(64)
        # Coarse xi: convergence lands right after warmup — the
        # assertion is about routing, not the estimate.
        impact = collusion_impact(
            big_ring, trust, attack, targets=[0, 1], config=GossipConfig(xi=1.0, rng=2)
        )
        assert spy and set(spy) == {"sparse"}
        assert impact.backend == "sparse"

    def test_explicit_backend_still_honoured(self, world, spy):
        # 24 nodes: "auto" would pick the message engine.
        graph, trust = world
        attack = CollusionModel(fraction=0.2, group_size=2, seed=1).attack_for(24)
        collusion_impact(
            graph, trust, attack, targets=[0, 1],
            config=GossipConfig(xi=1e-2, rng=2), backend="sparse",
        )
        assert spy and set(spy) == {"sparse"}

    def test_auto_resolves_once_for_clean_and_dirty(self, world, spy):
        # Sybil floods enlarge the dirty world; both runs must still
        # execute on the same (once-resolved) engine.
        graph, trust = world
        attack_impact(
            world[0], world[1], SybilFloodModel(sybil_fraction=0.2, seed=1),
            targets=[0, 1], config=GossipConfig(xi=1e-2, rng=2),
        )
        assert len(set(spy)) == 1
