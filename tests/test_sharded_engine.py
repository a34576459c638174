"""Sharded engine + partitioner: determinism, halo exchange, scale-out.

The acceptance checks of the sharded backend live here: partitions are
deterministic pure functions of (graph, num_shards); the engine's
outcomes are byte-identical for every worker count at a fixed seed;
fixpoints agree with the single-process engines to the cross-backend
bar; and the sharded-vs-sparse benchmark harness runs end to end (the
million-peer shape itself is property-marked so tier-1 stays fast).
"""

import numpy as np
import pytest

from repro.core.backend import GossipConfig, run_backend
from repro.core.sharded_engine import (
    DEFAULT_NUM_SHARDS,
    SHARDED_INLINE_MAX_NODES,
    ShardedGossipEngine,
    default_worker_count,
)
from repro.network.graph import Graph
from repro.network.partition import edge_balanced_boundaries, partition_graph
from repro.network.preferential_attachment import (
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)
from repro.network.topology_example import example_network


def ring_graph(n: int) -> Graph:
    """An n-cycle built straight from CSR arrays (no Python edge loop)."""
    i = np.arange(n, dtype=np.int64)
    a, b = (i - 1) % n, (i + 1) % n
    cols = np.empty(2 * n, dtype=np.int64)
    cols[0::2] = np.minimum(a, b)
    cols[1::2] = np.maximum(a, b)
    return Graph.from_csr(n, 2 * np.arange(n + 1, dtype=np.int64), cols, validate=False)


class TestPartition:
    def test_boundaries_cover_every_node_once(self, pa_graph_medium):
        part = partition_graph(pa_graph_medium, 5)
        sizes = [shard.owned_size for shard in part.shards]
        assert sum(sizes) == pa_graph_medium.num_nodes
        assert part.boundaries[0] == 0 and part.boundaries[-1] == pa_graph_medium.num_nodes
        for node in (0, 7, 299):
            shard = part.shards[part.shard_of(node)]
            assert shard.lo <= node < shard.hi

    def test_edge_balance_beats_node_balance_on_skew(self):
        # A hub-heavy PA graph: equal-node splits would load shard 0
        # (early nodes are the hubs) far beyond the rest.
        graph = preferential_attachment_graph(400, m=3, rng=5)
        part = partition_graph(graph, 4)
        indptr = graph.indptr
        edge_loads = [int(indptr[s.hi] - indptr[s.lo]) for s in part.shards]
        target = int(indptr[-1]) / 4
        assert max(edge_loads) <= 1.5 * target

    def test_halo_is_exactly_the_foreign_neighbours(self, fig2_network):
        part = partition_graph(fig2_network, 3)
        for shard in part.shards:
            expected = set()
            for node in range(shard.lo, shard.hi):
                for nb in fig2_network.neighbors(node):
                    if not shard.lo <= nb < shard.hi:
                        expected.add(int(nb))
            assert set(shard.halo.tolist()) == expected
            # halo_slices tile the halo by destination shard.
            assert shard.halo_slices[0] == 0
            assert shard.halo_slices[-1] == shard.halo.shape[0]
            for d, dest in enumerate(part.shards):
                a, b = shard.halo_slices[d], shard.halo_slices[d + 1]
                members = shard.halo[a:b]
                assert np.all((members >= dest.lo) & (members < dest.hi))

    def test_local_columns_round_trip(self, pa_graph_small):
        part = partition_graph(pa_graph_small, 4)
        for shard in part.shards:
            indptr_local, indices_local = shard.local_csr(
                pa_graph_small.indptr, pa_graph_small.indices
            )
            assert indptr_local[0] == 0
            assert indptr_local[-1] == indices_local.shape[0]
            # Every local id maps back to the original global neighbour.
            local_nodes = np.concatenate(
                [np.arange(shard.lo, shard.hi), shard.halo]
            )
            rebuilt = local_nodes[indices_local]
            start, stop = pa_graph_small.indptr[shard.lo], pa_graph_small.indptr[shard.hi]
            np.testing.assert_array_equal(rebuilt, pa_graph_small.indices[start:stop])

    def test_deterministic_in_graph_and_shards(self, pa_graph_medium):
        a = partition_graph(pa_graph_medium, 6)
        b = partition_graph(pa_graph_medium, 6)
        np.testing.assert_array_equal(a.boundaries, b.boundaries)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa.halo, sb.halo)

    def test_more_shards_than_nodes_clamps(self, triangle):
        part = partition_graph(triangle, 16)
        assert part.num_shards <= 3
        assert sum(s.owned_size for s in part.shards) == 3

    def test_edge_cut_bounds(self, pa_graph_medium):
        part = partition_graph(pa_graph_medium, 4)
        assert 0.0 < part.edge_cut() <= 1.0
        assert partition_graph(pa_graph_medium, 1).edge_cut() == 0.0

    def test_edgeless_graph_splits_by_nodes(self):
        lonely = Graph(8, [])
        boundaries = edge_balanced_boundaries(lonely, 4)
        assert boundaries[0] == 0 and boundaries[-1] == 8
        assert np.all(np.diff(boundaries) >= 0)

    def test_invalid_num_shards_rejected(self, triangle):
        with pytest.raises(ValueError):
            edge_balanced_boundaries(triangle, 0)


class TestShardedEngine:
    def test_reaches_the_fixture_fixpoint(self):
        engine = ShardedGossipEngine(example_network(), rng=7, num_shards=3)
        outcome = engine.run(np.arange(10.0), np.ones(10), xi=1e-10, max_steps=100_000)
        assert np.abs(outcome.estimates.reshape(-1) - 4.5).max() < 1e-8
        assert outcome.converged.all()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_across_worker_counts(self, pa_graph_medium, workers):
        values = np.random.default_rng(3).random(300)
        outcomes = []
        for count in (1, workers):
            config = GossipConfig(xi=1e-8, rng=42, num_shards=4, shard_workers=count)
            outcomes.append(
                run_backend(pa_graph_medium, values, np.ones(300), config=config, backend="sharded")
            )
        inline, multi = outcomes
        np.testing.assert_array_equal(inline.values, multi.values)
        np.testing.assert_array_equal(inline.weights, multi.weights)
        assert inline.steps == multi.steps
        assert inline.push_messages == multi.push_messages
        np.testing.assert_array_equal(inline.converged, multi.converged)

    def test_byte_identical_across_worker_counts_under_loss(self, pa_graph_medium):
        values = np.random.default_rng(5).random(300)
        outcomes = []
        for count in (1, 3):
            config = GossipConfig(
                xi=1e-8, rng=11, num_shards=4, shard_workers=count,
                loss_probability=0.3, max_steps=15, run_to_max=True,
            )
            outcomes.append(
                run_backend(pa_graph_medium, values, np.ones(300), config=config, backend="sharded")
            )
        np.testing.assert_array_equal(outcomes[0].values, outcomes[1].values)
        # The self-push repair conserves mass exactly.
        assert float(outcomes[0].values.sum()) == pytest.approx(float(values.sum()), rel=1e-12)
        assert float(outcomes[0].weights.sum()) == pytest.approx(300.0, rel=1e-12)

    def test_outcome_depends_on_num_shards_not_workers(self, pa_graph_small):
        values = np.arange(60.0)
        base = ShardedGossipEngine(pa_graph_small, rng=9, num_shards=4).run(
            values, np.ones(60), xi=1e-6
        )
        other_shards = ShardedGossipEngine(pa_graph_small, rng=9, num_shards=5).run(
            values, np.ones(60), xi=1e-6
        )
        # Different shard counts draw different streams (documented);
        # both still land on the same fixpoint.
        assert not np.array_equal(base.values, other_shards.values)
        np.testing.assert_allclose(
            base.estimates, other_shards.estimates, atol=1e-4
        )

    def test_repeated_runs_replay_identically(self, pa_graph_small):
        engine = ShardedGossipEngine(pa_graph_small, rng=13, num_shards=3)
        values = np.random.default_rng(1).random(60)
        first = engine.run(values, np.ones(60), xi=1e-6)
        second = engine.run(values, np.ones(60), xi=1e-6)
        np.testing.assert_array_equal(first.values, second.values)
        assert first.steps == second.steps

    def test_multi_component_state_with_extras(self, pa_graph_small):
        values = np.random.default_rng(2).random((60, 3))
        counts = np.ones((60, 3))
        config = GossipConfig(xi=1e-9, rng=21, num_shards=4)
        outcome = run_backend(
            pa_graph_small, values, np.ones_like(values),
            extras={"count": counts}, config=config, backend="sharded",
        )
        np.testing.assert_allclose(
            outcome.estimates, np.broadcast_to(values.mean(axis=0), (60, 3)), atol=1e-6
        )
        assert outcome.extras["count"].shape == (60, 3)
        assert float(outcome.extras["count"].sum()) == pytest.approx(180.0, rel=1e-9)

    def test_isolated_nodes_keep_their_values(self):
        graph = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 4)])
        values = np.arange(6.0)
        outcome = run_backend(
            graph, values, np.ones(6),
            config=GossipConfig(xi=1e-8, rng=3, num_shards=3), backend="sharded",
        )
        connected = [0, 1, 2, 4]
        assert np.allclose(
            outcome.estimates.reshape(-1)[connected], values[connected].mean(), atol=1e-5
        )
        assert outcome.estimates.reshape(-1)[3] == pytest.approx(3.0)
        assert outcome.estimates.reshape(-1)[5] == pytest.approx(5.0)

    def test_rejects_explicit_loss_model(self, pa_graph_small):
        from repro.network.churn import PacketLossModel

        with pytest.raises(ValueError, match="loss_probability"):
            ShardedGossipEngine(pa_graph_small, loss_model=PacketLossModel(0.2, rng=0))

    def test_validation(self, pa_graph_small):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedGossipEngine(pa_graph_small, num_shards=0)
        with pytest.raises(ValueError, match="num_workers"):
            ShardedGossipEngine(pa_graph_small, num_workers=0)
        with pytest.raises(ValueError, match="loss_probability"):
            ShardedGossipEngine(pa_graph_small, loss_probability=1.5)

    def test_default_worker_policy(self):
        assert default_worker_count(1000) == 1
        assert default_worker_count(SHARDED_INLINE_MAX_NODES) == 1
        assert default_worker_count(SHARDED_INLINE_MAX_NODES + 1) >= 1

    def test_default_shard_count_is_size_independent(self, pa_graph_small):
        engine = ShardedGossipEngine(pa_graph_small, rng=1)
        assert engine.num_shards == min(DEFAULT_NUM_SHARDS, 60)


class TestExecutors:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_byte_identical_across_executors(self, pa_graph_medium, executor):
        values = np.random.default_rng(3).random(300)
        outcomes = []
        for workers in ("inline", executor):
            config = GossipConfig(xi=1e-8, rng=42, num_shards=4, shard_workers=workers)
            outcomes.append(
                run_backend(pa_graph_medium, values, np.ones(300), config=config, backend="sharded")
            )
        inline, other = outcomes
        np.testing.assert_array_equal(inline.values, other.values)
        np.testing.assert_array_equal(inline.weights, other.weights)
        assert inline.steps == other.steps
        assert inline.push_messages == other.push_messages
        np.testing.assert_array_equal(inline.converged, other.converged)

    def test_threads_executor_byte_identical_under_loss(self, pa_graph_medium):
        values = np.random.default_rng(5).random(300)
        outcomes = []
        for executor in ("inline", "threads"):
            engine = ShardedGossipEngine(
                pa_graph_medium, rng=11, num_shards=4, executor=executor,
                loss_probability=0.25,
            )
            outcomes.append(engine.run(values, np.ones(300), xi=1e-8))
        np.testing.assert_array_equal(outcomes[0].values, outcomes[1].values)
        assert outcomes[0].push_messages == outcomes[1].push_messages

    def test_executor_resolution_and_validation(self, pa_graph_small):
        assert ShardedGossipEngine(pa_graph_small, rng=0).executor == "inline"
        assert (
            ShardedGossipEngine(pa_graph_small, rng=0, num_workers=2).executor
            == "processes"
        )
        assert (
            ShardedGossipEngine(pa_graph_small, rng=0, executor="threads").executor
            == "threads"
        )
        with pytest.raises(ValueError, match="executor"):
            ShardedGossipEngine(pa_graph_small, rng=0, executor="fibers")
        with pytest.raises(ValueError, match="inline"):
            ShardedGossipEngine(pa_graph_small, rng=0, executor="inline", num_workers=2)

    def test_config_accepts_executor_names(self):
        for name in ("inline", "threads", "processes"):
            assert GossipConfig(shard_workers=name).shard_workers == name
        with pytest.raises(ValueError, match="shard_workers"):
            GossipConfig(shard_workers="fibers")

    def test_phase_timings_populated(self, pa_graph_small):
        engine = ShardedGossipEngine(pa_graph_small, rng=2, num_shards=3)
        assert engine.last_phase_timings is None
        outcome = engine.run(np.arange(60.0), np.ones(60), xi=1e-6)
        timings = engine.last_phase_timings
        assert timings["steps"] == outcome.steps
        for key in (
            "sample_seconds",
            "build_contributions_seconds",
            "phase_a_wall_seconds",
            "halo_merge_seconds",
            "convergence_seconds",
        ):
            assert timings[key] >= 0.0
        assert timings["total_seconds"] > 0.0


class TestShardedFloat32:
    def test_float32_runs_and_tracks_float64(self, pa_graph_medium):
        values = np.random.default_rng(9).random(300)
        ref = ShardedGossipEngine(pa_graph_medium, rng=21, num_shards=4).run(
            values, np.ones(300), xi=1e-6
        )
        out = ShardedGossipEngine(
            pa_graph_medium, rng=21, num_shards=4, dtype=np.float32
        ).run(values, np.ones(300), xi=1e-6)
        assert out.values.dtype == np.float32
        est_ref = ref.values[:, 0] / ref.weights[:, 0]
        est = out.values[:, 0].astype(np.float64) / out.weights[:, 0].astype(np.float64)
        assert float(np.abs(est - est_ref).max()) < 1e-4

    def test_float32_through_process_pool(self, pa_graph_medium):
        # Shared-memory sizing is itemsize-aware; a float32 state crossing
        # the worker boundary must agree with the inline float32 run.
        values = np.random.default_rng(9).random(300)
        outcomes = []
        for executor, workers in (("inline", None), ("processes", 2)):
            engine = ShardedGossipEngine(
                pa_graph_medium, rng=21, num_shards=4, dtype=np.float32,
                executor=executor, num_workers=workers,
            )
            outcomes.append(engine.run(values, np.ones(300), xi=1e-6))
        np.testing.assert_array_equal(outcomes[0].values, outcomes[1].values)
        assert outcomes[0].steps == outcomes[1].steps

    def test_unsupported_dtype_rejected(self, pa_graph_small):
        from repro.core.errors import UnsupportedDtypeError

        with pytest.raises(UnsupportedDtypeError):
            ShardedGossipEngine(pa_graph_small, rng=0, dtype=np.int64)


class TestAutoEscalation:
    """``"auto"`` never escalates to sharded; the backend stays selectable by name.

    On a 2-core host the sharded engine ran at about 0.46x sparse at
    200k nodes, so the size/core-count escalation was removed (the full
    policy table lives in ``tests/test_backends.py``).
    """

    def test_auto_keeps_sparse_below_the_ceiling(self):
        from repro.core.backend import choose_backend_name

        assert choose_backend_name(ring_graph(20_001)) == "sparse"

    def test_auto_stays_sparse_on_a_single_core_host(self, monkeypatch):
        # The policy reads no core count: one core or many, sparse.
        import repro.core.backend as backend_mod
        import repro.utils.hardware as hardware
        from repro.core.backend import choose_backend_name

        big_ring = ring_graph(250_001)
        for cores in (1, 64):
            monkeypatch.setattr(hardware, "usable_cpu_count", lambda: cores)
            monkeypatch.setattr(backend_mod, "usable_cpu_count", lambda: cores, raising=False)
            assert choose_backend_name(big_ring) == "sparse"

    def test_auto_keeps_explicit_loss_model_configs_on_sparse(self):
        from repro.core.backend import choose_backend_name
        from repro.network.churn import PacketLossModel

        big_ring = ring_graph(250_001)
        config = GossipConfig(loss_model=PacketLossModel(0.1, rng=0))
        assert choose_backend_name(big_ring, config) == "sparse"
        assert choose_backend_name(big_ring, GossipConfig(loss_probability=0.1)) == "sparse"


class TestFastPaGenerator:
    def test_connected_and_near_target_edges(self):
        graph = preferential_attachment_graph_fast(5000, m=6, rng=4)
        assert graph.is_connected()
        assert 0.95 * 6 * 5000 < graph.num_edges <= 6 * 5000

    def test_deterministic(self):
        a = preferential_attachment_graph_fast(800, m=3, rng=17)
        b = preferential_attachment_graph_fast(800, m=3, rng=17)
        assert a == b

    def test_heavy_tail(self):
        graph = preferential_attachment_graph_fast(4000, m=4, rng=8)
        degrees = np.asarray(graph.degrees)
        # PA hubs: the max degree dwarfs the median.
        assert degrees.max() > 10 * np.median(degrees)

    def test_validation(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph_fast(3, m=3)
        with pytest.raises(ValueError):
            preferential_attachment_graph_fast(10, m=0)


class TestBenchAndScenario:
    def test_bench_harness_smoke(self, tmp_path):
        from benchmarks.bench_sharded import run_benchmark

        record = run_benchmark(
            4000, m=4, steps=8, short_steps=2, pairs=1, workers=2, shards=4, seed=7
        )
        assert record["benchmark"] == "sharded_vs_sparse"
        assert record["engines"]["sparse"]["steps_per_second"] > 0
        assert record["engines"]["sharded_procs_w2"]["steps_per_second"] > 0
        # Executor contenders ship the per-phase breakdown.
        phases = record["engines"]["sharded_threads"]["phase_seconds"]
        assert phases["steps"] == 8
        assert phases["halo_merge_seconds"] >= 0.0
        assert isinstance(record["speedup_vs_sparse"], float)
        assert isinstance(record["threads_vs_inline"], float)

    def test_kernel_bench_smoke(self):
        from benchmarks.bench_sharded import run_kernel_benchmark

        record = run_kernel_benchmark(
            4000, m_values=[4], steps=8, short_steps=2, pairs=1, shards=4, seed=7
        )
        assert record["benchmark"] == "push_kernels"
        grid = record["grids"]["m4"]["contenders"]
        assert grid["sparse/fused/float64"]["speedup_vs_unfused_float64"] > 0
        assert grid["sparse/fused/float32"]["dtype"] == "float32"
        assert grid["sharded/threads/float64"]["phase_seconds"]["steps"] == 8
        assert "sample_seconds" in grid["sharded/inline/float64"]["phase_seconds"]

    def test_million_peer_scenario_small_shape(self):
        from repro.scenarios import run_scenario

        result = run_scenario("million-peer-sharded", small=True, workers=2)
        assert result.backend == "sharded"
        assert result.converged_fraction == 1.0
        assert result.metrics["mean_abs_error"] < 1e-3

    @pytest.mark.property
    def test_bench_harness_at_scale(self):
        """Opt-in (property-marked) large shape; the full million-peer
        run stays a CLI/CI-artifact concern so tier-1 stays fast."""
        from benchmarks.bench_sharded import run_benchmark

        record = run_benchmark(
            150_000, m=6, steps=26, short_steps=3, pairs=1, workers=2, shards=8, seed=3
        )
        assert record["engines"]["sharded_procs_w2"]["estimates_mean_error"] < 0.02
        assert record["n"] == 150_000
