"""Multi-channel gossip (N × V) acceptance suite.

Covers the tentpole contract from every side:

- the swept ``backend="dense"`` defaults are pinned to ``"auto"`` (the
  get_backend-spy regression pattern of the PR-4 ``push_sum_average``
  fix), plus a source lint that no ``backend``/``engine`` default in
  ``src/repro`` names a registered backend;
- every channel hits its own fixpoint at V ∈ {1, 2, 4} on sparse and
  on the message engine, and the two agree;
- a fixed-budget run's first channel is bit for bit the V = 1 run, on
  both step-synchronous engines;
- V = 1 byte-identity on the fused kernel and on the unfused reference
  step (the historical code path must be executed literally);
- per-channel eq.-7 convergence: one converged channel must not stop a
  straggler channel;
- the scalar-state async backend raises the typed capability error
  instead of silently averaging channels.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import pathlib

import numpy as np
import pytest

import repro.core.backend as backend_mod
from repro.core.backend import (
    BackendCapabilityError,
    GossipConfig,
    choose_backend_name,
    run_backend,
)
from repro.core.convergence import ConvergenceProtocol
from repro.core.sparse_engine import SparseGossipEngine
from repro.facade import aggregate
from repro.network.preferential_attachment import preferential_attachment_graph
from repro.network.topology_example import example_network
from repro.trust.matrix import TrustMatrix, random_trust_matrix
from tests.reference_kernel import reference_kernel

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(200, m=2, rng=7)


@pytest.fixture(scope="module")
def stacked_values(graph):
    return np.random.default_rng(11).random((graph.num_nodes, 4))


class TestSweptBackendDefaults:
    """The last ``backend="dense"`` default sweep, pinned.

    Every entry point that used to hardcode the dense engine must now
    follow the auto policy — the same bug class already fixed in
    ``push_sum_average`` and ``attack_impact``.
    """

    def test_signature_defaults_are_auto(self):
        from repro.core.vector_gclr import aggregate_vector_gclr
        from repro.core.vector_global import aggregate_vector_global
        from repro.experiments import fig3, fig4, table2, xi_accuracy

        for fn in (
            aggregate_vector_global,
            aggregate_vector_gclr,
            fig3.run,
            fig4.run,
            table2.run,
            xi_accuracy.run,
        ):
            assert inspect.signature(fn).parameters["backend"].default == "auto", fn

    @pytest.fixture
    def spy(self, monkeypatch):
        chosen = []
        real_get_backend = backend_mod.get_backend
        monkeypatch.setattr(
            backend_mod,
            "get_backend",
            lambda name: chosen.append(backend_mod.resolve_backend_name(name))
            or real_get_backend(name),
        )
        return chosen

    def test_vector_global_follows_auto_policy(self, spy):
        from repro.core.vector_global import aggregate_vector_global

        g = example_network()
        result = aggregate_vector_global(
            g, random_trust_matrix(g, rng=3), targets=[0, 1], config=GossipConfig(xi=1e-3, rng=5)
        )
        assert result.outcome.steps > 0
        assert spy == [choose_backend_name(g)]

    def test_vector_gclr_follows_auto_policy(self, spy):
        from repro.core.vector_gclr import aggregate_vector_gclr

        g = example_network()
        result = aggregate_vector_gclr(
            g, random_trust_matrix(g, rng=3), targets=[0, 1], config=GossipConfig(xi=1e-3, rng=5)
        )
        assert result.outcome.steps > 0
        assert spy == [choose_backend_name(g)]

    def test_scenario_pins_swept_to_auto(self):
        from repro.scenarios import get_scenario
        from repro.scenarios import library  # noqa: F401 - registration

        assert get_scenario("collusion-under-churn").backend == "auto"
        assert get_scenario("flash-crowd").backend == "auto"

    def test_no_dense_default_left_in_src(self):
        """Source lint: every ``backend``/``engine`` default is ``"auto"``.

        Flags a parameter or dataclass-field default that names any
        registered backend (``"sparse"``, ``"message"``, ...): a pinned
        default bypasses the auto policy.
        Call sites (a scenario pinning its engine) and doctests may
        still name a backend.
        """

        def names_a_backend(node):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                return False
            try:
                backend_mod.resolve_backend_name(node.value)
            except backend_mod.UnknownBackendError:
                return False
            return True

        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    defaults = list(
                        zip(positional[len(positional) - len(args.defaults) :], args.defaults)
                    )
                    defaults += zip(args.kwonlyargs, args.kw_defaults)
                    defaults = [(arg.arg, default) for arg, default in defaults]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    defaults = [(node.target.id, node.value)]
                else:
                    continue
                for name, default in defaults:
                    if name in ("backend", "engine") and names_a_backend(default):
                        offenders.append(
                            f"{path.relative_to(SRC_ROOT)}:{default.lineno} "
                            f"{name}={default.value!r}"
                        )
        assert not offenders, "hardcoded backend defaults remain: " + ", ".join(offenders)


class TestCrossBackendParity:
    """Every channel lands on its fixpoint to 1e-8, and sparse matches message.

    Both step-synchronous engines run one round loop, so both run every V.
    """

    @pytest.mark.parametrize("num_channels", [1, 2, 4])
    def test_backends_agree(self, num_channels):
        g = example_network()
        values = np.random.default_rng(11).random((g.num_nodes, num_channels))
        weights = np.ones_like(values)
        config = GossipConfig(
            xi=1e-10, max_steps=100_000, rng=5, num_channels=num_channels
        )
        estimates = {}
        for backend in ("sparse", "message"):
            out = run_backend(g, values, weights, config=config, backend=backend)
            assert out.num_channels == num_channels
            estimates[backend] = out.estimates
            # Every channel hits its own fixpoint: per-channel estimates
            # land on the channel's column means.
            truth = values.mean(axis=0)
            assert np.abs(out.estimates - truth[None, :]).max() < 1e-8
            if num_channels > 1:
                assert out.channel_converged is not None
                assert out.channel_converged.shape == (g.num_nodes, num_channels)
                assert out.channel_converged.all()
        names = sorted(estimates)
        for a in names:
            for b in names:
                np.testing.assert_allclose(
                    estimates[a], estimates[b], atol=1e-8, err_msg=f"{a} vs {b}"
                )


class TestFixedBudgetChannelIdentity:
    """A fixed-budget run's first channel is bit for bit the V = 1 run.

    Under ``run_to_max`` every eligible node pushes every step, so a
    second channel changes neither the draws nor any operation on the
    first channel's columns.
    """

    @pytest.mark.parametrize("backend", ["message", "sparse"])
    def test_first_channel_equals_single_channel_run(self, backend):
        g = example_network()
        values = np.random.default_rng(11).random((g.num_nodes, 2))
        weights = np.ones_like(values)
        budget = dict(rng=5, max_steps=40, run_to_max=True)
        single = run_backend(
            g, values[:, :1], weights[:, :1], config=GossipConfig(**budget), backend=backend
        )
        double = run_backend(
            g, values, weights, config=GossipConfig(num_channels=2, **budget), backend=backend
        )
        assert single.steps == double.steps == 40
        assert single.push_messages == double.push_messages
        for name in ("values", "weights"):
            first = np.ascontiguousarray(getattr(double, name)[:, :1])
            assert first.tobytes() == np.ascontiguousarray(getattr(single, name)).tobytes()


class TestV1ByteIdentity:
    """``num_channels=1`` executes the historical code path literally."""

    def test_facade_single_channel_list_is_byte_identical(self, graph):
        values = np.random.default_rng(3).random(graph.num_nodes)
        config = GossipConfig(xi=1e-6, rng=9)
        plain = aggregate(graph, values, config, backend="sparse")
        listed = aggregate(graph, [values], config, backend="sparse")
        assert plain.steps == listed.steps
        np.testing.assert_array_equal(plain.values, listed.values)
        np.testing.assert_array_equal(plain.weights, listed.weights)

    def test_config_channel_one_is_byte_identical_on_sparse(self, graph):
        values = np.random.default_rng(3).random(graph.num_nodes)
        weights = np.ones_like(values)
        old = run_backend(
            graph, values, weights, config=GossipConfig(xi=1e-6, rng=9),
            backend="sparse",
        )
        new = run_backend(
            graph, values, weights,
            config=GossipConfig(xi=1e-6, rng=9, num_channels=1), backend="sparse",
        )
        assert old.steps == new.steps
        np.testing.assert_array_equal(old.values, new.values)
        np.testing.assert_array_equal(old.weights, new.weights)

    @pytest.mark.parametrize("kernel", ["fused", "unfused"])
    def test_sparse_kernels_byte_identical(self, graph, kernel):
        values = np.random.default_rng(4).random((graph.num_nodes, 2))
        weights = np.ones_like(values)
        with reference_kernel() if kernel == "unfused" else contextlib.nullcontext():
            old = SparseGossipEngine(graph, rng=6).run(
                values, weights, xi=1e-6, max_steps=2000
            )
            new = SparseGossipEngine(graph, rng=6).run(
                values, weights, xi=1e-6, max_steps=2000, num_channels=1
            )
        assert old.steps == new.steps
        np.testing.assert_array_equal(old.values, new.values)
        np.testing.assert_array_equal(old.weights, new.weights)


class TestPerChannelConvergence:
    """One converged channel must not stop a straggler channel."""

    def test_protocol_waits_for_every_channel(self):
        g = example_network()
        n = g.num_nodes
        protocol = ConvergenceProtocol(
            g, 1e-3, num_components=2, num_channels=2, patience=1
        )
        heard = np.ones(n, dtype=bool)
        # Channel 0 is motionless (satisfied); channel 1 still moves.
        moving = np.column_stack([np.zeros(n), np.full(n, 1.0)])
        for _ in range(4):
            announced = protocol.observe(moving, heard)
            assert announced.size == 0
        assert protocol.channel_converged[:, 0].all()
        assert not protocol.channel_converged[:, 1].any()
        assert not protocol.converged.any()
        # The straggler settles: only now do nodes announce.
        announced = protocol.observe(np.zeros((n, 2)), heard)
        assert announced.size == n
        assert protocol.channel_converged.all()

    def test_channel_latch_is_permanent(self):
        g = example_network()
        n = g.num_nodes
        protocol = ConvergenceProtocol(
            g, 1e-3, num_components=2, num_channels=2, patience=1
        )
        heard = np.ones(n, dtype=bool)
        protocol.observe(np.column_stack([np.zeros(n), np.full(n, 1.0)]), heard)
        assert protocol.channel_converged[:, 0].all()
        # Later movement on a latched channel does not un-latch it.
        protocol.observe(np.full((n, 2), 1.0), heard)
        assert protocol.channel_converged[:, 0].all()

    def test_engine_round_outlives_fast_channel(self, graph):
        n = graph.num_nodes
        rng = np.random.default_rng(8)
        constant = np.full(n, 0.5)
        slow = rng.random(n)
        fast_alone = SparseGossipEngine(graph, rng=2).run(
            constant, np.ones(n), xi=1e-8, max_steps=3000
        )
        stacked = SparseGossipEngine(graph, rng=2).run(
            np.column_stack([constant, slow]),
            np.ones((n, 2)),
            xi=1e-8,
            max_steps=3000,
            num_channels=2,
        )
        assert stacked.converged.all()
        assert stacked.channel_converged.all()
        # The constant channel alone stops early; stacked with a
        # straggler it must keep gossiping until both channels latch.
        assert stacked.steps >= fast_alone.steps


class TestCapabilityErrors:
    """The scalar-state async backend rejects V > 1 with the typed error."""

    @pytest.mark.parametrize("backend", ["async"])
    def test_rejects_multi_channel(self, backend):
        g = example_network()
        values = np.random.default_rng(1).random((g.num_nodes, 2))
        with pytest.raises(BackendCapabilityError, match="channel"):
            run_backend(
                g, values, np.ones_like(values),
                config=GossipConfig(num_channels=2), backend=backend,
            )

    def test_auto_policy_skips_message_for_channels(self):
        g = example_network()  # 10 nodes: auto would pick message at V=1
        assert choose_backend_name(g) == "message"
        assert choose_backend_name(g, GossipConfig(num_channels=2)) == "sparse"


class TestChannelApi:
    """GossipOutcome / GossipConfig / facade channel surface."""

    def test_config_validates_num_channels(self):
        with pytest.raises(ValueError, match="num_channels"):
            GossipConfig(num_channels=0)

    def test_outcome_channel_accessors(self, graph):
        t1 = random_trust_matrix(graph, rng=1)
        t2 = random_trust_matrix(graph, rng=2)
        out = aggregate(
            graph, [t1, t2], GossipConfig(xi=1e-5, rng=4),
            backend="sparse", variant="vector-global", targets=[0, 1, 2],
        )
        assert out.num_channels == 2
        assert out.components_per_channel == 3
        assert out.channel_slice(1) == slice(3, 6)
        assert out.channel_estimates(0).shape == (graph.num_nodes, 3)
        with pytest.raises(IndexError):
            out.channel_slice(2)

    def test_facade_rejects_channel_count_mismatch(self, graph):
        t1 = random_trust_matrix(graph, rng=1)
        t2 = random_trust_matrix(graph, rng=2)
        with pytest.raises(ValueError, match="num_channels"):
            aggregate(
                graph, [t1, t2], GossipConfig(num_channels=3),
                backend="sparse", variant="vector-global", targets=[0],
            )

    def test_facade_rejects_ragged_channels(self, graph):
        t1 = random_trust_matrix(graph, rng=1)
        with pytest.raises(ValueError, match="columns"):
            aggregate(
                graph,
                [np.ones(graph.num_nodes), np.ones((graph.num_nodes, 2))],
                GossipConfig(),
                backend="sparse",
            )

    def test_cross_channel_slander_targets_one_channel(self):
        from repro.attacks.models import make_attack

        n = 60
        t1, t2 = TrustMatrix(n), TrustMatrix(n)
        for i in range(n - 1):
            t1.set(i, i + 1, 0.9)
            t2.set(i, i + 1, 0.9)
        model = make_attack(
            "cross-channel-slander", fraction=0.3, seed=4, target_channel=1
        )
        (clean, poisoned), _ = model.apply_channels((t1, t2))
        assert clean is t1  # untouched channels are shared, not copied
        assert poisoned is not t2
