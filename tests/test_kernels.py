"""Fused-kernel parity with the historical unfused step, and the kernel API.

The fused kernel exists purely for speed: every observable quantity —
steps, state, message counts, convergence flags — must match the
historical unfused step (:class:`tests.reference_kernel.UnfusedNumpyKernel`)
byte-for-byte, because the two paths draw byte-identical targets from
one shared :class:`PushPlan`. The reference runs inside the engine by
replacing the kernel class the sparse engine instantiates.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.differential import resolve_push_counts
from repro.core.kernels import PushPlan, create_kernel, select_kernel
from repro.core.sparse_engine import SparseGossipEngine
from repro.network.conditions import PacketLossModel
from repro.network.preferential_attachment import preferential_attachment_graph_fast
from tests.reference_kernel import reference_kernel


class TestKernelApi:
    """The kernel-layer names that replay push rounds outside the engine."""

    def test_replay_calls_run_the_fused_kernel(self):
        # The same calls, in the same order, as a full-active kernel
        # replay: build the plan, create the kernel, sample, step.
        graph = preferential_attachment_graph_fast(2000, 4, rng=3)
        counts = resolve_push_counts(graph, None)
        plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
        num_cols = 3
        kernel = create_kernel(None, plan, 1.0 / (counts + 1.0), num_cols, np.float64)
        assert select_kernel().name == "fused"
        assert kernel.name == "fused"
        active = graph.degrees > 0
        rng = np.random.default_rng(5)
        targets = np.empty(plan.max_pushes, dtype=np.int64)
        senders, sampled = plan.sample(rng, active, all_active=True, targets_out=targets)
        assert senders.size == sampled.size == plan.max_pushes
        heard = np.empty(graph.num_nodes, dtype=bool)
        state = np.random.default_rng(6).random((graph.num_nodes, num_cols))
        mass = state.sum(axis=0)
        state, pushes = kernel.step(
            state, active, all_active=True, rng=rng, loss_model=None, heard_out=heard
        )
        assert pushes == plan.max_pushes
        np.testing.assert_allclose(state.sum(axis=0), mass, rtol=1e-12)
        assert heard.any()

    def test_create_kernel_rejects_other_kernels_and_precisions(self):
        graph = preferential_attachment_graph_fast(200, 2, rng=1)
        counts = resolve_push_counts(graph, None)
        plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
        inv = 1.0 / (counts + 1.0)
        assert create_kernel("fused", plan, inv, 2, "float64").name == "fused"
        with pytest.raises(ValueError, match="only kernel"):
            create_kernel("unfused", plan, inv, 2, np.float64)
        with pytest.raises(ValueError, match="float64"):
            create_kernel(None, plan, inv, 2, np.float32)

    def test_plan_build_peaks_near_what_it_keeps(self):
        # Every engine build (each churn block builds one) pays the plan's
        # transient allocations; no edge-sized scratch array may outlive
        # the line that needs it.
        graph = preferential_attachment_graph_fast(50_000, 8, rng=11)
        counts = resolve_push_counts(graph, None)
        tracemalloc.start()
        try:
            plan = PushPlan(graph.indptr, graph.indices, graph.degrees, counts)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.max_pushes > 0
        assert peak < 1.5 * retained, f"build peaked at {peak / retained:.2f}x what the plan keeps"


def _kernel_names(engine):
    """Names of the push kernels ``engine`` has built so far."""
    return {kernel.name for kernel in engine._kernels.values()}


class TestKernelParity:
    """Fused outcomes are byte-identical to the unfused reference."""

    #: The kernel under test, named in the test ids.
    KERNELS = ["fused"]

    def _graph(self):
        return preferential_attachment_graph_fast(3000, 4, rng=11)

    def _compare(self, kernel, make_kwargs, run_kwargs):
        assert select_kernel().name == kernel
        graph = self._graph()
        n = graph.num_nodes
        values = np.random.default_rng(5).random(n)
        weights = np.ones(n)

        def run():
            engine = SparseGossipEngine(graph, rng=77, **make_kwargs())
            return engine, engine.run(values, weights, **run_kwargs())

        with reference_kernel():
            ref_engine, ref = run()
        engine, out = run()
        assert _kernel_names(ref_engine) == {"unfused"}
        assert _kernel_names(engine) == {kernel}
        assert out.steps == ref.steps
        assert out.push_messages == ref.push_messages
        assert out.active_node_steps == ref.active_node_steps
        np.testing.assert_array_equal(out.values, ref.values)
        np.testing.assert_array_equal(out.weights, ref.weights)
        np.testing.assert_array_equal(out.converged, ref.converged)
        for key in ref.extras:
            np.testing.assert_array_equal(out.extras[key], ref.extras[key])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_convergence_run_parity(self, kernel):
        self._compare(kernel, dict, lambda: {"xi": 1e-5})

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_to_max_parity(self, kernel):
        self._compare(kernel, dict, lambda: {"max_steps": 25, "run_to_max": True})

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_loss_model_parity(self, kernel):
        self._compare(
            kernel,
            lambda: {"loss_model": PacketLossModel(0.2, rng=100)},
            lambda: {"xi": 1e-5},
        )

    # d=8 gives the 24-column state of an 8-target GCLR round: past the
    # combined-bincount cutoff, so the fused kernel pushes it column by
    # column.
    @pytest.mark.parametrize(
        "kernel,d",
        [pytest.param(k, d, id=k if d == 2 else f"{k}-d{d}") for k in KERNELS for d in (2, 8)],
    )
    def test_extras_and_vector_state_parity(self, kernel, d):
        graph = self._graph()
        n = graph.num_nodes
        rng = np.random.default_rng(6)
        values = rng.random((n, d))
        weights = np.ones((n, d))
        extras = {"count": rng.random((n, d))}
        assert select_kernel().name == kernel

        def run():
            engine = SparseGossipEngine(graph, rng=31)
            return engine, engine.run(values, weights, xi=1e-5, extras=extras)

        with reference_kernel():
            ref_engine, ref = run()
        engine, out = run()
        assert _kernel_names(ref_engine) == {"unfused"}
        assert _kernel_names(engine) == {kernel}
        assert out.steps == ref.steps
        np.testing.assert_array_equal(out.values, ref.values)
        np.testing.assert_array_equal(out.weights, ref.weights)
        np.testing.assert_array_equal(out.extras["count"], ref.extras["count"])
