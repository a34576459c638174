"""Kernel registry, fused/unfused parity, and the float32 drift bound.

The fused kernels exist purely for speed: every observable quantity —
steps, state, message counts, convergence flags — must match the
historical unfused step byte-for-byte at float64 (the two paths draw
byte-identical targets from one shared :class:`PushPlan`). float32 is
allowed bounded drift: mass conserved to the dtype tolerance and the
fixpoint within 1e-4 of the float64 reference, property-tested across
every backend that implements it; float64-only backends must raise the
typed :class:`UnsupportedDtypeError`, never silently upcast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_mod
from repro import GossipConfig, aggregate
from repro.core.backend import run_backend
from repro.core.errors import UnsupportedDtypeError
from repro.core.kernels import (
    KernelSpec,
    KernelUnavailableError,
    available_kernels,
    registered_kernels,
    select_kernel,
)
from repro.core.kernels.numba_kernel import NUMBA_AVAILABLE
from repro.core.sparse_engine import SparseGossipEngine
from repro.core.state import mass_rtol_for
from repro.network.churn import PacketLossModel
from repro.network.preferential_attachment import (
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)


class TestRegistry:
    def test_auto_selects_best_available(self):
        spec = select_kernel()
        assert spec.name == ("numba" if NUMBA_AVAILABLE else "fused")
        assert spec.available
        assert select_kernel("auto").name == spec.name

    def test_fused_and_unfused_always_available(self):
        names = available_kernels()
        assert "fused" in names
        assert "unfused" in names

    def test_unknown_kernel_raises_typed_error(self):
        with pytest.raises(KernelUnavailableError, match="unknown push kernel"):
            select_kernel("simd")

    def test_unavailable_kernel_raises_typed_error(self, monkeypatch):
        spec = kernels_mod._REGISTRY["numba"]
        monkeypatch.setitem(
            kernels_mod._REGISTRY,
            "numba",
            KernelSpec(
                name="numba",
                description=spec.description,
                factory=spec.factory,
                is_available=lambda: False,
            ),
        )
        with pytest.raises(KernelUnavailableError, match="not available"):
            select_kernel("numba")

    def test_unfused_is_never_auto_selected(self, monkeypatch):
        # With every auto-eligible kernel unavailable, selection fails
        # loudly rather than falling back to the reference step.
        for name in ("numba", "fused"):
            spec = kernels_mod._REGISTRY[name]
            monkeypatch.setitem(
                kernels_mod._REGISTRY,
                name,
                KernelSpec(
                    name=name,
                    description=spec.description,
                    factory=spec.factory,
                    is_available=lambda: False,
                ),
            )
        with pytest.raises(KernelUnavailableError, match="no push kernel"):
            select_kernel()

    def test_registered_specs_describe_themselves(self):
        by_name = {spec.name: spec for spec in registered_kernels()}
        assert set(by_name) >= {"numba", "fused", "unfused"}
        assert all(spec.description for spec in by_name.values())

    def test_engine_reports_resolved_kernel(self, pa_graph_small):
        engine = SparseGossipEngine(pa_graph_small, rng=0)
        assert engine.kernel_name == select_kernel().name
        assert SparseGossipEngine(pa_graph_small, rng=0, kernel="unfused").kernel_name == (
            "unfused"
        )

    def test_engine_rejects_unavailable_kernel_at_construction(self, pa_graph_small):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; no unavailable kernel to request")
        with pytest.raises(KernelUnavailableError):
            SparseGossipEngine(pa_graph_small, rng=0, kernel="numba")


class TestSamplingParity:
    """Fused and unfused paths draw byte-identical targets."""

    def test_full_active_matches_subset_sampling(self):
        graph = preferential_attachment_graph(400, m=3, rng=9)
        engine = SparseGossipEngine(graph, rng=0)
        plan = engine._plan
        all_active = np.ones(graph.num_nodes, dtype=bool)
        targets_out = np.empty(plan.max_pushes, dtype=np.int64)
        for seed in (0, 1, 2):
            s_fast, t_fast = plan.sample_full_active(
                np.random.default_rng(seed), targets_out
            )
            s_ref, t_ref = plan.sample_subset(np.random.default_rng(seed), all_active)
            np.testing.assert_array_equal(s_fast, s_ref)
            np.testing.assert_array_equal(t_fast, t_ref)


def _run(engine, values, weights, **kw):
    return engine.run(values, weights, **kw)


class TestKernelParity:
    """Fused float64 outcomes are byte-identical to the unfused reference."""

    KERNELS = ["fused"] + (["numba"] if NUMBA_AVAILABLE else [])

    def _graph(self):
        return preferential_attachment_graph_fast(3000, 4, rng=11)

    def _compare(self, kernel, make_kwargs, run_kwargs):
        graph = self._graph()
        n = graph.num_nodes
        values = np.random.default_rng(5).random(n)
        weights = np.ones(n)
        outs = []
        for name in ("unfused", kernel):
            engine = SparseGossipEngine(graph, rng=77, kernel=name, **make_kwargs())
            outs.append(engine.run(values, weights, **run_kwargs()))
        ref, out = outs
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
        outs = []
        for name in ("unfused", kernel):
            engine = SparseGossipEngine(graph, rng=31, kernel=name)
            outs.append(engine.run(values, weights, xi=1e-5, extras=extras))
        ref, out = outs
        assert out.steps == ref.steps
        np.testing.assert_array_equal(out.values, ref.values)
        np.testing.assert_array_equal(out.weights, ref.weights)
        np.testing.assert_array_equal(out.extras["count"], ref.extras["count"])


class TestFloat32:
    def test_sparse_float32_state_dtype_and_accuracy(self):
        graph = preferential_attachment_graph_fast(3000, 4, rng=11)
        n = graph.num_nodes
        values = np.random.default_rng(5).random(n)
        weights = np.ones(n)
        ref = SparseGossipEngine(graph, rng=77).run(values, weights, xi=1e-5)
        out = SparseGossipEngine(graph, rng=77, dtype=np.float32).run(
            values, weights, xi=1e-5
        )
        assert out.values.dtype == np.float32
        est_ref = ref.values[:, 0] / ref.weights[:, 0]
        est = out.values[:, 0].astype(np.float64) / out.weights[:, 0].astype(np.float64)
        assert float(np.abs(est - est_ref).max()) < 1e-4

    def test_message_backend_raises_typed_error(self, pa_graph_small):
        values = np.ones(pa_graph_small.num_nodes)
        with pytest.raises(UnsupportedDtypeError, match="float64"):
            run_backend(
                pa_graph_small,
                values,
                np.ones_like(values),
                config=GossipConfig(dtype="float32", rng=1),
                backend="message",
            )

    def test_async_backend_raises_typed_error(self, pa_graph_small):
        values = np.ones(pa_graph_small.num_nodes)
        with pytest.raises(UnsupportedDtypeError):
            run_backend(
                pa_graph_small,
                values,
                np.ones_like(values),
                config=GossipConfig(dtype="float32", rng=1),
                backend="async",
            )

    def test_unsupported_dtype_rejected_at_config_construction(self):
        with pytest.raises(UnsupportedDtypeError, match="not supported"):
            GossipConfig(dtype="int32")
        with pytest.raises(UnsupportedDtypeError):
            GossipConfig(dtype="float16")


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=24, max_value=96),
    backend=st.sampled_from(["sparse", "sharded"]),
)
def test_float32_drift_bound_property(seed, n, backend):
    """Property row: float32 gossip conserves mass and lands within 1e-4.

    For every backend implementing float32, a full round at float32 must
    (a) keep each component's mass within the float32 tolerance of its
    initial total and (b) reach a fixpoint within 1e-4 of the float64
    reference run of the same backend and seed.
    """
    graph = preferential_attachment_graph(n, m=2, rng=seed)
    values = np.random.default_rng(seed).random(n)
    common = dict(xi=1e-6, rng=seed + 1, patience=2)
    ref = aggregate(graph, values, GossipConfig(**common), backend=backend)
    out = aggregate(graph, values, GossipConfig(dtype="float32", **common), backend=backend)
    assert out.values.dtype == np.float32

    rtol = mass_rtol_for(np.float32) * max(1.0, np.sqrt(n))
    for component, initial in (
        (out.values, values.sum()),
        (out.weights, float(n)),
    ):
        total = float(component.astype(np.float64).sum())
        assert abs(total - initial) <= rtol * max(abs(initial), 1.0)

    est_ref = ref.values[:, 0] / ref.weights[:, 0]
    est = out.values[:, 0].astype(np.float64) / out.weights[:, 0].astype(np.float64)
    assert float(np.abs(est - est_ref).max()) < 1e-4


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="optional 'kernels' extra not installed")
class TestNumbaKernel:
    def test_auto_selection_prefers_numba(self):
        assert select_kernel().name == "numba"

    def test_config_kernel_numba_runs(self, pa_graph_medium):
        n = pa_graph_medium.num_nodes
        out = aggregate(
            pa_graph_medium,
            np.linspace(0.0, 1.0, n),
            GossipConfig(rng=3, kernel="numba", xi=1e-6),
            backend="sparse",
        )
        assert bool(np.allclose(out.estimates, 0.5, atol=1e-3))
