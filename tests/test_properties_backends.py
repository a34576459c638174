"""Property-based cross-backend invariants (hypothesis).

The backend registry promises that every engine executes the same
update rule: identical configs must converge to identical fixpoints on
*any* topology, not just the fixtures the example-based suite pins.
This suite drives randomly grown graphs and randomly drawn
:class:`~repro.core.backend.GossipConfig` knobs through every capable
backend and asserts three invariants:

- **agreement**: all synchronous backends land within 1e-8 of one
  another (and of the analytic fixpoint);
- **mass conservation**: the global sums of gossip value and weight
  are exact invariants of every step, even under packet loss (the
  self-push repair of Section 5.3);
- **permutation equivariance**: relabelling the nodes relabels the
  outputs — nothing in any engine may depend on node identity.

Failures shrink: hypothesis minimises the graph size, seed and config
towards the smallest world that still violates the invariant (run
``pytest tests/test_properties_backends.py`` and read the "Falsifying
example" block).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backend import GossipConfig, available_backends, run_backend
from repro.core.differential import push_counts
from repro.network.graph import Graph
from repro.network.preferential_attachment import preferential_attachment_graph

pytestmark = pytest.mark.property

#: Synchronous backends every draw is run through ("async" gossips on
#: exponential clocks with its own stop rule, so it is compared against
#: the fixpoint separately rather than trajectory-for-trajectory).
SYNC_BACKENDS = ("message", "sparse")

SUITE = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# One random world: (nodes, attachment m, graph seed, value seed).
world = st.tuples(
    st.integers(min_value=8, max_value=24),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)

# Random shared config knobs: uniform k (or None = differential rule)
# and the engine seed.
config_knobs = st.tuples(
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def build_world(params):
    n, m, graph_seed, value_seed = params
    graph = preferential_attachment_graph(n, m=m, rng=graph_seed)
    values = np.random.default_rng(value_seed).random(n)
    return graph, values


class TestCrossBackendAgreement:
    def test_all_builtin_backends_registered(self):
        assert set(SYNC_BACKENDS) <= set(available_backends())

    @SUITE
    @given(params=world, knobs=config_knobs)
    def test_sync_backends_agree_to_1e8(self, params, knobs):
        """Any graph × any config: every backend hits the same fixpoint.

        The 1e-8 bar is the differential rule's (``k=None``): its
        degree-scaled push counts keep every node fed, so the xi-movement
        stop tracks true convergence. A *fixed* ``k`` (the normal-push
        ablation knob) reintroduces reception starvation — a node that
        receives nothing for ``patience`` steps sees zero movement and
        stops while mixing is still finishing (hypothesis found a k=1
        world where one dense-engine node ended ~2e-7 off) — so the
        uniform-k cases are held to a correspondingly realistic 1e-6.
        """
        graph, values = build_world(params)
        k, seed = knobs
        atol = 1e-8 if k is None else 1e-6
        truth = float(values.mean())
        estimates = {}
        for name in SYNC_BACKENDS:
            config = GossipConfig(xi=1e-10, k=k, rng=seed)
            out = run_backend(graph, values, np.ones_like(values), config=config, backend=name)
            estimate = out.estimates.reshape(-1)
            np.testing.assert_allclose(
                estimate, truth, atol=atol, err_msg=f"{name} missed the fixpoint"
            )
            estimates[name] = estimate
        for name in SYNC_BACKENDS[1:]:
            np.testing.assert_allclose(
                estimates[name],
                estimates[SYNC_BACKENDS[0]],
                atol=atol,
                err_msg=f"{name} disagrees with {SYNC_BACKENDS[0]}",
            )

    @SUITE
    @given(params=world, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_async_backend_hits_the_same_fixpoint(self, params, seed):
        graph, values = build_world(params)
        out = run_backend(
            graph,
            values,
            np.ones_like(values),
            config=GossipConfig(xi=1e-10, rng=seed),
            backend="async",
        )
        np.testing.assert_allclose(out.estimates.reshape(-1), values.mean(), atol=1e-8)


class TestMassConservation:
    @SUITE
    @given(
        params=world,
        knobs=config_knobs,
        loss=st.floats(min_value=0.0, max_value=0.6),
    )
    def test_totals_invariant_under_packet_loss(self, params, knobs, loss):
        """Lost pushes self-redirect, so the global sums never move."""
        graph, values = build_world(params)
        k, seed = knobs
        weights = np.ones_like(values)
        config = GossipConfig(
            xi=1e-10, k=k, rng=seed, loss_probability=loss, max_steps=12, run_to_max=True
        )
        out = run_backend(graph, values, weights, config=config, backend="sparse")
        np.testing.assert_allclose(out.values.sum(), values.sum(), rtol=1e-12)
        np.testing.assert_allclose(out.weights.sum(), weights.sum(), rtol=1e-12)

    @SUITE
    @given(params=world, loss=st.floats(min_value=0.0, max_value=0.5))
    def test_message_engine_conserves_mass_to_convergence(self, params, loss):
        graph, values = build_world(params)
        config = GossipConfig(xi=1e-6, rng=3, loss_probability=loss)
        out = run_backend(graph, values, np.ones_like(values), config=config, backend="message")
        np.testing.assert_allclose(out.values.sum(), values.sum(), rtol=1e-12)
        np.testing.assert_allclose(out.weights.sum(), float(len(values)), rtol=1e-12)


def permute_world(graph: Graph, values: np.ndarray, perm: np.ndarray):
    """Relabel node ``i`` as ``perm[i]`` in both topology and state."""
    edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges()]
    permuted_values = np.empty_like(values)
    permuted_values[perm] = values
    return Graph(graph.num_nodes, edges), permuted_values


class TestPermutationEquivariance:
    @SUITE
    @given(
        params=world,
        perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_push_counts_are_equivariant(self, params, perm_seed):
        """The differential rule k_i sees structure, not node ids — exactly."""
        graph, _ = build_world(params)
        perm = np.random.default_rng(perm_seed).permutation(graph.num_nodes)
        permuted_graph, _ = permute_world(graph, np.zeros(graph.num_nodes), perm)
        k = push_counts(graph)
        k_permuted = push_counts(permuted_graph)
        assert np.array_equal(k_permuted[perm], k)
        assert np.array_equal(
            permuted_graph.average_neighbor_degrees[perm], graph.average_neighbor_degrees
        )

    @SUITE
    @given(
        params=world,
        perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
        backend=st.sampled_from(SYNC_BACKENDS),
    )
    def test_converged_estimates_are_equivariant(self, params, perm_seed, backend):
        """Relabelled world converges to the relabelled reputations."""
        graph, values = build_world(params)
        perm = np.random.default_rng(perm_seed).permutation(graph.num_nodes)
        permuted_graph, permuted_values = permute_world(graph, values, perm)
        config = GossipConfig(xi=1e-10, rng=11)
        out = run_backend(
            graph, values, np.ones_like(values), config=config, backend=backend
        )
        out_permuted = run_backend(
            permuted_graph,
            permuted_values,
            np.ones_like(values),
            config=config,
            backend=backend,
        )
        np.testing.assert_allclose(
            out_permuted.estimates.reshape(-1)[perm],
            out.estimates.reshape(-1),
            atol=1e-8,
        )
