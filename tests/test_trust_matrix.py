"""Unit tests for the sparse trust matrix."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.preferential_attachment import preferential_attachment_graph_fast
from repro.trust.matrix import TrustMatrix, complete_trust_matrix, random_trust_matrix
from tests.reference_trust import reference_complete_trust_matrix, reference_random_trust_matrix


class TestBasics:
    def test_set_get(self):
        t = TrustMatrix(4)
        t.set(0, 1, 0.7)
        assert t.get(0, 1) == 0.7
        assert t.has(0, 1)

    def test_absent_defaults_to_zero(self):
        t = TrustMatrix(4)
        assert t.get(1, 2) == 0.0
        assert not t.has(1, 2)

    def test_overwrite(self):
        t = TrustMatrix(4)
        t.set(0, 1, 0.2)
        t.set(0, 1, 0.9)
        assert t.get(0, 1) == 0.9
        assert t.num_observations == 1

    def test_self_trust_rejected(self):
        t = TrustMatrix(4)
        with pytest.raises(ValueError, match="self-trust"):
            t.set(2, 2, 0.5)
        with pytest.raises(ValueError, match="self-trust"):
            t.get(2, 2)

    def test_out_of_range_rejected(self):
        t = TrustMatrix(4)
        with pytest.raises(ValueError):
            t.set(0, 9, 0.5)
        with pytest.raises(ValueError):
            t.get(9, 0)

    def test_value_out_of_bounds_rejected(self):
        t = TrustMatrix(4)
        with pytest.raises(ValueError):
            t.set(0, 1, 1.5)
        with pytest.raises(ValueError):
            t.set(0, 1, -0.1)

    def test_explicit_zero_is_an_observation(self):
        # Critical for gossip: a reported 0 carries weight 1.
        t = TrustMatrix(4)
        t.set(0, 1, 0.0)
        assert t.has(0, 1)
        assert 0 in t.observers_of(1)


class TestViews:
    def test_row_and_column(self):
        t = TrustMatrix(4)
        t.set(0, 1, 0.5)
        t.set(0, 2, 0.6)
        t.set(3, 1, 0.7)
        assert t.row(0) == {1: 0.5, 2: 0.6}
        assert t.column(1) == {0: 0.5, 3: 0.7}
        assert t.observers_of(1) == frozenset({0, 3})

    def test_row_is_a_copy(self):
        t = TrustMatrix(3)
        t.set(0, 1, 0.5)
        row = t.row(0)
        row[1] = 0.9
        assert t.get(0, 1) == 0.5

    def test_column_sums_and_means(self):
        t = TrustMatrix(4)
        t.set(0, 3, 0.4)
        t.set(1, 3, 0.8)
        assert t.column_sum(3) == pytest.approx(1.2)
        assert t.column_mean_over_observers(3) == pytest.approx(0.6)
        assert t.column_mean_over_all(3) == pytest.approx(0.3)

    def test_empty_column_means(self):
        t = TrustMatrix(4)
        assert t.column_mean_over_observers(2) == 0.0
        assert t.column_mean_over_all(2) == 0.0

    def test_items_roundtrip(self):
        t = TrustMatrix(5)
        entries = {(0, 1, 0.1), (2, 3, 0.2), (4, 0, 0.3)}
        for observer, target, value in entries:
            t.set(observer, target, value)
        assert set(t.items()) == entries


class TestDiscard:
    def test_discard_removes(self):
        t = TrustMatrix(3)
        t.set(0, 1, 0.5)
        t.discard(0, 1)
        assert not t.has(0, 1)
        assert t.observers_of(1) == frozenset()
        assert t.num_observations == 0

    def test_discard_absent_is_noop(self):
        t = TrustMatrix(3)
        t.discard(0, 1)
        assert t.num_observations == 0


class TestConversions:
    def test_dense_roundtrip(self):
        t = TrustMatrix(4)
        t.set(0, 1, 0.5)
        t.set(2, 3, 0.25)
        dense = t.to_dense()
        assert dense.shape == (4, 4)
        assert dense[0, 1] == 0.5
        back = TrustMatrix.from_dense(dense)
        assert set(back.items()) == set(t.items())

    def test_from_dense_with_mask_keeps_zeros(self):
        dense = np.zeros((3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        t = TrustMatrix.from_dense(dense, mask)
        assert t.has(0, 1)
        assert t.get(0, 1) == 0.0

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            TrustMatrix.from_dense(np.zeros((2, 3)))

    def test_observation_mask(self):
        t = TrustMatrix(3)
        t.set(0, 1, 0.0)
        mask = t.observation_mask()
        assert mask[0, 1]
        assert mask.sum() == 1

    def test_copy_is_independent(self):
        t = TrustMatrix(3)
        t.set(0, 1, 0.5)
        clone = t.copy()
        clone.set(0, 1, 0.9)
        assert t.get(0, 1) == 0.5


class TestGenerators:
    def test_random_edge_local(self, pa_graph_small):
        t = random_trust_matrix(pa_graph_small, rng=0)
        # Every edge yields mutual observations.
        assert t.num_observations == 2 * pa_graph_small.num_edges
        for observer, target, value in t.items():
            assert 0.0 <= value <= 1.0

    def test_random_with_edge_probability(self, pa_graph_small):
        t = random_trust_matrix(pa_graph_small, edge_probability=0.0, rng=0)
        assert t.num_observations == 0

    def test_random_extra_pairs(self, pa_graph_small):
        t = random_trust_matrix(pa_graph_small, edge_probability=0.0, extra_pairs=25, rng=0)
        # Overwrites can collapse pairs, so <= 25 but > 0.
        assert 0 < t.num_observations <= 25

    def test_random_reproducible(self, pa_graph_small):
        a = random_trust_matrix(pa_graph_small, rng=5)
        b = random_trust_matrix(pa_graph_small, rng=5)
        assert set(a.items()) == set(b.items())

    def test_complete_matrix(self):
        t = complete_trust_matrix(6, rng=1)
        assert t.num_observations == 6 * 5
        for target in range(6):
            assert len(t.observers_of(target)) == 5

    def test_complete_rejects_tiny(self):
        with pytest.raises(ValueError):
            complete_trust_matrix(1)


# -- exact column sums, checked against math.fsum ----------------------------

SMALLEST_NORMAL = 2.2250738585072014e-308
N_SMALL = 5

trust_values = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-310, SMALLEST_NORMAL, 1 - 2**-53, 1 - 2**-52]),
    st.floats(min_value=0.0, max_value=SMALLEST_NORMAL, exclude_max=True),  # subnormals
    st.floats(min_value=1 - 2**-40, max_value=1.0, exclude_max=True),  # just below 1
    st.floats(min_value=0.0, max_value=1.0),
)
# ("set", o, t, v) adds or overwrites t[o, t]; "overwrite" and "discard" act
# on an existing entry picked by (o, t); ("read", _, t, _) sums column t
# between mutations, so later writes update a live accumulator.
operations = st.lists(
    st.tuples(
        st.sampled_from(["set", "overwrite", "discard", "read"]),
        st.integers(0, N_SMALL - 1),
        st.integers(0, N_SMALL - 1),
        trust_values,
    ),
    max_size=120,
)


def assert_exact_column(t, target):
    """column_sum is fsum of the column; both means divide that one sum."""
    total = t.column_sum(target)
    assert total == math.fsum(t.column(target).values())
    assert t.column_mean_over_all(target) == total / t.num_nodes
    observers = len(t.observers_of(target))
    assert t.column_mean_over_observers(target) == (total / observers if observers else 0.0)


def test_column_sum_is_independent_of_insertion_order():
    # Plain left-to-right float addition gives 1.0 in this order and
    # 1.0000000000000002 in the reverse one; the exact sum gives fsum's.
    values = [1.0, 2**-53, 2**-53]
    forward, backward = TrustMatrix(4), TrustMatrix(4)
    for observer, value in enumerate(values, start=1):
        forward.set(observer, 0, value)
    for observer, value in reversed(list(enumerate(values, start=1))):
        backward.set(observer, 0, value)
    assert forward.column_sum(0) == backward.column_sum(0) == math.fsum(values) == 1.0000000000000002


def test_emptied_column_sums_to_zero_and_restarts():
    t = TrustMatrix(4)
    t.set(1, 0, 0.3)
    t.set(2, 0, 5e-324)
    assert t.column_sum(0) == math.fsum([0.3, 5e-324])
    t.discard(1, 0)
    t.discard(2, 0)
    assert t.column_sum(0) == 0.0
    assert t.column_mean_over_observers(0) == 0.0
    t.set(3, 0, 0.7)
    assert_exact_column(t, 0)


@pytest.mark.property
@settings(max_examples=300, deadline=None)
@example(ops=[("set", 1, 0, 0.5), ("set", 2, 0, 0.25), ("read", 0, 0, 0.0),
              ("overwrite", 0, 0, 1.0), ("read", 0, 0, 0.0), ("discard", 0, 0, 0.0),
              ("read", 0, 0, 0.0), ("discard", 0, 0, 0.0), ("set", 3, 0, 1e-310)], seed=0)
@given(ops=operations, seed=st.integers(0, 2**32 - 1))
def test_exact_column_sums_match_fsum_under_any_mutation_sequence(ops, seed):
    t = TrustMatrix(N_SMALL)
    for op, a, b, value in ops:
        entries = sorted((observer, target) for observer, target, _ in t.items())
        if op == "read":
            assert_exact_column(t, b)
        elif op == "set":
            if a != b:
                t.set(a, b, value)
        elif entries:
            observer, target = entries[(a * N_SMALL + b) % len(entries)]
            if op == "overwrite":
                t.set(observer, target, value)
            else:
                t.discard(observer, target)
    for target in range(N_SMALL):
        assert_exact_column(t, target)

    # The same final entries, set in a shuffled order with the
    # accumulators built halfway through, sum to the same bits.
    entries = list(t.items())
    random.Random(seed).shuffle(entries)
    replay = TrustMatrix(N_SMALL)
    half = len(entries) // 2
    for observer, target, value in entries[:half]:
        replay.set(observer, target, value)
    for target in range(N_SMALL):
        replay.column_sum(target)
    for observer, target, value in entries[half:]:
        replay.set(observer, target, value)
    for target in range(N_SMALL):
        assert replay.column_sum(target).hex() == t.column_sum(target).hex()


# -- the array face: from_arrays equals one set per triple ---------------------


def sequential(num_nodes, triples):
    """The matrix one ``set`` per triple builds, in order."""
    t = TrustMatrix(num_nodes)
    for observer, target, value in triples:
        t.set(observer, target, value)
    return t


def from_triples(num_nodes, triples):
    observers, targets, values = zip(*triples) if triples else ((), (), ())
    return TrustMatrix.from_arrays(num_nodes, list(observers), list(targets), list(values))


def assert_same_matrix(a, b):
    """Equal entries, and equal down to every order a caller can observe."""
    assert a.num_nodes == b.num_nodes
    assert a.num_observations == b.num_observations
    assert [(o, t, v.hex()) for o, t, v in a.items()] == [(o, t, v.hex()) for o, t, v in b.items()]
    for target in range(a.num_nodes):
        assert list(a.observers_of(target)) == list(b.observers_of(target))
        assert list(a.column(target).items()) == list(b.column(target).items())
    assert list(a._by_target) == list(b._by_target)
    assert a._sums == b._sums == {}  # column accumulators stay lazy
    for target in range(a.num_nodes):
        assert a.column_sum(target).hex() == b.column_sum(target).hex()


N_ARRAYS = 7
node_ids = st.integers(0, N_ARRAYS - 1)
valid_triples = st.lists(st.tuples(node_ids, node_ids, trust_values), max_size=80).map(
    lambda triples: [t for t in triples if t[0] != t[1]]
)
bad_triples = st.one_of(
    st.tuples(st.sampled_from([-1, N_ARRAYS, 10**6]), node_ids, trust_values),
    st.tuples(node_ids, st.sampled_from([-1, N_ARRAYS]), trust_values),
    st.tuples(node_ids, trust_values).map(lambda p: (p[0], p[0], p[1])),
    st.tuples(
        node_ids,
        node_ids,
        st.sampled_from([math.nan, math.inf, -math.inf, -0.1, -5e-324, 1.5, 1 + 2**-52]),
    ),
)


class TestFromArrays:
    @pytest.mark.property
    @settings(max_examples=300, deadline=None)
    @example(triples=[(0, 1, 0.5), (2, 1, 0.25), (0, 1, 0.75), (0, 2, 0.0)])
    @given(triples=valid_triples)
    def test_equals_one_set_per_triple(self, triples):
        assert_same_matrix(from_triples(N_ARRAYS, triples), sequential(N_ARRAYS, triples))

    @pytest.mark.property
    @settings(max_examples=200, deadline=None)
    @given(triples=valid_triples, bad=bad_triples, where=st.integers(0, 80))
    def test_raises_what_set_raises_for_the_first_bad_triple(self, triples, bad, where):
        triples.insert(min(where, len(triples)), bad)
        with pytest.raises(ValueError) as expected:
            sequential(N_ARRAYS, triples)
        with pytest.raises(ValueError) as got:
            from_triples(N_ARRAYS, triples)
        assert str(got.value) == str(expected.value)

    def test_numpy_inputs_and_empty(self):
        t = TrustMatrix.from_arrays(
            4, np.array([3, 1], dtype=np.int32), np.array([0, 2]), np.array([1.0, 0.5])
        )
        assert list(t.items()) == [(3, 0, 1.0), (1, 2, 0.5)]
        assert all(type(o) is int and type(v) is float for o, _, v in t.items())
        assert TrustMatrix.from_arrays(3, [], [], []).num_observations == 0

    def test_rejects_malformed_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            TrustMatrix.from_arrays(4, [0, 1], [1], [0.5, 0.5])
        with pytest.raises(ValueError, match="integer node ids"):
            TrustMatrix.from_arrays(4, [0.0], [1], [0.5])

    def test_node_ids_are_shared_ints(self):
        t = TrustMatrix.from_arrays(1000, [500, 600, 500], [600, 500, 700], [0.1, 0.2, 0.3])
        items = list(t.items())
        assert items == [(500, 600, 0.1), (500, 700, 0.3), (600, 500, 0.2)]
        assert items[0][0] is items[2][1]  # one int object per node id, not one per entry
        assert items[0][1] is items[2][0]


class TestToArrays:
    def test_items_order_and_round_trip(self):
        t = TrustMatrix(5)
        for observer, target, value in [(2, 3, 0.5), (0, 2, 0.0), (2, 0, 0.25), (4, 1, 1.0)]:
            t.set(observer, target, value)
        t.discard(4, 1)
        observers, targets, values = t.to_arrays()
        assert list(zip(observers.tolist(), targets.tolist(), values.tolist())) == list(t.items())
        assert observers.dtype == targets.dtype == np.int64 and values.dtype == np.float64
        assert_same_matrix(TrustMatrix.from_arrays(5, observers, targets, values), t.copy())

    def test_fresh_arrays_each_call(self):
        t = TrustMatrix.from_arrays(3, [0], [1], [0.5])
        before = t.to_arrays()
        before[0][:] = 2
        t.set(1, 2, 0.75)
        assert [a.tolist() for a in t.to_arrays()] == [[0, 1], [1, 2], [0.5, 0.75]]

    def test_empty(self):
        assert all(array.size == 0 for array in TrustMatrix(5).to_arrays())


class TestBulkBuildersMatchTheLoops:
    """Every bulk builder equals the per-entry loop it replaced."""

    @pytest.mark.parametrize("n", [10, 2000])
    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence(41)], ids=["int", "seedseq"])
    @pytest.mark.parametrize("extra_pairs", [0, 300], ids=["edges", "extra"])
    def test_random_trust_matrix(self, n, seed, extra_pairs):
        graph = preferential_attachment_graph_fast(n, m=4, rng=n)
        assert_same_matrix(
            random_trust_matrix(graph, extra_pairs=extra_pairs, rng=seed),
            reference_random_trust_matrix(graph, extra_pairs=extra_pairs, rng=seed),
        )

    def test_edge_probability_keeps_a_share_of_edges_with_mutual_opinions(self):
        graph = preferential_attachment_graph_fast(2000, m=4, rng=2000)
        edges = list(graph.edges())
        t = random_trust_matrix(graph, edge_probability=0.3, rng=5)
        kept = [(u, v) for u, v in edges if t.has(u, v)]
        assert all(t.has(v, u) for u, v in kept)
        assert t.num_observations == 2 * len(kept)
        # Binomial(E, 0.3): 5 standard deviations is about 0.026 at E ~ 8000.
        assert abs(len(kept) / len(edges) - 0.3) < 5 * math.sqrt(0.3 * 0.7 / len(edges))
        # The extra pairs draw after every edge: the same edges are kept.
        extra = random_trust_matrix(graph, edge_probability=0.3, extra_pairs=50, rng=5)
        assert {(o, j) for o, j, _ in t.items()} <= {(o, j) for o, j, _ in extra.items()}
        assert t.num_observations < extra.num_observations <= t.num_observations + 50

    @pytest.mark.parametrize(
        "seed, extra_pairs", [(11, 0), (np.random.SeedSequence(12), 5000)], ids=["int", "seedseq"]
    )
    def test_random_trust_matrix_at_20k(self, seed, extra_pairs):
        graph = preferential_attachment_graph_fast(20_000, m=4, rng=3)
        assert_same_matrix(
            random_trust_matrix(graph, extra_pairs=extra_pairs, rng=seed),
            reference_random_trust_matrix(graph, extra_pairs=extra_pairs, rng=seed),
        )

    @pytest.mark.parametrize("n", [2, 10, 150])
    @pytest.mark.parametrize("seed", [4, np.random.SeedSequence(8)], ids=["int", "seedseq"])
    def test_complete_trust_matrix(self, n, seed):
        assert_same_matrix(
            complete_trust_matrix(n, rng=seed), reference_complete_trust_matrix(n, rng=seed)
        )

    def test_copy_resized_and_from_dense_keep_the_entry_order(self, small_trust):
        t = TrustMatrix(6)
        for observer, target, value in [(4, 1, 0.5), (0, 5, 0.0), (4, 0, 0.25), (2, 1, 1.0)]:
            t.set(observer, target, value)
        t.discard(0, 5)
        t.column_sum(1)
        assert_same_matrix(t.copy(), sequential(6, t.items()))
        assert_same_matrix(t.resized(9), sequential(9, t.items()))
        dense = small_trust.to_dense()
        mask = small_trust.observation_mask()
        row_major = [
            (o, int(j), float(dense[o, j]))
            for o in range(dense.shape[0])
            for j in np.nonzero(mask[o])[0]
        ]
        assert_same_matrix(TrustMatrix.from_dense(dense, mask), sequential(60, row_major))
        with pytest.raises(ValueError, match="mask shape"):
            TrustMatrix.from_dense(dense, mask[:5])


def _traced_build(build):
    """``(retained, peak)`` bytes of one build under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        matrix = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.num_observations > 0
    return retained - start, peak - start


def test_bulk_build_memory_at_20k():
    """Shared node ids: the build keeps less than the loop and peaks at most 1.4x that."""
    graph = preferential_attachment_graph_fast(20_000, m=4, rng=3)
    loop_retained, _ = _traced_build(lambda: reference_random_trust_matrix(graph, rng=7))
    retained, peak = _traced_build(lambda: random_trust_matrix(graph, rng=7))
    assert retained <= loop_retained
    assert peak <= 1.4 * loop_retained
