"""Smoke + shape tests for every experiment in the registry.

Each experiment runs at a reduced scale and its *qualitative shape* —
the thing the paper's table/figure shows — is asserted, not exact
numbers.
"""

import numpy as np
import pytest

from repro.experiments import eq17, fig3, fig4, fig5, fig6, table1, table2, theorem52
from repro.experiments.registry import available_experiments, get_experiment
from repro.experiments.runner import ExperimentResult


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(available_experiments()) == {
            "table1",
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "theorem52",
            "eq17",
            "xi_accuracy",
            "attack_slander",
            "attack_sybil",
            "tournament",
        }

    def test_lookup_unknown_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="available"):
            get_experiment("nope")

    def test_lookup_known(self):
        assert get_experiment("table1") is table1.run


class TestTable1:
    def test_converges_to_initial_mean(self):
        result = table1.run(xi=0.005, seed=1)
        assert isinstance(result, ExperimentResult)
        final_row = result.rows[-1]
        assert final_row[0] == "final"
        values = np.array(final_row[1:], dtype=float)
        assert np.allclose(values, 0.44977, atol=0.02)

    def test_k_row_matches_paper(self):
        result = table1.run(seed=2)
        k_row = result.rows[1]
        assert k_row[1:] == [1, 1, 3, 1, 1, 1, 1, 1, 1, 1]

    def test_renders_text(self):
        text = table1.run(seed=3).to_text()
        assert "node 1" in text
        assert "Table 1" in text


class TestTable2:
    def test_metric_in_paper_band(self):
        result = table2.run(sizes=(100, 300), xis=(1e-2, 1e-4), seed=4)
        for row in result.rows:
            for value in row[1:]:
                assert 1.0 < value < 2.0

    def test_decreases_with_tighter_xi(self):
        result = table2.run(sizes=(300,), xis=(1e-2, 1e-5), seed=5)
        row = result.rows[0]
        assert row[1] > row[2]


class TestFig3:
    def test_differential_beats_normal_push_steps(self):
        result = fig3.run(sizes=(500, 1000), xis=(1e-3,), seed=6)
        for row in result.rows:
            n, _, diff_steps, push_steps = row[0], row[1], row[2], row[3]
            if n >= 1000:
                assert diff_steps < push_steps

    def test_steps_grow_sublinearly(self):
        result = fig3.run(sizes=(100, 1000), xis=(1e-3,), seed=7)
        steps_small = result.rows[0][2]
        steps_large = result.rows[1][2]
        assert steps_large < steps_small * 10  # 10x nodes, far less than 10x steps

    def test_tighter_xi_needs_more_steps(self):
        result = fig3.run(sizes=(500,), xis=(1e-2, 1e-5), seed=8)
        assert result.rows[0][2] < result.rows[1][2]


class TestFig4:
    def test_loss_increases_steps_mildly(self):
        result = fig4.run(num_nodes=500, loss_probabilities=(0.0, 0.3), xis=(1e-4,), seed=9)
        clean = result.rows[0][1]
        lossy = result.rows[1][1]
        assert lossy >= clean  # loss never helps
        assert lossy < clean * 4  # but degrades gracefully

    def test_runs_on_async_backend(self):
        # Regression: fig4 used to pass a pre-built loss model, which the
        # async backend rejects even at p = 0.
        result = fig4.run(
            num_nodes=60, loss_probabilities=(0.0, 0.2), xis=(1e-2,), seed=1, backend="async"
        )
        assert [row[0] for row in result.rows] == ["p=0", "p=0.2"]
        assert all(row[1] > 0 for row in result.rows)


class TestFig5:
    def test_rms_grows_with_colluding_fraction(self):
        result = fig5.run(
            num_nodes=120,
            fractions=(0.1, 0.5),
            group_sizes=(5,),
            use_gossip=False,
            seed=10,
        )
        low, high = result.rows[0][1], result.rows[1][1]
        assert high > low

    def test_group_size_effect_small(self):
        result = fig5.run(
            num_nodes=120,
            fractions=(0.3,),
            group_sizes=(2, 10),
            use_gossip=False,
            seed=11,
        )
        row = result.rows[0]
        g2, g10 = row[1], row[3]
        assert g2 == pytest.approx(g10, rel=0.5)  # "small difference"


class TestFig6:
    def test_individual_collusion_bounded(self):
        result = fig6.run(num_nodes=120, fractions=(0.1, 0.3), use_gossip=False, seed=12)
        for row in result.rows:
            assert row[2] < 1.0  # low fractions stay well-controlled

    def test_monotone_in_fraction(self):
        result = fig6.run(num_nodes=120, fractions=(0.1, 0.5), use_gossip=False, seed=13)
        assert result.rows[1][2] > result.rows[0][2]


class TestTheorem52:
    def test_psi_zero_is_n_minus_one(self):
        result = theorem52.run(num_nodes=64, steps=10, seed=14)
        assert result.rows[0][1] == pytest.approx(63.0)
        assert result.rows[0][3] == pytest.approx(63.0)

    def test_geometric_decay(self):
        result = theorem52.run(num_nodes=64, steps=12, seed=15)
        psi = [row[1] for row in result.rows]
        assert psi[-1] < psi[0] / 20


class TestEq17:
    def test_measured_matches_predicted(self):
        result = eq17.run(num_nodes=150, fraction=0.2, group_size=4, seed=16)
        assert len(result.rows) > 0
        for row in result.rows:
            assert row[4] < 1e-6  # |measured - predicted|
