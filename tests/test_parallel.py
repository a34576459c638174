"""Tests for the parallel experiment runner.

The contract under test: fanning experiments out over worker processes
changes wall-clock behaviour only — results are byte-identical to a
serial run with the same seed.
"""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.parallel import default_processes, iter_experiments


class TestRunExperiments:
    def test_serial_and_parallel_identical(self):
        ids = ["table1", "table2"]
        serial = list(iter_experiments(ids, processes=1, seed=5))
        parallel = list(iter_experiments(ids, processes=2, seed=5))
        assert [r.experiment_id for r in serial] == [r.experiment_id for r in parallel]
        for left, right in zip(serial, parallel):
            assert left.headers == right.headers
            assert left.rows == right.rows

    def test_unknown_id_fails_fast(self):
        with pytest.raises(KeyError, match="bogus"):
            list(iter_experiments(["table1", "bogus"], processes=2))

    def test_process_count_validation(self):
        with pytest.raises(ValueError, match="processes"):
            list(iter_experiments(["table1"], processes=0))
        assert default_processes() >= 1

    def test_iter_experiments_streams_before_failure(self, monkeypatch):
        # Completed results must reach the consumer before a later
        # experiment's exception surfaces (long --full sweeps).
        from repro.experiments import registry

        def boom(**kwargs):
            raise RuntimeError("sweep exploded")

        monkeypatch.setitem(registry._EXPERIMENTS._entries, "boom", boom)
        stream = iter_experiments(["table1", "boom"], processes=1)
        first = next(stream)
        assert first.experiment_id == "table1"
        with pytest.raises(RuntimeError, match="sweep exploded"):
            next(stream)


class TestCliParallel:
    def test_parallel_flag_runs_experiments(self, capsys):
        assert main(["table1", "--parallel", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_parallel_matches_serial_output(self, capsys):
        def table_lines(text):
            # Drop wall-clock lines: "elapsed: 0.02s" varies run to run.
            return [line for line in text.splitlines() if "elapsed:" not in line]

        assert main(["table1", "--seed", "3"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["table1", "--seed", "3", "--parallel", "2"]) == 0
        assert table_lines(capsys.readouterr().out) == table_lines(serial_out)

    def test_rejects_negative_parallel(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--parallel", "-2"])
