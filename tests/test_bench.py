"""Benchmark harness: report formatting and the figure-cell runners."""

import pytest

from repro.bench import format_kv, format_series, format_table
from repro.experiments import (
    ExperimentSpec,
    derive_rule_spec,
    optimum_total,
    run_experiment,
)


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["longer", 22.123456]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "longer" in lines[4]

    def test_table_row_width_check(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_series(self):
        out = format_series("s", [1, 2], [3.0, 4.0], "x", "y")
        assert "s" in out
        assert "x" in out

    def test_series_length_check(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1, 2])

    def test_kv(self):
        out = format_kv("Summary", [("total", 8.77), ("runs", 3)])
        assert "Summary" in out
        assert "total: 8.77" in out


class TestRunners:
    def test_rule_total_above_optimum(self):
        spec = ExperimentSpec(app="sockshop", workload=700.0, n_steps=10)
        rule = run_experiment(
            derive_rule_spec(spec, n_steps=20)
        ).mean_settled_total()
        opt = optimum_total("sockshop", 700.0)
        assert rule > opt
