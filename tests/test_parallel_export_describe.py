"""Parallel runner, CSV export, and app description utilities."""

import csv
from pathlib import Path

import pytest

from repro.apps import build_app, describe_app, describe_plan
from repro.baselines import StaticAllocator
from repro.core import ControlLoop
from repro.experiments.runner import run_parallel
from repro.metrics import (
    MetricsCollector,
    loop_result_to_csv,
    store_to_csv,
)
from repro.sim import AnalyticalEngine
from repro.workload import ConstantWorkload


def _square(x: float) -> float:
    return x * x


class TestRunParallel:
    def test_inline_mode(self):
        out = run_parallel(_square, [{"x": 2.0}, {"x": 3.0}], max_workers=1)
        assert out == [4.0, 9.0]

    def test_empty(self):
        assert run_parallel(_square, []) == []

    def test_process_mode_matches_inline(self):
        kwargs = [{"x": float(i)} for i in range(6)]
        inline = run_parallel(_square, kwargs, max_workers=1)
        parallel = run_parallel(_square, kwargs, max_workers=2)
        assert inline == parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            run_parallel(_square, [{"x": 1.0}], max_workers=0)


class TestExport:
    def _run(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, seed=1)
        static = StaticAllocator(tiny_app.generous_allocation(100.0))
        loop = ControlLoop(
            engine, static, ConstantWorkload(100.0), slo=tiny_app.slo
        )
        return loop.run(5)

    def test_loop_result_csv(self, tiny_app, tmp_path):
        result = self._run(tiny_app)
        path = tmp_path / "run.csv"
        rows = loop_result_to_csv(result, path)
        assert rows == 5
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0][:3] == ["step", "time", "workload_rps"]
        assert len(parsed) == 6  # header + 5 records
        assert any(col.startswith("cpu[") for col in parsed[0])

    def test_loop_result_csv_empty(self, tmp_path):
        from repro.core.loop import LoopResult

        with pytest.raises(ValueError):
            loop_result_to_csv(LoopResult(), tmp_path / "x.csv")

    def test_store_csv(self, tiny_app, tmp_path):
        collector = MetricsCollector()
        engine = AnalyticalEngine(tiny_app, seed=1)
        allocation = tiny_app.generous_allocation(100.0)
        for step in range(5):
            t = step * 120.0
            collector.collect(t, allocation, engine.observe(allocation, 100.0))
        path = tmp_path / "metrics.csv"
        rows = store_to_csv(collector.store, path)
        assert rows > 0
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["metric", "labels", "time", "value"]
        metrics = {row[0] for row in parsed[1:]}
        assert "latency_p95" in metrics
        assert "cpu_utilization" in metrics
        labelled = [r for r in parsed[1:] if r[1]]
        assert any("service=" in r[1] for r in labelled)


class TestDescribe:
    def test_describe_app_mentions_everything(self):
        app = build_app("sockshop")
        text = describe_app(app)
        for svc in app.service_names:
            assert svc in text
        assert "SLO 250 ms" in text
        assert "[frontend]" in text and "[db]" in text

    def test_describe_plan(self):
        app = build_app("sockshop")
        text = describe_plan(app, "checkout")
        assert "stage" in text
        assert "orders" in text

    def test_describe_plan_unknown(self):
        app = build_app("sockshop")
        with pytest.raises(KeyError):
            describe_plan(app, "nope")

    def test_cli_describe(self, capsys):
        from repro.cli import main

        assert main(["describe", "--app", "trainticket",
                     "--plan", "search"]) == 0
        out = capsys.readouterr().out
        assert "seat" in out
        assert "trainticket/search" in out
