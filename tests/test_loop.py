"""Control loop: execution semantics, hooks, summaries."""

import numpy as np
import pytest

from repro.baselines import StaticAllocator
from repro.core import ControlLoop, PEMAConfig, PEMAController
from repro.sim import AnalyticalEngine, NoiseModel
from repro.workload import ConstantWorkload, StepWorkload


def make_loop(tiny_app, autoscaler=None, **kw):
    engine = AnalyticalEngine(tiny_app, seed=1, noise=NoiseModel.none())
    scaler = autoscaler or PEMAController(
        tiny_app.service_names,
        tiny_app.slo,
        tiny_app.generous_allocation(100.0),
        PEMAConfig(explore_a=0.0, explore_b=0.0),
        seed=0,
    )
    defaults = dict(interval=120.0)
    defaults.update(kw)
    return ControlLoop(engine, scaler, ConstantWorkload(100.0), **defaults)


class TestExecution:
    def test_run_produces_records(self, tiny_app):
        result = make_loop(tiny_app).run(10)
        assert len(result) == 10
        assert result.steps.tolist() == list(range(10))
        assert np.all(result.workloads == 100.0)
        assert np.all(result.responses > 0)

    def test_first_record_uses_initial_allocation(self, tiny_app):
        static = StaticAllocator(tiny_app.uniform_allocation(1.0))
        result = make_loop(tiny_app, autoscaler=static, slo=tiny_app.slo).run(3)
        assert result.records[0].total_cpu == pytest.approx(4.0)

    def test_interval_spacing(self, tiny_app):
        result = make_loop(tiny_app, interval=60.0).run(3)
        assert result.times.tolist() == [0.0, 60.0, 120.0]

    def test_workload_trace_followed(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, seed=1)
        static = StaticAllocator(tiny_app.generous_allocation(200.0))
        trace = StepWorkload([(0.0, 50.0), (120.0, 150.0)])
        loop = ControlLoop(engine, static, trace, slo=tiny_app.slo)
        result = loop.run(3)
        assert result.workloads.tolist() == [50.0, 150.0, 150.0]

    def test_validation(self, tiny_app):
        with pytest.raises(ValueError):
            make_loop(tiny_app, interval=0.0)
        with pytest.raises(ValueError):
            make_loop(tiny_app).run(0)

    def test_slo_required_without_attribute(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, seed=1)
        static = StaticAllocator(tiny_app.uniform_allocation(1.0))
        with pytest.raises(ValueError):
            ControlLoop(engine, static, ConstantWorkload(100.0))


class TestViolations:
    def test_violations_marked(self, tiny_app):
        # A starved allocation must violate the 100ms SLO.
        starved = tiny_app.uniform_allocation(0.05)
        static = StaticAllocator(starved)
        result = make_loop(tiny_app, autoscaler=static, slo=tiny_app.slo).run(5)
        assert result.violation_count() == 5
        assert result.violation_rate() == 1.0

    def test_dynamic_slo_tracked_live(self, tiny_app):
        loop = make_loop(tiny_app)

        def tighten(step, lp):
            if step == 2:
                lp.autoscaler.set_slo(0.001)  # impossible SLO

        result = loop.run(4, on_step=tighten)
        assert not result.records[0].violated
        assert result.records[2].violated
        assert result.records[2].slo == pytest.approx(0.001)

    def test_best_satisfying_total(self, tiny_app):
        result = make_loop(tiny_app).run(15)
        ok_totals = [r.total_cpu for r in result.records if not r.violated]
        assert result.best_satisfying_total() == pytest.approx(min(ok_totals))

    def test_settled_total_empty_raises(self):
        from repro.core.loop import LoopResult

        with pytest.raises(LookupError):
            LoopResult().final_allocation()


class TestIntegrationPieces:
    def test_scalar_environment_metrics_reach_autoscaler_unchanged(
        self, tiny_app
    ):
        # Non-analytical environments enter the control step through the
        # one-cell adapter, which must hand over their own metrics object.
        inner = AnalyticalEngine(tiny_app, seed=1)
        served, seen = [], []

        class Recording:
            app = tiny_app

            def observe(self, allocation, workload_rps, interval=120.0):
                served.append(inner.observe(allocation, workload_rps, interval))
                return served[-1]

        class Watching(StaticAllocator):
            def decide(self, metrics):
                seen.append(metrics)
                return super().decide(metrics)

        static = Watching(tiny_app.uniform_allocation(1.0))
        result = ControlLoop(
            Recording(), static, ConstantWorkload(100.0), slo=tiny_app.slo
        ).run(3)
        assert len(seen) == 3 and all(a is b for a, b in zip(seen, served))
        assert result.responses.tolist() == [m.latency_p95 for m in served]

    def test_hook_sees_loop(self, tiny_app):
        seen = []
        loop = make_loop(tiny_app)
        loop.run(3, on_step=lambda step, lp: seen.append((step, lp is loop)))
        assert seen == [(0, True), (1, True), (2, True)]


class TestRecordFormat:
    def test_step_history_payloads_match_record_codec(self, tiny_app):
        # The batched runner assembles unit payloads straight from the
        # StepHistory columns; the scalar runner and the service encode
        # LoopRecords with loop_result_to_dict.  Both must be one format.
        import json

        from repro.core import PEMABatch
        from repro.core.loop import (
            LoopResult,
            StepHistory,
            control_step,
            loop_result_to_dict,
        )
        from repro.sim.batched import BatchedAnalyticalEngine

        slos = (tiny_app.slo, 1e-6, tiny_app.slo * 2)
        rates = np.array([100.0, 150.0, 80.0])
        intervals = np.array([120.0, 60.0, 120.0])
        bank = PEMABatch(
            [
                PEMAController(
                    tiny_app.service_names, slo,
                    tiny_app.generous_allocation(rate), seed=seed,
                )
                for seed, (slo, rate) in enumerate(zip(slos, rates))
            ]
        )
        bank.enable_decision_trace([1])
        engine = BatchedAnalyticalEngine(tiny_app, [11, 12, 13])
        history = StepHistory(tuple(tiny_app.service_names), intervals)
        for step in range(12):
            control_step(step, engine, bank, rates, intervals, history)

        captures = [(), ("decision_trace",), ()]
        payloads = history.payloads(bank, captures)
        violated = set()
        for i, payload in enumerate(payloads):
            assert ("decision_trace" in payload) == (i == 1)
            records = payload["records"]
            codec = loop_result_to_dict(LoopResult(history.loop_records(i)))
            assert len(records) == 12
            assert records == codec["records"]
            assert json.dumps(records) == json.dumps(codec["records"])
            violated |= {record["violated"] for record in records}
        assert violated == {True, False}
