"""Analytical engine: Environment protocol, monotonicity, operating knobs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import AnalyticalEngine, Allocation, NoiseModel
from repro.sim.environment import Environment

from tests.conftest import build_tiny_app

_APP = build_tiny_app()
_ENGINE = AnalyticalEngine(_APP, noise=NoiseModel.none(), seed=0)


class TestProtocol:
    def test_implements_environment(self, tiny_engine):
        assert isinstance(tiny_engine, Environment)

    def test_observe_structure(self, tiny_app, tiny_engine):
        alloc = tiny_app.generous_allocation(100.0)
        m = tiny_engine.observe(alloc, 100.0)
        assert m.latency_p95 > 0
        assert m.workload_rps == 100.0
        assert set(m.services) == set(tiny_app.service_names)
        for svc in m.services.values():
            assert 0.0 <= svc.utilization <= 1.0
            assert svc.throttle_seconds >= 0.0
            assert svc.usage_cores >= 0.0

    def test_negative_workload_rejected(self, tiny_engine, tiny_app):
        with pytest.raises(ValueError):
            tiny_engine.observe(tiny_app.generous_allocation(100.0), -5.0)

    def test_invalid_p_crit(self, tiny_app):
        with pytest.raises(ValueError):
            AnalyticalEngine(tiny_app, p_crit=1.5)


class TestDeterminism:
    def test_noiseless_is_deterministic(self, tiny_app):
        e1 = AnalyticalEngine(tiny_app, seed=1)
        e2 = AnalyticalEngine(tiny_app, seed=999)
        alloc = tiny_app.generous_allocation(100.0)
        assert e1.noiseless_latency(alloc, 100.0) == pytest.approx(
            e2.noiseless_latency(alloc, 100.0)
        )

    def test_same_seed_same_observations(self, tiny_app):
        alloc = tiny_app.generous_allocation(100.0)
        a = AnalyticalEngine(tiny_app, seed=5).observe(alloc, 100.0)
        b = AnalyticalEngine(tiny_app, seed=5).observe(alloc, 100.0)
        assert a.latency_p95 == pytest.approx(b.latency_p95)

    def test_noise_none_matches_noiseless(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, noise=NoiseModel.none(), seed=3)
        alloc = tiny_app.generous_allocation(100.0)
        assert engine.observe(alloc, 100.0).latency_p95 == pytest.approx(
            engine.noiseless_latency(alloc, 100.0)
        )


class TestMonotonicity:
    """The paper's key observation: monotone reduction => monotone latency."""

    @given(
        service_idx=st.integers(min_value=0, max_value=3),
        factor=st.floats(min_value=0.3, max_value=0.95),
        workload=st.floats(min_value=20.0, max_value=300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_service_reduction_never_helps(
        self, service_idx, factor, workload
    ):
        base = _APP.generous_allocation(workload)
        name = _APP.service_names[service_idx]
        reduced = base.with_value(name, base[name] * factor)
        lat_base = _ENGINE.noiseless_latency(base, workload)
        lat_reduced = _ENGINE.noiseless_latency(reduced, workload)
        assert lat_reduced >= lat_base - 1e-12

    @given(
        factors=st.lists(
            st.floats(min_value=0.4, max_value=1.0), min_size=4, max_size=4
        ),
        workload=st.floats(min_value=20.0, max_value=300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_service_monotone(self, factors, workload):
        base = _APP.generous_allocation(workload)
        reduced = Allocation(
            {n: base[n] * f for n, f in zip(_APP.service_names, factors)}
        )
        assert reduced.monotone_le(base)
        assert _ENGINE.noiseless_latency(
            reduced, workload
        ) >= _ENGINE.noiseless_latency(base, workload) - 1e-12

    def test_latency_increases_with_workload(self, tiny_app, tiny_engine):
        alloc = tiny_app.generous_allocation(150.0)
        lats = [
            tiny_engine.noiseless_latency(alloc, wl) for wl in (50, 100, 150, 250)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(lats, lats[1:]))


class TestOperatingConditions:
    def test_cpu_speed_changes_latency(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, noise=NoiseModel.none())
        alloc = tiny_app.generous_allocation(100.0)
        base = engine.noiseless_latency(alloc, 100.0)
        engine.set_cpu_speed(0.8)  # slower clock
        slow = engine.noiseless_latency(alloc, 100.0)
        engine.set_cpu_speed(1.2)  # faster clock
        fast = engine.noiseless_latency(alloc, 100.0)
        assert slow > base > fast

    def test_invalid_speed(self, tiny_engine):
        with pytest.raises(ValueError):
            tiny_engine.set_cpu_speed(0.0)

    def test_bottleneck_allocation_has_min_floor(self, tiny_app, tiny_engine):
        b = tiny_engine.bottleneck_allocation(100.0)
        assert all(b[n] >= 0.05 for n in b)

    def test_bottleneck_scales_with_workload(self, tiny_engine):
        b_low = tiny_engine.bottleneck_allocation(50.0)
        b_high = tiny_engine.bottleneck_allocation(400.0)
        assert b_high.total() > b_low.total()

    def test_speed_change_invalidates_cache(self, tiny_app):
        engine = AnalyticalEngine(tiny_app, noise=NoiseModel.none())
        b1 = engine.bottleneck_allocation(100.0).total()
        engine.set_cpu_speed(0.5)
        b2 = engine.bottleneck_allocation(100.0).total()
        assert b2 > b1  # slower CPU needs more cores


class TestFacadeMatchesOracle:
    @pytest.mark.parametrize(
        "name", ["sockshop", "trainticket", "hotelreservation"]
    )
    def test_observe_equals_reference(self, name):
        # The facade runs a one-cell batched engine; the closed-form
        # scalar oracle must see the very same IntervalMetrics.
        from repro.apps import build_app
        from repro.sim.engine import ReferenceAnalyticalEngine

        app = build_app(name)
        facade = AnalyticalEngine(app, seed=11)
        oracle = ReferenceAnalyticalEngine(app, seed=11)
        rng = np.random.default_rng(5)
        for _ in range(60):
            alloc = Allocation.from_array(
                app.service_names, rng.uniform(0.05, 6.0, app.n_services)
            )
            rate = float(rng.uniform(0.0, 1200.0))
            assert facade.observe(alloc, rate) == oracle.observe(alloc, rate)

    def test_control_loop_run_equals_reference(self):
        # A full PEMA run through the facade (direct one-cell batched
        # path) must match the same run observed through the oracle (the
        # scalar-environment adapter path) byte for byte.
        import json

        from repro.apps import build_app
        from repro.core import ControlLoop, PEMAController
        from repro.core.loop import loop_result_to_dict
        from repro.sim.engine import ReferenceAnalyticalEngine
        from repro.workload import SinusoidalWorkload

        app = build_app("sockshop")

        def run(engine_cls):
            controller = PEMAController(
                app.service_names, app.slo, app.generous_allocation(700.0),
                seed=3,
            )
            trace = SinusoidalWorkload(low=500.0, high=800.0, period=1800.0)
            loop = ControlLoop(engine_cls(app, seed=4), controller, trace)
            return json.dumps(loop_result_to_dict(loop.run(40)))

        assert run(AnalyticalEngine) == run(ReferenceAnalyticalEngine)


class TestDegenerateServices:
    """Zero-mean services must take the Gamma functions' masked path.

    The tiny app's services have ``baseline_cores == 0``, so at workload
    0.0 their mean concurrency is 0 and their Gamma shape degenerate.
    """

    def test_zero_workload_matches_reference(self):
        from repro.sim import NoiselessLatencyKernel
        from repro.sim.engine import ReferenceAnalyticalEngine

        app = _APP
        kernel = NoiselessLatencyKernel(app)
        alloc = np.full((1, app.n_services), 0.5)
        assert (kernel.evaluate(alloc, np.array([0.0])).shape <= 1e-12).any()
        assert (kernel.evaluate(alloc, np.array([300.0])).shape > 1e-12).all()
        facade = AnalyticalEngine(app, seed=11)
        oracle = ReferenceAnalyticalEngine(app, seed=11)
        allocation = Allocation.from_array(app.service_names, alloc[0])
        for rate in (0.0, 300.0, 0.0):
            assert facade.observe(allocation, rate) == oracle.observe(
                allocation, rate
            )

    def test_degenerate_row_leaves_normal_rows_unchanged(self):
        # One degenerate row sends the whole batch down the masked path;
        # the normal rows must keep the bytes of an all-regular batch.
        from repro.sim import BatchedAnalyticalEngine
        from repro.sim.engine import ReferenceAnalyticalEngine

        app = _APP
        rng = np.random.default_rng(2)
        alloc = rng.uniform(0.05, 1.0, (3, app.n_services))
        mixed = BatchedAnalyticalEngine(app, [3, 4, 5])
        clean = BatchedAnalyticalEngine(app, [3, 5])
        oracle = ReferenceAnalyticalEngine(app, seed=4)
        fields = ("latency_p95", "workload_rps", "utilization",
                  "throttle_seconds", "usage_cores", "usage_p90_cores")
        for _ in range(3):
            got = mixed.observe(
                alloc, np.array([300.0, 0.0, 150.0]), np.full(3, 120.0)
            )
            want = clean.observe(
                alloc[[0, 2]], np.array([300.0, 150.0]), np.full(2, 120.0)
            )
            for name in fields:
                assert (
                    getattr(got, name)[[0, 2]].tobytes()
                    == getattr(want, name).tobytes()
                ), name
            assert got.interval_metrics(1, app.service_names) == (
                oracle.observe(
                    Allocation.from_array(app.service_names, alloc[1]), 0.0
                )
            )
