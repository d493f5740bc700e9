"""Trace replay: the ``replay`` workload kind, vectorized ``rate_batch``,
the manager-state artifact channel, and scalar/batched byte-identity of
replay sweep cells (including kill-and-resume)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    ExperimentSpec,
    run_experiment,
)
from repro.experiments.registry import WORKLOADS
from repro.experiments.runner import _run_unit_worker
from repro.sweeps import (
    SweepAxis,
    SweepGrid,
    SweepStore,
    batch_key,
    grid_summary_json,
    run_grid,
    run_sweep_cached,
    run_units_batched,
)
from repro.workload import (
    BurstWorkload,
    ConstantWorkload,
    NoisyTrace,
    PhasedTrace,
    RampWorkload,
    ReplaySegment,
    ReplayTrace,
    ScaledTrace,
    SinusoidalWorkload,
    StepWorkload,
    WikipediaTrace,
    batch_rates,
)


def all_traces():
    sin = SinusoidalWorkload(low=200.0, high=900.0, period=3600.0, phase=0.4)
    return [
        ConstantWorkload(rps=700.0),
        StepWorkload([(0.0, 300.0), (600.0, 700.0), (1800.0, 500.0)]),
        RampWorkload(start_rps=200.0, end_rps=900.0, duration=4000.0),
        sin,
        BurstWorkload(400.0, [(1200.0, 600.0, 750.0), (2160.0, 600.0, 650.0)]),
        WikipediaTrace(low_rps=200.0, high_rps=1100.0, seed=42),
        WikipediaTrace(low_rps=300.0, high_rps=800.0, seed=9, jitter=0.0),
        NoisyTrace(sin, sigma=0.12, seed=32),
        ScaledTrace(sin, scale=0.5, offset=100.0),
        PhasedTrace([(sin, 2400.0), (ConstantWorkload(rps=600.0), None)]),
        ReplayTrace(
            [
                ReplaySegment(WikipediaTrace(seed=7), 3600.0),
                ReplaySegment(NoisyTrace(sin, sigma=0.05, seed=3)),
            ]
        ),
        ReplayTrace(
            [ReplaySegment(WikipediaTrace(seed=7), 7200.0)], loop=True
        ),
    ]


class TestRateBatch:
    """``rate_batch(times)[i]`` must be the same float64 as ``rate(times[i])``."""

    @pytest.mark.parametrize(
        "trace", all_traces(), ids=lambda t: type(t).__name__
    )
    def test_bit_identical_on_control_grid(self, trace):
        times = np.arange(200, dtype=np.float64) * 120.0
        vec = batch_rates(trace, times)
        scal = np.asarray([trace.rate(float(t)) for t in times])
        assert vec.dtype == np.float64
        assert (vec == scal).all()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=2e5, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_bit_identical_on_arbitrary_times(self, raw_times):
        times = np.asarray(raw_times, dtype=np.float64)
        for trace in all_traces():
            vec = batch_rates(trace, times)
            scal = np.asarray([trace.rate(float(t)) for t in times])
            assert (vec == scal).all(), type(trace).__name__

    def test_fallback_without_rate_batch(self):
        class Plain:
            def rate(self, t):
                return 100.0 + t

        times = np.asarray([0.0, 1.5, 7.0])
        assert (batch_rates(Plain(), times) == times + 100.0).all()


class TestReplayTrace:
    def test_single_open_segment_is_transparent(self):
        wiki = WikipediaTrace(seed=5)
        replay = ReplayTrace([ReplaySegment(wiki)])
        for t in (0.0, 360.0, 100_000.0):
            assert replay.rate(t) == wiki.rate(t)

    def test_segments_restart_their_clocks(self):
        replay = ReplayTrace(
            [
                ReplaySegment(ConstantWorkload(rps=100.0), 600.0),
                ReplaySegment(
                    RampWorkload(
                        start_rps=0.0, end_rps=100.0, duration=100.0
                    ),
                    1000.0,
                ),
            ]
        )
        assert replay.rate(0.0) == 100.0
        assert replay.rate(600.0) == 0.0  # ramp's own t=0
        assert replay.rate(650.0) == 50.0
        assert replay.duration == 1600.0

    def test_loop_wraps_modulo_schedule(self):
        replay = ReplayTrace(
            [ReplaySegment(WikipediaTrace(seed=3), 7200.0)], loop=True
        )
        assert replay.rate(7200.0 + 37.0) == replay.rate(37.0)
        times = np.asarray([10.0, 7210.0, 14410.0])
        rates = replay.rate_batch(times)
        assert rates[0] == rates[1] == rates[2]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ReplayTrace([])
        with pytest.raises(ValueError, match="open-ended"):
            ReplayTrace(
                [
                    ReplaySegment(ConstantWorkload(rps=1.0)),
                    ReplaySegment(ConstantWorkload(rps=2.0), 10.0),
                ]
            )
        with pytest.raises(ValueError, match="looped replay"):
            ReplayTrace(
                [ReplaySegment(ConstantWorkload(rps=1.0))], loop=True
            )
        with pytest.raises(ValueError, match="duration must be positive"):
            ReplaySegment(ConstantWorkload(rps=1.0), 0.0)


class TestReplayRegistryKind:
    def test_builds_from_declarative_segments(self):
        trace = WORKLOADS.build(
            "replay",
            segments=[
                {
                    "source": {
                        "kind": "wikipedia",
                        "params": {"low_rps": 200.0, "high_rps": 1100.0,
                                   "seed": 42},
                    },
                    "hours": 36,
                }
            ],
        )
        assert isinstance(trace, ReplayTrace)
        assert trace.duration == 36 * 3600.0
        wiki = WikipediaTrace(low_rps=200.0, high_rps=1100.0, seed=42)
        assert trace.rate(123.0 * 120.0) == wiki.rate(123.0 * 120.0)

    def test_rejects_bad_segments(self):
        with pytest.raises(TypeError, match="non-empty 'segments'"):
            WORKLOADS.build("replay", segments=[])
        with pytest.raises(TypeError, match="needs 'source'"):
            WORKLOADS.build("replay", segments=[{"hours": 1}])
        with pytest.raises(TypeError, match="not both"):
            WORKLOADS.build(
                "replay",
                segments=[
                    {
                        "source": {"kind": "constant", "params": {"rps": 1.0}},
                        "hours": 1,
                        "duration": 60.0,
                    }
                ],
            )
        with pytest.raises(TypeError, match="unknown replay segment"):
            WORKLOADS.build(
                "replay",
                segments=[
                    {
                        "source": {"kind": "constant", "params": {"rps": 1.0}},
                        "hour": 1,
                    }
                ],
            )
        with pytest.raises(TypeError, match="unknown replay params"):
            WORKLOADS.build(
                "replay",
                segments=[
                    {"source": {"kind": "constant", "params": {"rps": 1.0}}}
                ],
                looped=True,
            )
        # Misspelled keys inside the nested source reference fail loudly
        # instead of silently building an all-defaults trace.
        with pytest.raises(TypeError, match="unknown replay 'source'"):
            WORKLOADS.build(
                "replay",
                segments=[{"source": {"kind": "wikipedia", "parms": {}}}],
            )
        with pytest.raises(TypeError, match="replay 'source' needs 'kind'"):
            WORKLOADS.build("replay", segments=[{"source": {"params": {}}}])


def replay_spec(**overrides):
    data = {
        "app": "sockshop",
        "workload": {
            "kind": "replay",
            "params": {
                "segments": [
                    {
                        "source": {
                            "kind": "wikipedia",
                            "params": {"low_rps": 300.0, "high_rps": 900.0,
                                       "seed": 7},
                        }
                    }
                ]
            },
        },
        "n_steps": 25,
        "seed": 3,
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


def manager_replay_spec(**overrides):
    defaults = {
        "autoscaler": {
            "kind": "workload_aware_pema",
            "params": {
                "workload_low": 300.0,
                "workload_high": 900.0,
                "min_range_width": 75.0,
                "split_after": 6,
                "slope_samples": 4,
                "start_rps": 900.0,
            },
        },
        "engine": {"kind": "analytical", "seed_offset": 2},
        "n_steps": 40,
        "capture": ["manager_state"],
    }
    defaults.update(overrides)
    return replay_spec(**defaults)


class TestManagerStateChannel:
    def test_capture_opt_in_round_trips(self):
        artifact = run_experiment(manager_replay_spec())
        state = artifact.manager_state(0)
        assert state["kind"] == "workload_aware_pema"
        assert state["slope"] is not None
        assert state["splits"], "expected at least one range split"
        assert [r["low"] for r in state["ranges"]] == sorted(
            r["low"] for r in state["ranges"]
        )
        # Lossless through the artifact JSON codec.
        recovered = type(artifact).from_json(artifact.to_json())
        assert recovered.manager_states == artifact.manager_states
        assert recovered.spec == artifact.spec

    def test_without_capture_everything_stays_legacy(self):
        spec = replay_spec()
        artifact = run_experiment(spec)
        assert artifact.manager_states == ()
        with pytest.raises(LookupError, match="no manager state"):
            artifact.manager_state(0)
        assert "capture" not in spec.to_dict()
        assert "manager_states" not in artifact.to_dict()
        assert "manager_state" not in _run_unit_worker(spec.to_dict(), 0)

    def test_capture_on_stateless_autoscaler_is_null(self):
        spec = replay_spec(capture=["manager_state"])
        artifact = run_experiment(spec)
        assert artifact.manager_states == (None,)
        payload = _run_unit_worker(spec.to_dict(), 0)
        assert "manager_state" in payload and payload["manager_state"] is None

    def test_unknown_capture_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown capture channel"):
            replay_spec(capture=["manager_sate"])


def small_replay_grid():
    return SweepGrid(
        name="replay-test",
        base=manager_replay_spec(),
        axes=(SweepAxis(name="seed", values=(3, 13, 23), path="seed"),),
    )


class TestReplayBatching:
    def test_replay_cells_are_batchable(self):
        assert batch_key(replay_spec()) == ("sockshop", 25, None)
        assert batch_key(manager_replay_spec()) == ("sockshop", 40, None)
        # Bad manager params still group — with the same-horizon PEMA
        # replay cells; the factory raises in either mode.
        assert batch_key(
            replay_spec(
                autoscaler={
                    "kind": "workload_aware_pema",
                    "params": {"workload_low": 300.0},
                }
            )
        ) == batch_key(replay_spec())

    def test_batched_equals_scalar_including_manager_state(self):
        spec = manager_replay_spec()
        scalar = _run_unit_worker(spec.to_dict(), 0)
        (batched,) = run_units_batched([(spec, 0)])
        assert json.dumps(scalar, sort_keys=True) == json.dumps(
            batched, sort_keys=True
        )
        assert batched["manager_state"]["splits"]

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        n_steps=st.integers(min_value=5, max_value=30),
        manager=st.booleans(),
    )
    def test_property_scalar_vs_batched_replay_units(
        self, seeds, n_steps, manager
    ):
        make = manager_replay_spec if manager else replay_spec
        specs = [make(seed=s, n_steps=n_steps) for s in seeds]
        scalar = [_run_unit_worker(s.to_dict(), 0) for s in specs]
        batched = run_units_batched([(s, 0) for s in specs])
        assert json.dumps(scalar, sort_keys=True) == json.dumps(
            batched, sort_keys=True
        )

    def test_store_entries_artifacts_and_states_byte_identical(
        self, tmp_path
    ):
        grid = small_replay_grid()
        specs = grid.specs()
        stores = {}
        outputs = {}
        for mode, batch in (("scalar", False), ("batched", True)):
            store = stores[mode] = SweepStore(tmp_path / mode)
            artifacts, report = run_sweep_cached(
                specs, store=store, batch=batch
            )
            outputs[mode] = [a.to_json() for a in artifacts]
            assert report.replay_units == len(specs)
            assert report.manager_states == len(specs)
            for artifact in artifacts:
                assert artifact.manager_state(0)["splits"]
        assert outputs["scalar"] == outputs["batched"]
        scalar_bytes = sorted(
            p.read_bytes() for p in stores["scalar"].entry_paths()
        )
        batched_bytes = sorted(
            p.read_bytes() for p in stores["batched"].entry_paths()
        )
        assert scalar_bytes == batched_bytes

    def test_cross_mode_cache_reuse(self, sweep_store):
        grid = small_replay_grid()
        cold = run_grid(grid, store=sweep_store, batch=True)
        warm = run_grid(grid, store=sweep_store, batch=False)
        assert cold.report.cache_hits == 0
        assert warm.report.cache_hits == warm.report.units
        assert grid_summary_json(warm) == grid_summary_json(cold)
        assert [a.to_json() for a in warm.artifacts] == [
            a.to_json() for a in cold.artifacts
        ]
        # Manager state survives the store round trip.
        assert all(a.manager_state(0)["splits"] for a in warm.artifacts)

    def test_kill_and_resume_mid_replay_byte_identical(self, sweep_store):
        grid = small_replay_grid()
        uninterrupted = run_grid(grid, batch=True)

        class Killed(RuntimeError):
            pass

        store = sweep_store

        def die_after_first_chunk(progress):
            if progress.chunk >= 1:
                raise Killed()

        with pytest.raises(Killed):
            run_grid(
                grid,
                store=store,
                batch=True,
                chunk_size=1,
                on_progress=die_after_first_chunk,
            )
        assert 0 < len(store) < grid.n_cells  # partial progress persisted

        resumed = run_grid(grid, store=store, batch=True, chunk_size=1)
        assert resumed.report.cache_hits > 0
        assert resumed.report.computed > 0
        assert grid_summary_json(resumed) == grid_summary_json(uninterrupted)
        assert [a.to_json() for a in resumed.artifacts] == [
            a.to_json() for a in uninterrupted.artifacts
        ]
        assert [a.manager_states for a in resumed.artifacts] == [
            a.manager_states for a in uninterrupted.artifacts
        ]


class TestSweepReportReplayStats:
    def test_counters_and_cli_report_fields(self):
        artifacts, report = run_sweep_cached([manager_replay_spec()])
        assert report.replay_units == 1
        assert report.manager_states == 1
        data = report.to_dict()
        assert data["replay_units"] == 1
        assert data["manager_states"] == 1

    def test_non_replay_sweeps_report_zero(self):
        spec = ExperimentSpec(
            app="sockshop", workload=700.0, n_steps=3, seed=1
        )
        _, report = run_sweep_cached([spec])
        assert report.replay_units == 0
        assert report.manager_states == 0
