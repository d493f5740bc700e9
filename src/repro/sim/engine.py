"""Analytical performance engine.

Evaluates an allocation + workload into interval metrics using closed forms
(Gamma concurrency → throttling and overload → visit latency → end-to-end
aggregation).  Fast enough for tens of thousands of controller iterations,
which is what the parameter sweeps and 36-hour replays need.

:class:`AnalyticalEngine` is a one-cell facade over
:class:`~repro.sim.batched.BatchedAnalyticalEngine`: a scalar run and row
``i`` of a batched run execute the same code.  The original closed-form
scalar ``observe`` survives only as :class:`ReferenceAnalyticalEngine`,
the test oracle the batched engine is checked against cell by cell.

The discrete-event engine (:mod:`repro.sim.des`) produces the same metric
signatures from first principles and is used for cross-validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.batched import BatchedAnalyticalEngine, EngineCell
from repro.sim.cfs import CFSModel
from repro.sim.concurrency import ConcurrencyModel
from repro.sim.latency import (
    LatencyParams,
    NoiselessLatencyKernel,
    end_to_end_latency,
    visit_latency,
)
from repro.sim.noise import NoiseModel
from repro.sim.types import Allocation, IntervalMetrics, ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.apps.spec import AppSpec

__all__ = ["AnalyticalEngine", "ReferenceAnalyticalEngine"]


class AnalyticalEngine(EngineCell):
    """Closed-form implementation of the :class:`Environment` protocol.

    Parameters
    ----------
    app:
        The application specification.
    latency_params, cfs, noise:
        Model tunables; defaults reproduce the paper's phenomenology.
    p_crit:
        Concurrency quantile that defines each service's bottleneck
        allocation (DESIGN.md §4).
    seed:
        Seed for the measurement-noise stream.  Two engines with the same
        seed observe identical noise — sweeps reuse seeds for paired
        comparisons.

    The engine is cell 0 of a one-cell
    :class:`~repro.sim.batched.BatchedAnalyticalEngine` (``self.batch``):
    observations, the CPU clock and the fault channels all live there.
    """

    def __init__(
        self,
        app: AppSpec,
        *,
        latency_params: LatencyParams | None = None,
        cfs: CFSModel | None = None,
        noise: NoiseModel | None = None,
        p_crit: float = 0.97,
        seed: int = 0,
    ) -> None:
        if not 0 < p_crit < 1:
            raise ValueError(f"p_crit must be in (0, 1): {p_crit}")
        super().__init__(
            BatchedAnalyticalEngine(
                app, [seed], latency_params=latency_params, cfs=cfs, noise=noise
            ),
            0,
        )
        self._app = app
        self.latency_params = self.batch.latency_params
        self.cfs = self.batch.cfs
        self.noise = self.batch.noise
        self.p_crit = p_crit
        self._visits = app.visit_array()
        self._demands = app.demand_array()
        self._burst = app.burstiness_array()
        self._baselines = app.baseline_array()

    # -- Environment protocol --------------------------------------------------
    @property
    def app(self) -> AppSpec:
        return self._app

    def observe(
        self,
        allocation: Allocation,
        workload_rps: float,
        interval: float = 120.0,
    ) -> IntervalMetrics:
        """One monitoring interval's metrics, with measurement noise."""
        names = self._app.service_names
        obs = self.batch.observe(
            allocation.as_array(names)[None, :],
            np.array([workload_rps], dtype=np.float64),
            np.array([interval], dtype=np.float64),
        )
        return obs.interval_metrics(0, names)

    # -- noise-free evaluation (search / tests) ---------------------------------
    @property
    def noiseless_kernel(self) -> NoiselessLatencyKernel:
        """The shared deterministic latency kernel (OPTM evaluates on it)."""
        return self.batch.kernel

    def noiseless_latency(self, allocation: Allocation, workload_rps: float) -> float:
        """Deterministic p95 latency — what OPTM's trial-and-error measures."""
        alloc = allocation.as_array(self._app.service_names)
        return float(self.noiseless_latency_batch(alloc[None, :], workload_rps)[0])

    def noiseless_latency_batch(
        self, allocs: np.ndarray, workload_rps: float | np.ndarray
    ) -> np.ndarray:
        """Noise-free p95 of ``(B, S)`` allocation rows in one kernel call.

        ``workload_rps`` is a scalar shared by the batch or a per-row
        ``(B,)`` array.  Row ``i`` is bit-identical to
        ``noiseless_latency`` of that row — both run the shared
        :class:`~repro.sim.latency.NoiselessLatencyKernel`.
        """
        allocs = np.asarray(allocs, dtype=np.float64)
        workload = np.asarray(workload_rps, dtype=np.float64)
        if workload.ndim == 0:
            workload = np.full(allocs.shape[0], float(workload))
        return self.batch.kernel.latency(allocs, workload, self.cpu_speed)

    def bottleneck_allocation(self, workload_rps: float) -> Allocation:
        """Per-service bottleneck resources at this workload (Fig. 8 knee)."""
        model = self._concurrency(workload_rps)
        return Allocation.from_array(
            self._app.service_names, np.maximum(model.bottleneck(self.p_crit), 0.05)
        )

    def _concurrency(self, workload_rps: float) -> ConcurrencyModel:
        """The Gamma concurrency model under the current clock and faults."""
        if workload_rps < 0:
            raise ValueError(f"workload must be >= 0: {workload_rps}")
        batch, cell = self.batch, self.index
        demands = self._demands
        if batch._faulted:
            demands = demands * (
                batch._demand_scale[cell] * batch._service_level[cell]
            )
        mean = (
            workload_rps * self._visits * demands + self._baselines
        ) / self.cpu_speed
        return ConcurrencyModel(mean=mean, burstiness=self._burst)


class ReferenceAnalyticalEngine(AnalyticalEngine):
    """The closed-form scalar ``observe``, kept as a test oracle.

    This is the engine's original one-cell implementation: its own noise
    stream, a concurrency-model cache keyed by
    ``(round(workload, 9), cpu_speed)``, and the scalar latency path.
    The batched engine replicates it bit for bit, and the parity tests
    compare the two row by row.  No executor calls it.
    """

    def __init__(self, app: AppSpec, *, seed: int = 0, **kwargs) -> None:
        super().__init__(app, seed=seed, **kwargs)
        self._rng = np.random.default_rng(seed)
        self._floors = app.floor_array()
        self._cache: dict[tuple[float, float], ConcurrencyModel] = {}

    def set_cpu_speed(self, speed: float) -> None:
        super().set_cpu_speed(speed)
        self._cache.clear()

    def set_demand_scale(self, scale: float, service: str | None = None) -> None:
        super().set_demand_scale(scale, service)
        self._cache.clear()

    def set_service_level(self, level: float) -> None:
        super().set_service_level(level)
        self._cache.clear()

    def observe(
        self,
        allocation: Allocation,
        workload_rps: float,
        interval: float = 120.0,
    ) -> IntervalMetrics:
        alloc = allocation.as_array(self._app.service_names)
        if self.batch._faulted:
            # A crashed service *behaves* as a fraction of its nominal
            # capacity; the recorded allocation stays the controller's.
            alloc = alloc * self.batch._capacity_scale[self.index]
        model = self._concurrency(workload_rps)
        exceed = model.exceed_probability(alloc)
        excess_arr = model.overload(alloc) * np.maximum(alloc, 1e-12)
        overload = model.overload(alloc)
        thr_seconds = self.cfs.throttle_seconds(exceed, excess_arr, alloc, interval)

        # p95 latency is driven by how often a request's CFS period freezes
        # (the exceed probability), not by the average frozen time.
        floors = self._floors / self.cpu_speed
        per_visit = visit_latency(floors, overload, exceed, self.latency_params)
        latency = end_to_end_latency(self._app, per_visit)
        latency *= self.noise.sample(self._rng)

        usage = np.minimum(model.mean, alloc)
        svc_noise = np.exp(self._rng.normal(0.0, 0.03, size=usage.shape))
        usage_noisy = usage * svc_noise
        util = np.clip(usage_noisy / np.maximum(alloc, 1e-12), 0.0, 1.0)
        p90 = model.usage_p90(alloc)

        services = {
            name: ServiceMetrics(
                utilization=float(util[i]),
                throttle_seconds=float(thr_seconds[i]),
                usage_cores=float(usage_noisy[i]),
                usage_p90_cores=float(p90[i]),
            )
            for i, name in enumerate(self._app.service_names)
        }
        return IntervalMetrics(
            latency_p95=float(latency),
            workload_rps=float(workload_rps),
            services=services,
            latency_mean=float(latency / 1.6),
        )

    def _concurrency(self, workload_rps: float) -> ConcurrencyModel:
        key = (round(float(workload_rps), 9), self.cpu_speed)
        model = self._cache.get(key)
        if model is None:
            model = super()._concurrency(workload_rps)
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = model
        return model
