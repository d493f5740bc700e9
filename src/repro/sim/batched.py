"""Batched analytical engine: one vectorized observation for many cells.

A one-(allocation, workload)-pair-per-call engine makes a large sweep pay
the full NumPy/scipy call overhead once per *cell* per control interval.
:class:`BatchedAnalyticalEngine` stacks ``B`` compatible cells of the same
application into ``(B, S)`` arrays and runs the closed forms (Gamma
concurrency → throttling/overload → visit latency → end-to-end
aggregation) once per *batch* per interval.  It is the analytical model's
only implementation: the scalar
:class:`~repro.sim.engine.AnalyticalEngine` is a one-cell facade over it.

Bit-exactness contract: every deterministic operation is the same IEEE
float64 operation in the same order as the closed-form scalar oracle
(:class:`~repro.sim.engine.ReferenceAnalyticalEngine`), applied
elementwise across the batch (scipy's incomplete-gamma ufuncs and NumPy's
arithmetic/``exp``/``power`` kernels are value-deterministic regardless of
array shape), and every *stochastic* draw comes from a dedicated per-cell
``np.random.default_rng(seed)`` stream consumed in exactly the scalar
call order (latency noise factor first, then the per-service usage
normals).  Row ``i`` of a batched observation is therefore byte-identical
to what the oracle seeded like cell ``i`` would observe —
``tests/test_batched.py`` enforces this cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim.cfs import CFSModel
from repro.sim.concurrency import gamma_quantile
from repro.sim.latency import LatencyParams, NoiselessLatencyKernel
from repro.sim.noise import NoiseModel
from repro.sim.types import IntervalMetrics, ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.apps.spec import AppSpec

__all__ = ["BatchObservation", "BatchedAnalyticalEngine", "EngineCell"]


@dataclass(frozen=True)
class BatchObservation:
    """One monitoring interval observed for a whole batch of cells.

    The batched counterpart of ``B`` :class:`~repro.sim.types.IntervalMetrics`
    objects, kept as arrays: scalars are ``(B,)``, per-service signals are
    ``(B, S)`` in the app's service order.
    """

    latency_p95: np.ndarray
    workload_rps: np.ndarray
    utilization: np.ndarray
    throttle_seconds: np.ndarray
    usage_cores: np.ndarray
    usage_p90_cores: np.ndarray
    metrics: tuple[IntervalMetrics, ...] | None = None
    """The environment's own per-cell metrics, when a scalar environment
    produced this observation (see :meth:`from_metrics`)."""

    @property
    def n_cells(self) -> int:
        return self.latency_p95.shape[0]

    def interval_metrics(self, cell: int, names: Sequence[str]) -> IntervalMetrics:
        """Row ``cell`` as the :class:`IntervalMetrics` a scalar engine returns.

        Scalar environments' own metrics are handed back unchanged;
        analytical rows are rebuilt with the scalar engine's exact floats
        (``latency_mean`` is ``latency_p95 / 1.6``, as it always was).
        """
        if self.metrics is not None:
            return self.metrics[cell]
        latency = self.latency_p95[cell]
        columns = zip(
            names,
            self.utilization[cell].tolist(),
            self.throttle_seconds[cell].tolist(),
            self.usage_cores[cell].tolist(),
            self.usage_p90_cores[cell].tolist(),
        )
        return IntervalMetrics(
            latency_p95=float(latency),
            workload_rps=float(self.workload_rps[cell]),
            services={
                name: ServiceMetrics(
                    utilization=util,
                    throttle_seconds=throttle,
                    usage_cores=usage,
                    usage_p90_cores=p90,
                )
                for name, util, throttle, usage, p90 in columns
            },
            latency_mean=float(latency / 1.6),
        )

    def rows(self, index: np.ndarray) -> "BatchObservation":
        """The observation of cells ``index``, in that order."""
        return BatchObservation(
            latency_p95=self.latency_p95[index],
            workload_rps=self.workload_rps[index],
            utilization=self.utilization[index],
            throttle_seconds=self.throttle_seconds[index],
            usage_cores=self.usage_cores[index],
            usage_p90_cores=self.usage_p90_cores[index],
            metrics=(
                None
                if self.metrics is None
                else tuple(self.metrics[i] for i in index)
            ),
        )

    @classmethod
    def from_metrics(
        cls, metrics: IntervalMetrics, names: Sequence[str]
    ) -> "BatchObservation":
        """A one-cell observation wrapping a scalar environment's metrics."""
        services = [metrics.services[name] for name in names]
        return cls(
            latency_p95=np.array([metrics.latency_p95]),
            workload_rps=np.array([metrics.workload_rps]),
            utilization=np.array([[s.utilization for s in services]]),
            throttle_seconds=np.array([[s.throttle_seconds for s in services]]),
            usage_cores=np.array([[s.usage_cores for s in services]]),
            usage_p90_cores=np.array([[s.usage_p90_cores for s in services]]),
            metrics=(metrics,),
        )


class BatchedAnalyticalEngine:
    """Closed-form engine evaluating ``B`` same-app cells per call.

    Parameters
    ----------
    app:
        The (shared) application specification.
    seeds:
        One measurement-noise seed per cell; cell ``i`` observes the same
        noise stream as ``AnalyticalEngine(app, seed=seeds[i])``.
    latency_params, cfs, noise:
        Model tunables, shared across the batch (cells whose engine params
        differ belong in different batches).
    """

    def __init__(
        self,
        app: "AppSpec",
        seeds: Sequence[int],
        *,
        latency_params: LatencyParams | None = None,
        cfs: CFSModel | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        if not len(seeds):
            raise ValueError("need at least one cell seed")
        self._app = app
        self.latency_params = latency_params or LatencyParams()
        self.cfs = cfs or CFSModel()
        self.noise = noise if noise is not None else NoiseModel()
        self._rngs = [np.random.default_rng(int(s)) for s in seeds]
        self.kernel = NoiselessLatencyKernel(app, params=self.latency_params)
        self.cpu_speed = np.ones(len(self._rngs), dtype=np.float64)
        # Scalar-cache replica: the oracle's ``_concurrency`` memoizes
        # its model per (round(workload, 9), cpu_speed), so two workloads
        # equal to 9 decimals but one ulp apart observe the *first* one's
        # model.  Each cell keeps the same canonical-workload mapping so
        # those collisions resolve identically here (bit-exactness).
        self._canonical_workloads: list[dict[tuple[float, float], float]] = [
            {} for _ in self._rngs
        ]
        # Fault-injection channels (repro.faults), per cell × service.
        # All-ones means "no disturbance"; ``x * 1.0`` is bitwise identity
        # for finite floats, so clean cells inside a faulted batch still
        # produce their clean bytes.  ``_faulted`` keeps fully clean
        # batches on the exact pre-fault code path.
        shape = (len(self._rngs), len(app.service_names))
        self._capacity_scale = np.ones(shape)
        self._demand_scale = np.ones(shape)
        self._service_level = np.ones(len(self._rngs))
        self._faulted = False

    @property
    def app(self) -> "AppSpec":
        return self._app

    @property
    def n_cells(self) -> int:
        return len(self._rngs)

    def cell(self, index: int) -> "EngineCell":
        """Cell ``index`` through the scalar engine's setter API."""
        return EngineCell(self, index)

    def set_cpu_speed(self, cell: int, speed: float) -> None:
        """Change one cell's CPU clock (the Fig. 19 ``set_cpu_speed`` hook)."""
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed}")
        self.cpu_speed[cell] = float(speed)
        # The scalar oracle clears its concurrency-model cache here.
        self._canonical_workloads[cell].clear()

    # -- fault-injection channels (repro.faults) ---------------------------------
    def _service_index(self, service: str | None) -> int | slice:
        if service is None:
            return slice(None)
        try:
            return self._app.service_names.index(service)
        except ValueError:
            raise ValueError(
                f"unknown service {service!r} for app {self._app.name!r}"
            ) from None

    def set_capacity_scale(
        self, cell: int, scale: float, service: str | None = None
    ) -> None:
        """One cell's effective-capacity scale (``service_crash``).

        Capacity does not enter the concurrency model, so no cache
        invalidation.
        """
        if scale < 0:
            raise ValueError(f"capacity scale must be >= 0: {scale}")
        self._capacity_scale[cell, self._service_index(service)] = float(scale)
        self._faulted = True

    def set_demand_scale(
        self, cell: int, scale: float, service: str | None = None
    ) -> None:
        """One cell's CPU-demand scale (``calibration_drift``).

        Demands enter the concurrency model: the cell's canonical-workload
        map is cleared, exactly as the scalar oracle clears its model
        cache.
        """
        if scale <= 0:
            raise ValueError(f"demand scale must be positive: {scale}")
        self._demand_scale[cell, self._service_index(service)] = float(scale)
        self._faulted = True
        self._canonical_workloads[cell].clear()

    def set_service_level(self, cell: int, level: float) -> None:
        """One cell's app-wide service-level dimmer (brownout actuation)."""
        if not 0 < level <= 1.0:
            raise ValueError(f"service level must be in (0, 1]: {level}")
        self._service_level[cell] = float(level)
        self._faulted = True
        self._canonical_workloads[cell].clear()

    def observe(
        self,
        alloc: np.ndarray,
        workload_rps: np.ndarray,
        interval: np.ndarray,
    ) -> BatchObservation:
        """One interval's metrics for every cell, with measurement noise.

        ``alloc`` is ``(B, S)`` in service order; ``workload_rps`` and
        ``interval`` are ``(B,)``.
        """
        alloc = np.asarray(alloc, dtype=np.float64)
        workload = np.asarray(workload_rps, dtype=np.float64)
        interval = np.asarray(interval, dtype=np.float64)
        if np.any(workload < 0):
            raise ValueError("workload must be >= 0")
        if np.any(interval <= 0):
            raise ValueError("interval must be positive")
        if self._faulted:
            # Same rebinding as the scalar engine: the recorded allocation
            # stays the controller's; everything downstream sees the
            # effective capacity.
            alloc = alloc * self._capacity_scale

        # Deterministic closed forms: the shared noiseless kernel (same
        # formula order as the scalar engine's ``_concurrency`` +
        # ``ConcurrencyModel`` + ``_latency_from``).  The model workload is
        # canonicalized through the scalar cache's round-to-9-decimals key
        # first (the recorded/observed workload stays exact).
        model_workload = workload.copy()
        for i, seen in enumerate(self._canonical_workloads):
            key = (round(float(workload[i]), 9), float(self.cpu_speed[i]))
            canonical = seen.get(key)
            if canonical is None:
                if len(seen) > 4096:  # the scalar cache's size bound
                    seen.clear()
                seen[key] = float(workload[i])
            else:
                model_workload[i] = canonical
        if self._faulted:
            demand_scale = self._demand_scale * self._service_level[:, None]
            sig = self.kernel.evaluate(
                alloc, model_workload, self.cpu_speed, demand_scale
            )
        else:
            sig = self.kernel.evaluate(alloc, model_workload, self.cpu_speed)
        excess_arr = sig.overload * np.maximum(alloc, 1e-12)
        frac = self.cfs.throttled_fraction(sig.exceed, excess_arr, alloc)
        thr_seconds = frac * interval[:, None]
        thr_seconds[thr_seconds < self.cfs.zero_floor] = 0.0
        latency = sig.latency

        # Stochastic draws, per cell, in the scalar engine's exact order:
        # the latency-noise factor, then the per-service usage normals.
        n_services = alloc.shape[1]
        factors = np.empty(len(self._rngs), dtype=np.float64)
        normals = np.empty_like(alloc)
        for i, rng in enumerate(self._rngs):
            factors[i] = self.noise.sample(rng)
            normals[i] = rng.normal(0.0, 0.03, size=n_services)
        latency = latency * factors

        usage = np.minimum(sig.mean, alloc)
        svc_noise = np.exp(normals)
        usage_noisy = usage * svc_noise
        util = np.clip(usage_noisy / np.maximum(alloc, 1e-12), 0.0, 1.0)
        p90 = np.minimum(alloc, gamma_quantile(0.90, sig.shape, sig.scale))

        return BatchObservation(
            latency_p95=latency,
            workload_rps=workload,
            utilization=util,
            throttle_seconds=thr_seconds,
            usage_cores=usage_noisy,
            usage_p90_cores=p90,
        )


class EngineCell:
    """One cell of a batched engine, through the scalar engine's setters.

    Mid-run hooks, the shared fault schedule
    (:func:`repro.faults.apply_fault_actions`) and actuating controllers
    (brownout's service-level dimmer) drive an engine through
    ``set_cpu_speed``/``set_capacity_scale``/``set_demand_scale``/
    ``set_service_level``; a cell view lets them drive one row of a batch
    with exactly the calls they make against a scalar engine.
    """

    def __init__(self, batch: BatchedAnalyticalEngine, index: int) -> None:
        self.batch = batch
        self.index = index

    @property
    def cpu_speed(self) -> float:
        """Relative CPU clock speed (1.0 = nominal, e.g. 1.8 GHz)."""
        return float(self.batch.cpu_speed[self.index])

    def set_cpu_speed(self, speed: float) -> None:
        """Change the hardware speed (Fig. 19's 1.8→1.6/2.0 GHz experiment)."""
        self.batch.set_cpu_speed(self.index, speed)

    def set_capacity_scale(
        self, scale: float, service: str | None = None
    ) -> None:
        """Scale a service's *effective* capacity (``service_crash``)."""
        self.batch.set_capacity_scale(self.index, scale, service=service)

    def set_demand_scale(
        self, scale: float, service: str | None = None
    ) -> None:
        """Scale a service's calibrated CPU demand (``calibration_drift``)."""
        self.batch.set_demand_scale(self.index, scale, service=service)

    def set_service_level(self, level: float) -> None:
        """Set the app-wide service-level dimmer (brownout actuation)."""
        self.batch.set_service_level(self.index, level)
