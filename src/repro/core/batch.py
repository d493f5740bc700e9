"""Vectorized PEMA bank: Algorithm 1 advanced for many cells per call.

:class:`PEMABatch` carries the state of ``B`` independent
:class:`~repro.core.controller.PEMAController` instances (one sweep cell
each, same application) in stacked arrays — allocations, learned
thresholds and SLOs are ``(B, S)``/``(B,)`` — and advances all of them
with one call per control interval.  The heavy per-step math (exploration
probabilities, Eqn. 5 inclusion probabilities, threshold ratcheting,
reductions) runs as whole-batch array operations; only the parts that are
inherently per-cell remain loops: the random draws (each cell owns the
same ``default_rng(seed)`` stream the scalar controller would consume, in
the same order) and the RHDb rollback/exploration scans (rare, and
``O(history)`` only when they fire).

Bit-exactness contract: cell ``i`` of a batch produces exactly the
allocation sequence of a scalar ``PEMAController`` with the same seed,
config, SLO and metrics — every float operation is the same IEEE op in
the same order, and the stochastic call sequence (explore gate draw,
exploration index draw, Bernoulli selection + uniform cut via the *same*
:func:`~repro.core.selection.select_targets`) is preserved branch by
branch.  ``tests/test_batched.py`` enforces byte-identical artifacts.

The one unsupported case is a history long enough to hit the RHDb trim
(``n_steps`` past :data:`~repro.core.rhdb.RHDB_MAX_RECORDS`):
``classify_unit`` routes such cells to the scalar path as
``pema_horizon``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.controller import PEMAController
from repro.core.selection import select_targets
from repro.sim.batched import BatchObservation

__all__ = ["PEMABatch", "PEMACell"]

#: Tolerance constants, matching :mod:`repro.core.selection`.
_SEL_EPS = 1e-9


def _window_mean(window: list) -> float:
    """``float(np.mean(tuple(window)))`` bit-for-bit.

    NumPy's pairwise reduction degenerates to a plain sequential sum
    (starting from 0.0) below 8 elements, which covers the default
    5-sample moving average without a NumPy call; longer windows take the
    real ``np.mean``.
    """
    n = len(window)
    if n < 8:
        s = 0.0
        for v in window:
            s = s + v
        return s / n
    return np.mean(np.asarray(window, dtype=np.float64))


class PEMABatch:
    """A bank of ``B`` PEMA controllers over one shared service set."""

    def __init__(self, controllers: Sequence[PEMAController]) -> None:
        """Stack already-built (hence validated) scalar controllers.

        Cell ``i`` takes controller ``i``'s SLO, current allocation,
        config and RNG stream — the ``default_rng(seed)`` it was built
        with, not yet drawn from — so it replays that controller's run.
        """
        self.services = controllers[0].services
        self._index = {name: j for j, name in enumerate(self.services)}
        n_cells = len(controllers)
        self.slo = np.asarray([c.slo for c in controllers], dtype=np.float64)
        self.allocation = np.stack(
            [c.allocation.as_array(self.services) for c in controllers]
        )
        self.configs = tuple(c.config for c in controllers)
        self.rngs = [c.rng for c in controllers]

        cfg = self.configs
        self._alpha = np.asarray([c.alpha for c in cfg])
        self._beta = np.asarray([c.beta for c in cfg])
        self._explore_a = np.asarray([c.explore_a for c in cfg])
        self._explore_b = np.asarray([c.explore_b for c in cfg])
        self._buffer = np.asarray([c.response_buffer for c in cfg])
        self._min_cpu = np.asarray([c.min_cpu for c in cfg])
        self._gain = np.asarray([c.rollback_severity_gain for c in cfg])
        self._window_len = [c.moving_average_window for c in cfg]
        self._use_filter = np.asarray([c.use_bottleneck_filter for c in cfg])
        self._dynamic = np.asarray([c.use_dynamic_thresholds for c in cfg])

        shape = self.allocation.shape
        self.util_th = np.empty(shape)
        self.util_th[:] = np.asarray([c.init_util_threshold for c in cfg])[:, None]
        self.thr_th = np.empty(shape)
        self.thr_th[:] = np.asarray(
            [c.init_throttle_threshold for c in cfg]
        )[:, None]

        self._windows: list[list[float]] = [[] for _ in range(n_cells)]
        self._tainted: list[set[bytes]] = [set() for _ in range(n_cells)]
        # Decision tracing: cells opted in via enable_decision_trace get
        # exactly one pema_decision_info per step, mirroring the scalar
        # controller's StepResult field-for-field (untraced cells pay
        # nothing).
        self._trace_cells: set[int] = set()
        self.decision_info: dict[int, list[dict]] = {}
        # RHDb, stacked: one (B,)/(B, S) snapshot per inserted step.
        self._hist_resp: list[np.ndarray] = []
        self._hist_total: list[np.ndarray] = []
        self._hist_alloc: list[np.ndarray] = []

    @property
    def n_cells(self) -> int:
        return len(self.configs)

    # -- decision tracing ---------------------------------------------------------
    def enable_decision_trace(self, cells: Sequence[int]) -> None:
        """Record per-step decision info for the given cells."""
        for cell in cells:
            self._trace_cells.add(int(cell))
            self.decision_info.setdefault(int(cell), [])

    # -- dynamic SLO (the Fig. 20 hook) -----------------------------------------
    def set_slo(self, cell: int, slo: float) -> None:
        """Change one cell's SLO mid-run, like ``PEMAController.set_slo``."""
        if slo <= 0:
            raise ValueError(f"slo must be positive: {slo}")
        self.slo[cell] = float(slo)
        self._windows[cell].clear()

    def cell(self, index: int) -> "PEMACell":
        """Cell ``index`` as the controller mid-run hooks see."""
        return PEMACell(self, index)

    # -- RHDb queries ------------------------------------------------------------
    def _best_rollback(self, cell: int, ceiling: float) -> int | None:
        """First minimum-total safe record index (ties keep the oldest)."""
        tainted = self._tainted[cell]
        best: int | None = None
        best_total = math.inf
        for k in range(len(self._hist_resp)):
            if self._hist_resp[k][cell] > ceiling:
                continue
            if tainted and self._hist_alloc[k][cell].tobytes() in tainted:
                continue
            total = self._hist_total[k][cell]
            if total < best_total:
                best_total = total
                best = k
        return best

    def _safe_records(self, cell: int) -> list[int]:
        tainted = self._tainted[cell]
        slo = self.slo[cell]
        return [
            k
            for k in range(len(self._hist_resp))
            if self._hist_resp[k][cell] <= slo
            and not (
                tainted and self._hist_alloc[k][cell].tobytes() in tainted
            )
        ]

    # -- one control interval for the whole batch --------------------------------
    def step(self, obs: BatchObservation) -> np.ndarray:
        """Advance every cell one interval; returns the ``(B, S)`` allocations.

        ``obs`` is the batch observation produced under the *current*
        allocations.
        """
        totals = self.allocation.sum(axis=1)
        response = obs.latency_p95
        util = obs.utilization
        thr_seconds = obs.throttle_seconds
        n_services = len(self.services)

        # Line 3: log this interval into the stacked RHDb.
        self._hist_resp.append(np.array(response))
        self._hist_total.append(totals)
        self._hist_alloc.append(self.allocation.copy())

        violated = response > self.slo
        # Eqn. (8), vectorized (identical elementwise to the scalar clip).
        p_explore = (
            self._explore_a
            * np.clip((self.slo - response) / (self._alpha * self.slo), 0.0, 1.0)
            + self._explore_b
        )
        # Eqn. (5) inputs, vectorized; rows are consumed only by cells
        # that reach the selection branch.
        u_star = np.minimum(
            util / np.maximum(self.util_th, _SEL_EPS), 1.0
        )
        eligible = thr_seconds <= self.thr_th + _SEL_EPS
        # Trace records need plain Python floats; one bulk (and exact)
        # tolist() beats a slow float(np.float64) per traced record.
        p_explore_row = p_explore.tolist() if self._trace_cells else None

        for i in range(self.n_cells):
            window = self._windows[i]
            window.append(response[i])
            if len(window) > self._window_len[i]:
                window.pop(0)

            alloc_row = self.allocation[i]
            if violated[i]:
                # Line 4: taint + rollback (no random draws on this path).
                self._tainted[i].add(alloc_row.tobytes())
                slo = self.slo[i]
                ceiling = slo
                if self._gain[i] > 0:
                    overshoot = max(response[i] / slo - 1.0, 0.0)
                    ceiling = slo * (1.0 - min(0.5, self._gain[i] * overshoot))
                k = self._best_rollback(i, ceiling)
                if k is None and ceiling != slo:
                    k = self._best_rollback(i, slo)
                if k is not None:
                    self.allocation[i] = self._hist_alloc[k][i]
                else:
                    self.allocation[i] = alloc_row * 1.25
                window.clear()
                if i in self._trace_cells:
                    # Scalar rollback returns before p_explore is even
                    # computed, so the record keeps the default 0.0.
                    # Records here and below are inlined dict literals
                    # matching pema_decision_info (the scalar path) key
                    # for key — the function-call + coercion cost is too
                    # hot for the batched per-step loop, and the
                    # scalar-vs-batched byte-parity tests pin the shape.
                    self.decision_info[i].append({
                        "kind": "pema",
                        "action": "rollback",
                        "violated": True,
                        "targets": [],
                        "n_targets": 0,
                        "delta": 0.0,
                        "signal": 0.0,
                        "p_explore": 0.0,
                        "probabilities": [],
                    })
                continue

            rng = self.rngs[i]
            # Line 6: exploration gate (always one uniform draw).
            if rng.random() < p_explore[i]:
                safe = self._safe_records(i)
                if safe:
                    k = safe[int(rng.integers(len(safe)))]
                    self.allocation[i] = self._hist_alloc[k][i]
                    window.clear()
                    if i in self._trace_cells:
                        self.decision_info[i].append({
                            "kind": "pema",
                            "action": "explore",
                            "violated": False,
                            "targets": [],
                            "n_targets": 0,
                            "delta": 0.0,
                            "signal": 0.0,
                            "p_explore": p_explore_row[i],
                            "probabilities": [],
                        })
                    continue

            # Line 7: reduction sizing from the moving-average response.
            r_avg = _window_mean(window)
            raw = (self._buffer[i] * self.slo[i] - r_avg) / (
                self._alpha[i] * self.slo[i]
            )
            signal = min(max(raw, 0.0), 1.0)
            n_t = int(math.floor(n_services * signal))
            delta = self._beta[i] * signal
            if n_t == 0 or delta <= 0.0:
                if i in self._trace_cells:
                    # The scalar early-hold result leaves n_targets/delta
                    # at their defaults, so the record does too.
                    self.decision_info[i].append({
                        "kind": "pema",
                        "action": "hold",
                        "violated": False,
                        "targets": [],
                        "n_targets": 0,
                        "delta": 0.0,
                        "signal": float(signal),
                        "p_explore": p_explore_row[i],
                        "probabilities": [],
                    })
                continue

            # Lines 8-9: bottleneck filter + inclusion probabilities.
            if self._use_filter[i]:
                idx = np.flatnonzero(eligible[i])
                if idx.size:
                    vals = u_star[i, idx]
                    u_min = vals.min()
                    denom = 1.0 - u_min
                    if denom <= _SEL_EPS:
                        probs = {self.services[j]: 1.0 for j in idx}
                    else:
                        # tolist() is value-exact; plain floats keep the
                        # selection draws identical and make the traced
                        # record's JSON coercion cheap.
                        p = np.clip(
                            1.0 - (vals - u_min) / denom, 0.0, 1.0
                        ).tolist()
                        probs = {
                            self.services[j]: p[pos]
                            for pos, j in enumerate(idx)
                        }
                else:
                    probs = {}
            else:
                probs = {name: 1.0 for name in self.services}

            # Line 10: the scalar selection routine drives the exact same
            # Bernoulli-draw + uniform-cut random sequence.
            targets = select_targets(probs, n_t, rng)
            if targets:
                if not 0.0 <= delta < 1.0:
                    raise ValueError(f"fraction must be in [0, 1): {delta}")
                cols = [self._index[t] for t in targets]
                self.allocation[i, cols] = np.maximum(
                    self._min_cpu[i], self.allocation[i, cols] * (1.0 - delta)
                )
            if i in self._trace_cells:
                self.decision_info[i].append({
                    "kind": "pema",
                    "action": "reduce" if targets else "hold",
                    "violated": False,
                    "targets": list(targets),
                    "n_targets": n_t,
                    "delta": float(delta),
                    "signal": float(signal),
                    "p_explore": p_explore_row[i],
                    "probabilities": [[n, p] for n, p in probs.items()],
                })

        # Eqns. (6)-(7): ratchet thresholds on every SLO-satisfying cell
        # (the scalar controller updates after selection, so this step's
        # selection used the pre-update values — same as here).
        ratchet = (~violated & self._dynamic)[:, None]
        self.util_th = np.where(
            ratchet & (util > self.util_th), util, self.util_th
        )
        self.thr_th = np.where(
            ratchet & (thr_seconds > self.thr_th), thr_seconds, self.thr_th
        )
        return self.allocation


class PEMACell:
    """One cell of a :class:`PEMABatch`, as the scalar controller's hooks see it."""

    def __init__(self, bank: PEMABatch, index: int) -> None:
        self._bank = bank
        self._index = index

    def set_slo(self, slo: float) -> None:
        self._bank.set_slo(self._index, slo)
