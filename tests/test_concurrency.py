"""Gamma concurrency model: distribution identities and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.sim.concurrency import (
    ConcurrencyModel,
    gamma_cdf,
    gamma_quantile,
    gamma_sf,
    tail_expectation,
)


class TestGammaPrimitives:
    def test_cdf_sf_complement(self):
        shape, scale = np.array([2.0]), np.array([1.5])
        for x in (0.5, 1.0, 3.0, 10.0):
            total = gamma_cdf(np.array([x]), shape, scale) + gamma_sf(
                np.array([x]), shape, scale
            )
            assert total[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        shape, scale = 0.7, 3.0
        x = np.linspace(0.1, 20, 25)
        ours = gamma_sf(x, np.full_like(x, shape), np.full_like(x, scale))
        ref = stats.gamma.sf(x, shape, scale=scale)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_quantile_inverts_cdf(self):
        shape, scale = np.array([1.2]), np.array([2.0])
        for p in (0.1, 0.5, 0.9, 0.97):
            q = gamma_quantile(p, shape, scale)
            assert gamma_cdf(q, shape, scale)[0] == pytest.approx(p, abs=1e-9)

    def test_quantile_level_validation(self):
        with pytest.raises(ValueError):
            gamma_quantile(1.5, np.array([1.0]), np.array([1.0]))

    def test_zero_demand_degenerate(self):
        zero = np.array([0.0])
        one = np.array([1.0])
        assert gamma_sf(one, zero, one)[0] == 0.0
        assert gamma_cdf(one, zero, one)[0] == 1.0
        assert gamma_quantile(0.97, zero, one)[0] == 0.0
        assert tail_expectation(one, zero, zero, one)[0] == 0.0

    def test_degenerate_entry_keeps_regular_bytes(self):
        # One degenerate entry sends a call down the masked path; the
        # regular entries must keep the bytes of an all-regular call.
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 4.0, (3, 4))
        mean = rng.uniform(0.5, 3.0, (3, 4))
        scale = rng.uniform(0.5, 2.0, 4)
        shape = mean / scale
        mixed = shape.copy()
        mixed[1, 2] = 0.0
        keep = np.ones_like(x, dtype=bool)
        keep[1, 2] = False
        sf = gamma_sf(x, shape, scale)
        cases = [
            (gamma_sf(x, mixed, scale), sf),
            (
                tail_expectation(x, mean, mixed, scale),
                tail_expectation(x, mean, shape, scale),
            ),
            (
                tail_expectation(x, mean, mixed, scale, sf=sf),
                tail_expectation(x, mean, shape, scale, sf=sf),
            ),
            (gamma_quantile(0.9, mixed, scale), gamma_quantile(0.9, shape, scale)),
        ]
        for masked, direct in cases:
            assert masked.shape == direct.shape == x.shape
            assert masked[1, 2] == 0.0
            assert masked[keep].tobytes() == direct[keep].tobytes()

    def test_scalar_inputs_return_arrays(self):
        for out in (
            gamma_sf(1.0, 2.0, 1.5),
            gamma_quantile(0.9, 2.0, 1.5),
            tail_expectation(1.0, 3.0, 2.0, 1.5),
        ):
            assert isinstance(out, np.ndarray) and out.shape == ()

    def test_tail_expectation_matches_numeric(self):
        shape, scale = 1.5, 2.0
        mean = shape * scale
        x = 4.0
        grid = np.linspace(x, 200, 400_000)
        numeric = np.trapezoid(
            (grid - x) * stats.gamma.pdf(grid, shape, scale=scale), grid
        )
        ours = tail_expectation(
            np.array([x]), np.array([mean]), np.array([shape]), np.array([scale])
        )[0]
        assert ours == pytest.approx(numeric, rel=1e-3)

    @given(
        x=st.floats(min_value=0.0, max_value=50.0),
        mean=st.floats(min_value=0.01, max_value=20.0),
        burst=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_expectation_bounds(self, x, mean, burst):
        shape = np.array([mean / burst])
        scale = np.array([burst])
        e = tail_expectation(
            np.array([x]), np.array([mean]), shape, scale
        )[0]
        assert e >= max(mean - x, 0.0) - 1e-9  # Jensen lower bound
        assert e <= mean + 1e-9  # cannot exceed the mean


class TestConcurrencyModel:
    def model(self) -> ConcurrencyModel:
        return ConcurrencyModel(
            mean=np.array([0.5, 2.0, 0.0]), burstiness=np.array([4.0, 1.5, 2.0])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ConcurrencyModel(mean=np.array([1.0]), burstiness=np.array([0.0]))
        with pytest.raises(ValueError):
            ConcurrencyModel(mean=np.array([-1.0]), burstiness=np.array([2.0]))
        with pytest.raises(ValueError):
            ConcurrencyModel(mean=np.array([1.0, 2.0]), burstiness=np.array([2.0]))

    def test_bottleneck_is_97th_percentile(self):
        m = self.model()
        b = m.bottleneck(0.97)
        exceed = m.exceed_probability(b)
        assert exceed[0] == pytest.approx(0.03, abs=1e-9)
        assert exceed[1] == pytest.approx(0.03, abs=1e-9)
        assert b[2] == 0.0  # zero-demand service has no bottleneck

    def test_exceed_monotone_in_alloc(self):
        m = self.model()
        lo = m.exceed_probability(np.array([0.5, 1.0, 0.1]))
        hi = m.exceed_probability(np.array([2.0, 4.0, 1.0]))
        assert np.all(hi <= lo + 1e-12)

    def test_overload_monotone_in_alloc(self):
        m = self.model()
        lo = m.overload(np.array([0.5, 1.0, 0.1]))
        hi = m.overload(np.array([2.0, 4.0, 1.0]))
        assert np.all(hi <= lo + 1e-12)
        assert lo[2] == 0.0

    def test_usage_p90_capped_by_alloc(self):
        m = self.model()
        alloc = np.array([0.2, 0.5, 1.0])
        p90 = m.usage_p90(alloc)
        assert np.all(p90 <= alloc + 1e-12)

    @given(
        mean=st.floats(min_value=0.05, max_value=10.0),
        burst=st.floats(min_value=1.0, max_value=8.0),
        p_lo=st.floats(min_value=0.5, max_value=0.9),
        p_hi=st.floats(min_value=0.91, max_value=0.995),
    )
    @settings(max_examples=50, deadline=None)
    def test_bottleneck_monotone_in_quantile(self, mean, burst, p_lo, p_hi):
        m = ConcurrencyModel(mean=np.array([mean]), burstiness=np.array([burst]))
        assert m.bottleneck(p_hi)[0] >= m.bottleneck(p_lo)[0] - 1e-12
        # And the defining identity: SF(bottleneck) == 1 - p.
        b = m.bottleneck(p_hi)
        assert m.exceed_probability(b)[0] == pytest.approx(1 - p_hi, abs=1e-9)
