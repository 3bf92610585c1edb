"""Noise models: stationarity, variance, correlation structure."""

import math

import numpy as np
import pytest

from repro.common.noise import OrnsteinUhlenbeckNoise, _ar1_filter
from repro.common.rng import RngStream


def sequential_sample(noise: OrnsteinUhlenbeckNoise, times: np.ndarray) -> np.ndarray:
    """Reference: the OU recurrence one sample at a time, on any time grid.

    Draws one normal per sample, as ``sample_uniform`` does, and carries
    the same state (last time and value) into the next call; it leaves
    no grid behind, so the next call is a transition by time gap.
    """
    n = times.size
    noise._grid = None
    z = noise._rng.normal(0.0, 1.0, size=n)
    out = np.empty(n)
    prev_t = noise._last_time
    x = noise._last_value
    for i in range(n):
        t = float(times[i])
        # No history: the first value is drawn from the stationary law.
        rho = 0.0 if prev_t is None else noise._decay(t - prev_t)
        x = rho * x + z[i] * noise._innovation_sigma(rho)
        out[i] = x
        prev_t = t
    noise._last_time = prev_t
    noise._last_value = float(x)
    return out


def test_ou_stationary_variance():
    noise = OrnsteinUhlenbeckNoise(2.0, bandwidth_hz=1000.0, rng=RngStream(1))
    samples = noise.sample_uniform(0.0, 1e-2, 100_000)  # dt >> tau: iid
    assert samples.std() == pytest.approx(2.0, rel=0.02)


def test_ou_autocorrelation_matches_tau():
    noise = OrnsteinUhlenbeckNoise(1.0, bandwidth_hz=100.0, rng=RngStream(2))
    dt = noise.tau / 2
    x = noise.sample_uniform(0.0, dt, 200_000)
    rho = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert rho == pytest.approx(math.exp(-dt / noise.tau), abs=0.01)


def test_ou_chunked_continuity():
    """Chunked generation preserves correlation across the chunk boundary."""
    noise = OrnsteinUhlenbeckNoise(1.0, bandwidth_hz=100.0, rng=RngStream(3))
    dt = noise.tau / 10
    boundary_pairs = []
    for _ in range(2000):
        a = noise.sample_uniform(0.0, dt, 2)
        boundary_pairs.append(a)
    pairs = np.asarray(boundary_pairs)
    # Consecutive chunks are adjacent in time: correlation must persist.
    rho = np.corrcoef(pairs[:-1, 1], pairs[1:, 0])[0, 1]
    assert rho > 0.85


def test_ou_sequential_and_uniform_agree_statistically():
    # Same seed, same grid: the sequential reference and the lfilter pass
    # give the same values bit for bit.  The grid steps are powers of two,
    # so every difference of the grid times is exactly dt.
    start, dt, n = 0.25, 2.0**-14, 50_000
    seq_noise = OrnsteinUhlenbeckNoise(1.5, 500.0, RngStream(4))
    fast_noise = OrnsteinUhlenbeckNoise(1.5, 500.0, RngStream(4))
    seq = sequential_sample(seq_noise, start + dt * np.arange(n))
    fast = fast_noise.sample_uniform(start, dt, n)
    np.testing.assert_array_equal(seq, fast)
    # Both carry the same state into a later call on a new grid: a gap of
    # ten steps, then a coarser step.
    later, step, m = start + dt * (n + 10), 2.0**-12, 2_000
    np.testing.assert_array_equal(
        sequential_sample(seq_noise, later + step * np.arange(m)),
        fast_noise.sample_uniform(later, step, m),
    )


@pytest.mark.parametrize("cuts", [[1], [500, 501], [7, 1000, 4095]])
def test_ou_uniform_grid_is_chunking_invariant(cuts):
    start, dt, n = 0.01, 8.3e-6, 4096
    whole = OrnsteinUhlenbeckNoise(0.2, 23_400.0, RngStream(7)).sample_uniform(start, dt, n)
    noise = OrnsteinUhlenbeckNoise(0.2, 23_400.0, RngStream(7))
    edges = [0, *cuts, n]
    parts = [
        noise.sample_uniform(start, dt, hi - lo, lo) for lo, hi in zip(edges, edges[1:])
    ]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_ou_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OrnsteinUhlenbeckNoise(-1.0, 100.0, RngStream(0))
    with pytest.raises(ValueError):
        OrnsteinUhlenbeckNoise(1.0, 0.0, RngStream(0))


def test_ou_zero_sigma_is_silent():
    noise = OrnsteinUhlenbeckNoise(0.0, 100.0, RngStream(0))
    assert np.array_equal(noise.sample_uniform(0.0, 1e-3, 100), np.zeros(100))


def test_ou_reset_forgets_history():
    noise = OrnsteinUhlenbeckNoise(1.0, 100.0, RngStream(6))
    noise.sample_uniform(0.0, 1e-5, 10)
    noise.reset()
    assert noise._last_time is None


def test_ar1_filter_matches_reference():
    rng = np.random.default_rng(0)
    innovations = rng.normal(size=5000)
    for rho in (0.0, 1e-7, 0.3, 0.95, 0.999999):
        out = _ar1_filter(rho, 1.7, innovations.copy())
        # Sequential reference.
        ref = np.empty_like(innovations)
        x = 1.7
        ref[0] = x
        for i in range(1, innovations.size):
            x = rho * x + innovations[i]
            ref[i] = x
        # rho below the filter's 1e-6 white-noise cutoff is approximated;
        # the discrepancy is bounded by rho * max|x|.
        assert np.allclose(out, ref, atol=1e-5), f"rho={rho}"


def test_ar1_filter_block_boundaries():
    """Long inputs cross internal block boundaries without discontinuity."""
    rng = np.random.default_rng(1)
    innovations = rng.normal(size=200_000)
    rho = 0.5  # small block length: 30 / log10(2) ~ 99
    out = _ar1_filter(rho, 0.0, innovations.copy())
    ref_tail = rho * out[:-1] + innovations[1:]
    assert np.allclose(out[1:], ref_tail, atol=1e-7)
