"""Noise models: stationarity, variance, correlation structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.noise import OrnsteinUhlenbeckNoise, noise_tiles, tile_scans
from repro.common.rng import RngStream
from repro.hardware.adc import AdcTiming

EPS = np.finfo(float).eps
SCAN_S = AdcTiming().scan_time_s

# A tile's scales span 2**±970: no intermediate may overflow, padding included.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    # Same seed, same grid: the sequential reference and the tiled
    # evaluation agree to a few ULPs.  Only a one-sample-at-a-time
    # evaluator could match the reference bit for bit; 64 eps sigma
    # leaves ten times the largest difference seen.  The grid steps are
    # powers of two, so every difference of the grid times is exactly dt.
    start, dt, n = 0.25, 2.0**-14, 50_000
    seq_noise = OrnsteinUhlenbeckNoise(1.5, 500.0, RngStream(4))
    fast_noise = OrnsteinUhlenbeckNoise(1.5, 500.0, RngStream(4))
    seq = sequential_sample(seq_noise, start + dt * np.arange(n))
    fast = fast_noise.sample_uniform(start, dt, n)
    np.testing.assert_allclose(fast, seq, rtol=0, atol=64 * EPS * 1.5)
    # Both carry the same state into a later call on a new grid: a gap of
    # ten steps, then a coarser step.
    later, step, m = start + dt * (n + 10), 2.0**-12, 2_000
    np.testing.assert_allclose(
        fast_noise.sample_uniform(later, step, m),
        sequential_sample(seq_noise, later + step * np.arange(m)),
        rtol=0,
        atol=64 * EPS * 1.5,
    )


def bandwidth_for(rho: float, dt: float) -> float:
    """The noise bandwidth whose AR(1) coefficient on step ``dt`` is ``rho``."""
    return -math.log(rho) / (2 * math.pi * dt) if rho > 0 else 1e9


@pytest.mark.parametrize("rho", [0.0, 1e-7, 0.0053, 0.294, 0.95, 0.999999])
@pytest.mark.parametrize("first", [0, 12_345])
def test_tiled_values_stay_within_a_bound_of_the_reference(rho, first):
    # Rounding differs between the tiled sums and the recurrence, and
    # random-walks over the correlation length, 1/(1-rho) scans, so the
    # bound is 16 eps sigma per square root of it (n at most).  60,000
    # scans give every rho whole tiles past its first two, so all three
    # kinds of piece (1-D head, 2-D rows, 1-D tail) are checked.
    start, dt, n, sigma = 0.25, 2.0**-14, 60_000, 1.5
    bandwidth = bandwidth_for(rho, dt)
    seq_noise = OrnsteinUhlenbeckNoise(sigma, bandwidth, RngStream(5))
    fast_noise = OrnsteinUhlenbeckNoise(sigma, bandwidth, RngStream(5))
    seq = sequential_sample(seq_noise, start + dt * np.arange(first, first + n))
    fast = fast_noise.sample_uniform(start, dt, n, first)
    actual = math.exp(-dt / fast_noise.tau)
    memory = min(n, 1.0 / (1.0 - actual))
    assert np.max(np.abs(fast - seq)) <= 16 * EPS * sigma * math.sqrt(memory)
    if rho == 0.0:
        assert tile_scans(actual) == 0  # white noise: the innovations
        np.testing.assert_array_equal(fast, seq)


def test_tile_lengths_on_the_adc_scan_grid():
    # The largest power of two whose scales stay within 2**±970.
    hall = math.exp(-SCAN_S * 2 * math.pi * 23_400.0)
    voltage = math.exp(-SCAN_S * 2 * math.pi * 100_000.0)
    assert tile_scans(hall) == 1024
    assert tile_scans(voltage) == 256
    for rho in (hall, voltage, 1e-7, 0.95, 0.999999, 1.0):
        tiles = noise_tiles(rho, 1.0)
        assert np.all(np.isfinite(tiles.up)) and np.all(tiles.up > 0)
        assert max(tiles.up.max(), tiles.down.max()) <= 2.0**970
        assert min(tiles.up.min(), tiles.down.min()) >= 2.0**-970
    assert tile_scans(2.0**-971) == 0


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


@st.composite
def tile_splits(draw):
    """A scan grid from ``first`` and cuts, some on or next to a tile boundary."""
    bandwidth = draw(st.sampled_from([23_400.0, 100_000.0, 5.0]))
    size = tile_scans(math.exp(-SCAN_S * 2 * math.pi * bandwidth))
    first = draw(st.integers(0, 2 * 10**10))
    n = 4 * size + draw(st.integers(1, 500))  # past the first two tiles: 2-D rows
    boundaries = np.arange(-first % size, n, size)
    near_boundaries = st.builds(
        lambda boundary, delta: int(boundary) + delta,
        st.sampled_from(boundaries),
        st.integers(-1, 1),
    )
    cuts = draw(st.lists(st.one_of(st.integers(1, n - 1), near_boundaries), max_size=8))
    return bandwidth, first, n, sorted({0, n, *(c for c in cuts if 0 < c < n)})


@settings(max_examples=40, deadline=None)
@given(split=tile_splits())
def test_any_split_of_a_grid_gives_the_same_noise(split):
    # 5 Hz on the scan grid is rho ~0.9997: no tile start is absorbed,
    # so the 2-D rows chain their starts one by one.
    bandwidth, first, n, edges = split
    start = 3 * AdcTiming().conversion_time_s
    whole = OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(9)).sample_uniform(
        start, SCAN_S, n, first
    )
    noise = OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(9))
    pieces = [
        noise.sample_uniform(start, SCAN_S, hi - lo, first + lo)
        for lo, hi in zip(edges, edges[1:])
    ]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("bandwidth", [23_400.0, 100_000.0, 5.0])
def test_tile_starts_chain_alike_in_1d_and_2d(bandwidth):
    # One call over 60 tiles chains its tile starts at once (2-D rows);
    # reads of three tiles chain them one by one (1-D segments).  Both
    # give the same bytes.  At 5 Hz (rho ~0.9997) no start is absorbed
    # by its tile's last sum, so the long call chains one by one too.
    size = tile_scans(math.exp(-SCAN_S * 2 * math.pi * bandwidth))
    first, n, step = size // 3, 60 * size, 3 * size
    whole = OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(9)).sample_uniform(
        0.0, SCAN_S, n, first
    )
    noise = OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(9))
    pieces = [noise.sample_uniform(0.0, SCAN_S, step, first + lo) for lo in range(0, n, step)]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("bandwidth", [23_400.0, 100_000.0])
def test_fresh_start_mid_tile(bandwidth):
    # A grid whose first scan is mid-tile starts its first tile there:
    # the values follow the reference, and any split after it matches.
    # The step is a power of two near the scan time, so the reference's
    # time differences are exact.
    dt = 2.0**-17
    size = tile_scans(math.exp(-dt * 2 * math.pi * bandwidth))
    first, n = 5 * size + size // 2 + 3, 3 * size
    seq = sequential_sample(
        OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(8)),
        dt * np.arange(first, first + n),
    )
    whole = OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(8)).sample_uniform(
        0.0, dt, n, first
    )
    np.testing.assert_allclose(whole, seq, rtol=0, atol=16 * EPS * 0.2)
    noise = OrnsteinUhlenbeckNoise(0.2, bandwidth, RngStream(8))
    cuts = [0, 1, size // 2 - 3, size // 2 - 2, size + 7, n]
    pieces = [
        noise.sample_uniform(0.0, dt, hi - lo, first + lo) for lo, hi in zip(cuts, cuts[1:])
    ]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


def test_ou_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OrnsteinUhlenbeckNoise(-1.0, 100.0, RngStream(0))
    with pytest.raises(ValueError):
        OrnsteinUhlenbeckNoise(1.0, 0.0, RngStream(0))


def test_ou_zero_sigma_is_silent():
    noise = OrnsteinUhlenbeckNoise(0.0, 100.0, RngStream(0))
    assert np.array_equal(noise.sample_uniform(0.0, 1e-3, 100), np.zeros(100))


def test_ou_reset_forgets_history():
    # After reset, a call that continues the grid mid-tile is a fresh
    # start: it matches a new generator that has drawn the same normals.
    noise = OrnsteinUhlenbeckNoise(1.0, 23_400.0, RngStream(6))
    noise.sample_uniform(0.0, SCAN_S, 100)
    noise.reset()
    assert noise._last_time is None
    after = noise.sample_uniform(0.0, SCAN_S, 50, 100)
    fresh = OrnsteinUhlenbeckNoise(1.0, 23_400.0, RngStream(6))
    fresh._rng.generator.standard_normal(100)
    assert after.tobytes() == fresh.sample_uniform(0.0, SCAN_S, 50, 100).tobytes()
