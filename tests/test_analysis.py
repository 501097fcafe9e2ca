"""Fourier transform of the level sequence and peak matching."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raysplit.analysis import (
    _band_edges,
    _fft_length,
    _magnitude_direct,
    default_s_spacing,
    default_tolerance,
    detect_peaks,
    fourier_transform,
    match_peaks,
)
from raysplit.model import build_potential
from raysplit.spectrum import find_roots


def comb_roots(n):
    """Free-well spectrum: k_j = j pi, whose |F| peaks exactly at even s."""
    return np.arange(1, n + 1) * math.pi


def test_zero_action_returns_level_count():
    roots = comb_roots(50)
    prof = fourier_transform(roots, np.array([0.0, 0.1]))
    assert prof.magnitude[0] == pytest.approx(50.0, abs=1e-10)
    assert prof.j_roots == 50
    assert prof.k_max == pytest.approx(50 * math.pi)


def test_magnitude_never_exceeds_level_count():
    rng = np.random.default_rng(5)
    roots = np.sort(rng.uniform(1.0, 200.0, 300))
    s = np.linspace(0.0, 12.0, 4001)
    prof = fourier_transform(roots, s)
    assert prof.magnitude.max() <= 300.0 + 1e-9


def test_uniform_grid_fast_path_matches_direct():
    rng = np.random.default_rng(9)
    roots = np.sort(rng.uniform(1.0, 500.0, 400))
    s = np.arange(0.2, 9.0, 0.001)           # uniform: takes the NUFFT path
    prof = fourier_transform(roots, s)
    direct = _magnitude_direct(roots, s)
    assert np.max(np.abs(prof.magnitude - direct)) < 1e-10


@pytest.fixture(scope="module")
def bench_levels():
    """The J = 8,710 levels of the step to k = 3e4 and their default action step."""
    roots = find_roots(build_potential(0.7, 0.5), 3e4).roots
    return roots, default_s_spacing(roots[-1])


@pytest.mark.parametrize("n_actions", [None, 414_720])
def test_nufft_matches_direct_at_bench_scale(bench_levels, n_actions):
    # J = 8,710 levels on the default grid of 374,326 actions, and on a grid
    # of 414,720 whose FFT length 829,440 makes fl(m / 2 pi) off by 1.4e-16
    roots, ds = bench_levels
    if n_actions is None:
        s = np.arange(0.2, 10.0 + ds, ds)
    else:
        s = 0.2 + ds * np.arange(n_actions)
    prof = fourier_transform(roots, s)
    idx = np.random.default_rng(4).choice(s.size, 2000, replace=False)
    direct = _magnitude_direct(roots, s[idx])
    assert np.max(np.abs(prof.magnitude[idx] - direct)) <= 1e-12 * roots.size


@pytest.mark.parametrize("n_actions", [None, 100_001])
def test_nufft_band_edges_match_direct(bench_levels, n_actions):
    # the first and last two actions of each band, where its modes reach
    # furthest from the band centre: the default grid in 8 bands, and an
    # odd-sized grid in 3 bands of 33,333 and 33,334 actions
    roots, ds = bench_levels
    if n_actions is None:
        s = np.arange(0.2, 10.0 + ds, ds)
    else:
        s = 0.7 + ds * np.arange(n_actions)
    edges = _band_edges(s.size)
    assert len(edges) == (9 if n_actions is None else 4)
    idx = np.array([i for lo, hi in zip(edges, edges[1:]) for i in (lo, lo + 1, hi - 2, hi - 1)])
    prof = fourier_transform(roots, s)
    direct = _magnitude_direct(roots, s[idx])
    assert np.max(np.abs(prof.magnitude[idx] - direct)) <= 1e-12 * roots.size


def _transform_peak(roots, s):
    """Traced peak memory of fourier_transform(roots, s)."""
    tracemalloc.start()
    try:
        fourier_transform(roots, s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nufft_peak_memory_is_one_band(bench_levels):
    # the default grid of 374,326 actions is transformed band by band: the
    # traced peak, 8.1 MB, is the 3 MB output, the one grid of 93,750 points
    # that a band's value and slope transforms take in turn, the band's modes
    # and its offset correction, not a second grid, grids over the whole
    # action range nor a stencil over every level.  pocketfft's plan and
    # scratch, about 2.8 MB more, are allocated in C++ and not traced, so the
    # peak RSS is bounded by the continuous-integration workflow instead
    roots, ds = bench_levels
    s = np.arange(0.2, 10.0 + ds, ds)
    assert s.size == 374_326
    assert _transform_peak(roots, s) <= 9.0e6


def test_nufft_memory_does_not_grow_with_the_levels(bench_levels):
    # four times the levels on the same grid: only two numbers per level are
    # kept, about 0.3 MB more, where a stored stencil would add 13 MB
    roots, ds = bench_levels
    s = np.arange(0.2, 10.0 + ds, ds)
    more = find_roots(build_potential(0.7, 0.5), 1.2e5).roots
    assert len(more) == 4 * len(roots) == 34_840
    assert _transform_peak(more, s) <= _transform_peak(roots, s) + 1.5e6


def test_nufft_with_wrapping_phases():
    # k_max ds = 18.5 > 2 pi: level positions wrap round the periodic grid
    rng = np.random.default_rng(9)
    roots = np.sort(rng.uniform(1.0, 500.0, 400))
    s = np.arange(0.3, 300.0, 0.037)
    prof = fourier_transform(roots, s)
    direct = _magnitude_direct(roots, s)
    assert np.max(np.abs(prof.magnitude - direct)) <= 1e-12 * roots.size


@pytest.mark.parametrize("n", [3, 4, 5, 7, 1001])
def test_nufft_small_and_odd_grids(n):
    roots = np.sort(np.random.default_rng(n).uniform(1.0, 500.0, 400))
    s = 0.7 + 0.013 * np.arange(n)
    prof = fourier_transform(roots, s)
    assert prof.magnitude.shape == (n,)
    assert np.max(np.abs(prof.magnitude - _magnitude_direct(roots, s))) <= 1e-12 * roots.size


def test_nufft_is_deterministic():
    roots = np.sort(np.random.default_rng(3).uniform(1.0, 2000.0, 5000))
    s = np.arange(0.2, 9.0, 0.0004)
    a = fourier_transform(roots, s).magnitude
    b = fourier_transform(roots, s).magnitude
    assert np.array_equal(a, b)


def test_fft_length_is_smallest_five_smooth():
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    for n in range(1, 3000):
        m = _fft_length(n)
        assert m >= n and smooth(m)
        assert not any(smooth(x) for x in range(n, m))
    assert _fft_length(748_652) == 750_000


def test_nonuniform_grid_falls_back_to_direct():
    roots = comb_roots(30)
    s = np.array([0.5, 0.7, 1.3, 2.0, 3.1])  # irregular spacing
    prof = fourier_transform(roots, s)
    expected = np.abs(np.exp(-1j * np.outer(s, roots)).sum(axis=1))
    assert np.max(np.abs(prof.magnitude - expected)) < 1e-10


def test_empty_roots_rejected():
    with pytest.raises(ValueError, match="roots"):
        fourier_transform(np.array([]), np.array([1.0]))


def test_default_grid_helpers():
    assert default_s_spacing(100.0) == pytest.approx(math.pi / 400.0)
    assert default_tolerance(100.0) == pytest.approx(math.pi / 25.0)


def test_comb_peaks_sit_at_even_actions():
    roots = comb_roots(200)
    k_max = roots[-1]
    s = np.arange(0.5, 6.5, default_s_spacing(k_max))
    prof = fourier_transform(roots, s)
    peaks = detect_peaks(prof, 0.5)
    assert len(peaks) == 3
    assert np.allclose(peaks, [2.0, 4.0, 6.0], atol=1e-4)


def test_side_lobes_are_suppressed():
    # a sinc skirt around each comb peak rises above 0.05 J; window dominance
    # must still report only the true actions
    roots = comb_roots(200)
    k_max = roots[-1]
    s = np.arange(0.5, 6.5, default_s_spacing(k_max))
    peaks = detect_peaks(fourier_transform(roots, s), 0.05)
    tol = default_tolerance(k_max)
    assert len(peaks) > 0
    for p in peaks:
        assert min(abs(p - a) for a in (2.0, 4.0, 6.0)) < tol


def test_quiet_profile_has_no_peaks():
    roots = comb_roots(120)
    s = np.arange(0.5, 1.8, 0.001)           # interval containing no action
    peaks = detect_peaks(fourier_transform(roots, s), 0.5)
    assert peaks.size == 0


def test_threshold_validation():
    prof = fourier_transform(comb_roots(10), np.linspace(0.5, 3.0, 100))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="threshold_fraction"):
            detect_peaks(prof, bad)


def test_parabolic_refinement_beats_grid_spacing():
    roots = comb_roots(300)
    ds = default_s_spacing(roots[-1])
    s = np.arange(1.7, 2.3, ds) + 0.37 * ds  # put the summit between samples
    peaks = detect_peaks(fourier_transform(roots, s), 0.5)
    assert len(peaks) == 1
    assert abs(peaks[0] - 2.0) < ds / 10


def test_peak_width_halves_with_doubled_window():
    def fwhm(n):
        roots = comb_roots(n)
        s = np.arange(1.9, 2.1, 1e-5)
        mag = fourier_transform(roots, s).magnitude
        half = mag.max() / 2.0
        above = s[mag >= half]
        return above[-1] - above[0]

    ratio = fwhm(150) / fwhm(300)
    assert 2 / 1.3 < ratio < 2.6


def test_match_peaks_assignment():
    report = match_peaks([1.0, 2.0], [1.0002, 5.0], tolerance=0.001)
    assert report.matched_fraction == 0.5
    assert report.pairs[0][1] == pytest.approx(1.0002)
    assert report.pairs[0][2] == pytest.approx(2e-4, rel=1e-6)
    assert math.isnan(report.pairs[1][1])
    assert [p for p, a, _ in report.pairs if math.isnan(a)] == [2.0]
    assert report.worst_residual == pytest.approx(2e-4, rel=1e-6)


def test_match_peaks_empty_cases():
    assert match_peaks([], [1.0], 0.1).matched_fraction == 1.0
    report = match_peaks([1.0], [], 0.1)
    assert report.matched_fraction == 0.0
    assert [p for p, a, _ in report.pairs if math.isnan(a)] == [1.0]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 60),
    scale=st.floats(0.5, 5.0),
)
def test_transform_is_scale_covariant(n, scale):
    # stretching all levels by c squeezes the action axis by 1/c
    rng = np.random.default_rng(n)
    roots = np.sort(rng.uniform(1.0, 50.0, n))
    s = np.linspace(0.3, 4.0, 200)
    a = fourier_transform(roots, s).magnitude
    b = fourier_transform(scale * roots, s / scale).magnitude
    assert np.max(np.abs(a - b)) < 1e-9
