"""Fourier spectroscopy of the level sequence.

Summing e^{-i s k_j} over computed levels turns every periodic orbit into a
peak of |F(s)| at its repeated reduced action nu * s0, with width ~ 2 pi
divided by the largest level used.  This is the working diagnostic that the
orbit set is complete: every resolved peak must sit on the predicted action
set, and peaks off the ballistic comb witness the extra orbit families.

On a uniform action grid the sum is a type-1 non-uniform FFT: the levels are
spread onto an oversampled periodic grid with a Gaussian kernel, one FFT
gives every grid mode, and dividing by the kernel's Fourier coefficients
recovers F (Greengard & Lee, SIAM Rev. 46, 443 (2004); Barnett, Magland &
af Klinteberg, SIAM J. Sci. Comput. 41, C479 (2019)).  A large grid of S
actions is cut into B <= 8 bands, each its own transform about its own
centre on a grid of M ~ 2 S / B points.  That costs O(B J w + S log M) time
and O(J + M + C w) memory besides the output, for J levels and kernel width
w: two numbers per level, one grid of M points that each band's value and
slope transforms take in turn, the band's modes, and the stencil of a chunk
of C levels, built afresh for every transform and never stored whole.  The
FFT's plan and scratch, about twice the grid, are held by numpy's C++
pocketfft, where tracemalloc does not see them: one in-place FFT of length
93,750 raises the peak RSS by about 2.8 MB (numpy 2.4).  So the tests bound
the traced memory and the continuous-integration workflow the peak RSS.
It agrees with the direct sum to within 1e-12 J.  The direct sum stays as
the exact path for non-uniform grids and as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import _split

__all__ = [
    "FourierProfile",
    "PeakMatchReport",
    "default_s_spacing",
    "default_tolerance",
    "fourier_transform",
    "detect_peaks",
    "match_peaks",
]

# Gaussian gridding: the spreading grid holds at least _OVERSAMPLING points per
# action, each level spreads onto 2 * _HALF_WIDTH of them, and _TAU is the
# kernel's tau in squared grid steps, Greengard & Lee's M_sp R / (4 pi (R - 1/2))
# for R = _OVERSAMPLING and M_sp = _HALF_WIDTH.  Kernel truncation, aliasing
# and deconvolution then cost a few 1e-15 J.
_OVERSAMPLING = 2
_HALF_WIDTH = 16
_TAU = _HALF_WIDTH * _OVERSAMPLING / (4.0 * np.pi * (_OVERSAMPLING - 0.5))
_BANDS = 8                                # transforms a large action grid is cut into
_BAND_MIN = 1 << 15                       # fewest actions per band when there are several
_TWO_PI_LO = 2.4492935982947064e-16      # 2 pi - fl(2 pi)
_BLOCK = 1 << 15                          # stencil entries, or grid steps, per working array


@dataclass(frozen=True)
class FourierProfile:
    """|F(s)| samples over an action grid, with the level count that scales it."""

    s_grid: np.ndarray
    magnitude: np.ndarray
    j_roots: int
    k_max: float


@dataclass(frozen=True)
class PeakMatchReport:
    """Assignment of detected peaks to candidate actions.

    pairs holds (peak, action or nan, residual) per peak; unmatched peaks
    carry nan and an infinite residual.  worst_residual is over matched pairs.
    """

    pairs: tuple[tuple[float, float, float], ...]
    matched_fraction: float
    worst_residual: float
    tolerance: float


def fourier_transform(roots: Sequence[float], s_grid: Sequence[float]) -> FourierProfile:
    """F(s) = sum_j e^{-i s k_j} evaluated on the grid; stores |F|.

    A uniform grid (at least three points, steps equal to rtol 1e-9) takes
    the type-1 NUFFT, whose magnitudes agree with the direct sum at the same
    floats to within 1e-12 J; any other grid takes the direct sum.
    """
    k = np.asarray(roots, dtype=float)
    if k.size == 0:
        raise ValueError("roots must be non-empty")
    s = np.asarray(s_grid, dtype=float)
    ds = s[1] - s[0] if s.size >= 3 else None
    if ds is not None and all(np.allclose(step, ds, rtol=1e-9, atol=0.0) for step in _steps(s)):
        mag = _magnitude_nufft(k, s, ds)
    else:
        mag = _magnitude_direct(k, s)
    return FourierProfile(
        s_grid=s, magnitude=mag, j_roots=int(k.size), k_max=float(k.max()),
    )


def _magnitude_nufft(k: np.ndarray, s: np.ndarray, ds: float) -> np.ndarray:
    """|F| on the uniform grid s with step ds, by Gaussian gridding in bands.

    The grid is cut into _band_edges(n) bands of equal size, give or take
    one action, each its own transform.  With c = m // 2 for a band of m
    actions centred on s_c = s[lo + c], and p = i - c for its i-th action,
    F(s_c + p ds) = sum_j w_j e^{-i p x_j} where w_j = e^{-i s_c k_j} and
    x_j = k_j ds mod 2 pi: a type-1 transform onto the modes -c <= p < m - c.
    That gives F on the exact grid s_c + p ds.  The stored floats sit a few
    ulp off it, and at J levels up to k_max that shifts F by up to
    J k_max ulp(s), so a second transform, weighted by k_j, gives dF/ds and
    moves each value onto its float.

    Every band has the same FFT length, about twice the largest band, so
    each level's first grid point and fractional offset are found once, one
    grid serves both transforms of every band, and a band changes only the
    phases w_j.  The working memory is those two numbers per level, the
    grid, the band's m value modes, and the stencil of _BLOCK grid points
    that _spread builds at a time: O(J + M) besides the output, however
    many levels share a band.
    """
    n = s.size
    edges = _band_edges(n)
    size = _fft_length(_OVERSAMPLING * max(b - a for a, b in zip(edges, edges[1:])))
    start, frac = _grid_positions(k * ds, size)
    grid = np.empty(size, dtype=complex)
    mag = np.empty(n)
    for lo, hi in zip(edges, edges[1:]):
        _band_magnitude(k, s[lo:hi], ds, start, frac, grid, mag[lo:hi])
    return mag


def _band_magnitude(k, s: np.ndarray, ds: float, start, frac, grid: np.ndarray,
                    out: np.ndarray) -> None:
    """|F| on one band s of the grid, centred on s[c], c = s.size // 2, into out.

    The value transform's modes -c .. m - c - 1 are copied out of the grid
    before the slope transform is spread into it.  The correction
    (1j offsets) times slope modes is formed in place, each product taken
    elementwise as over whole arrays, and |F| is written into out.
    """
    m = s.size
    c = m // 2
    _spread(k, s[c], start, frac, grid, slope=False)
    np.fft.fft(grid, out=grid)
    f = np.concatenate((grid[grid.size - c:], grid[:m - c]))
    _spread(k, s[c], start, frac, grid, slope=True)
    np.fft.fft(grid, out=grid)
    corr = 1j * _grid_offsets(s, c, ds)
    corr[:c] *= grid[grid.size - c:]
    corr[c:] *= grid[:m - c]
    f -= corr
    p = np.arange(m) - c
    tau = _TAU * (2.0 * np.pi / grid.size) ** 2
    np.abs(f, out=out)
    out *= np.exp(p * p * tau) / (2.0 * np.sqrt(np.pi * _TAU))


def _band_edges(n: int) -> list[int]:
    """Start of each band of an n-action grid, then n: up to _BANDS bands of at
    least _BAND_MIN actions each, so a small grid is one band."""
    bands = min(_BANDS, max(1, n // _BAND_MIN))
    return [n * b // bands for b in range(bands + 1)]


def _grid_positions(kds: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """First grid point of each level's stencil on the periodic grid, and the
    level's offset from the point _HALF_WIDTH - 1 after it.

    Level j sits at x_j size / 2 pi grid steps, x_j = k_j ds; its fractional
    part is taken first, then each stencil point lies an integer offset from it.
    """
    scale_hi, scale_lo = _grid_scale(size)
    u = kds * scale_hi
    base = np.floor(u)
    frac = (u - base) + kds * scale_lo
    return ((base % size).astype(np.intp) + (1 - _HALF_WIDTH)) % size, frac


def _spread(k, s_c: float, start, frac, grid: np.ndarray, slope: bool) -> None:
    """Spread e^{-i s_c k_j}, or k_j e^{-i s_c k_j} when slope, onto grid over
    the 2 _HALF_WIDTH Gaussian-weighted grid points of level j.

    The stencil is built for _BLOCK grid points of consecutive levels at a
    time.  Each part of a real weight times a complex phase is rounded once,
    as a product of reals, and np.add.at adds in stencil order, as one
    np.bincount over the whole stencil would: the sums are the same floats.
    """
    size = grid.size
    grid.fill(0.0)
    steps = np.arange(2 * _HALF_WIDTH)
    chunk = _BLOCK // steps.size
    for i in range(0, k.size, chunk):
        idx = start[i:i + chunk, None] + steps
        np.remainder(idx, size, out=idx, where=idx >= size)
        gauss = frac[i:i + chunk, None] - (steps + (1 - _HALF_WIDTH))
        # exp(-x^2 / 4 tau), the sign taken by the divisor: rounding is symmetric
        np.exp(np.divide(np.square(gauss, out=gauss), -4.0 * _TAU, out=gauss), out=gauss)
        weight = np.exp(-1j * s_c * k[i:i + chunk])
        if slope:
            weight *= k[i:i + chunk]
        np.add.at(grid, idx.ravel(), (gauss * weight[:, None]).ravel())


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _grid_scale(size: int) -> tuple[float, float]:
    """size / 2 pi as hi + lo, to about twice double precision.

    A one-ulp error in this scale shifts every level by the same relative
    amount and adds up coherently over the levels, so it is carried on.
    """
    two_pi = 2.0 * np.pi
    hi = size / two_pi
    (h1, h2), (t1, t2) = _split(hi), _split(two_pi)
    prod = hi * two_pi
    err = ((h1 * t1 - prod) + h1 * t2 + h2 * t1) + h2 * t2   # hi 2pi = prod + err
    return hi, ((size - prod) - err - hi * _TWO_PI_LO) / two_pi


def _grid_offsets(s: np.ndarray, c: int, ds: float) -> np.ndarray:
    """s - (s[c] + p ds) for p = m - c, the exact grid subtracted unrounded.

    p ds_hi is exact while |p| < 2^26; a two-sum keeps s[c] + p ds_hi
    as a + b, and s - a is exact because both lie within a few ulp.
    """
    ds_hi, ds_lo = _split(ds)
    p = np.arange(s.size) - c
    y = p * ds_hi
    a = s[c] + y
    z = a - s[c]
    b = (s[c] - (a - z)) + (y - z)
    return (s - a) - (b + p * ds_lo)


def _steps(s: np.ndarray):
    """np.diff(s) in consecutive pieces of up to _BLOCK steps."""
    return (np.diff(s[i:i + _BLOCK + 1]) for i in range(0, s.size - 1, _BLOCK))


def _magnitude_direct(k: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty(s.size)
    chunk = max(1, 4_000_000 // max(1, k.size))
    for i in range(0, s.size, chunk):
        out[i:i + chunk] = np.abs(np.exp(-1j * np.outer(s[i:i + chunk], k)).sum(axis=1))
    return out


def default_s_spacing(k_max: float) -> float:
    """Grid step pi / (4 k_max): at least eight samples across every peak."""
    return np.pi / (4.0 * k_max)


def default_tolerance(k_max: float) -> float:
    """Matching tolerance 4 pi / k_max, two Fourier resolution widths."""
    return 4.0 * np.pi / k_max


def detect_peaks(profile: FourierProfile, threshold_fraction: float) -> np.ndarray:
    """Positions of |F| peaks above threshold_fraction * j_roots.

    A sample counts as a peak when it beats its neighbours and every sample
    within the matching tolerance 4 pi / k_max on either side.  The
    window matters: an isolated strong peak carries a sinc-like skirt whose
    first side lobes exceed small thresholds, but every side lobe is
    dominated by a taller sample one resolution width closer to the summit,
    so requiring window dominance removes them at any k_max without touching
    genuinely separate orbit peaks.  Positions are refined by parabolic
    interpolation through the three samples around each summit.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError(
            f"threshold_fraction must lie in (0, 1), got {threshold_fraction!r}"
        )
    mag, s = profile.magnitude, profile.s_grid
    floor = threshold_fraction * profile.j_roots
    inner = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]) & (mag[1:-1] >= floor)
    candidates = np.where(inner)[0] + 1
    if candidates.size == 0:
        return np.empty(0)
    ds = np.min([step.min() for step in _steps(s)])
    win = max(1, int(np.ceil(default_tolerance(profile.k_max) / ds)))
    peaks = []
    for i in candidates:
        lo, hi = max(0, i - win), min(mag.size, i + win + 1)
        if mag[i] < mag[lo:hi].max():
            continue
        y0, y1, y2 = mag[i - 1], mag[i], mag[i + 1]
        curv = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / curv if curv != 0.0 else 0.0
        peaks.append(s[i] + shift * (s[i + 1] - s[i]))
    return np.asarray(peaks)


def match_peaks(
    peaks: Sequence[float],
    actions: Sequence[float],
    tolerance: float,
) -> PeakMatchReport:
    """Assign each peak to the nearest candidate action within tolerance."""
    pk = np.asarray(peaks, dtype=float)
    acts = np.asarray(actions, dtype=float)
    pairs = []
    matched = 0
    worst = 0.0
    for p in pk:
        if acts.size:
            j = int(np.argmin(np.abs(acts - p)))
            resid = abs(acts[j] - p)
        else:
            resid = np.inf
        if resid <= tolerance:
            pairs.append((float(p), float(acts[j]), float(resid)))
            matched += 1
            worst = max(worst, resid)
        else:
            pairs.append((float(p), float("nan"), float("inf")))
    fraction = matched / len(pk) if len(pk) else 1.0
    return PeakMatchReport(
        pairs=tuple(pairs),
        matched_fraction=fraction,
        worst_residual=worst,
        tolerance=tolerance,
    )
