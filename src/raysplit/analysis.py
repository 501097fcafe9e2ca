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
af Klinteberg, SIAM J. Sci. Comput. 41, C479 (2019)).  It costs
O(J w + M log M) time and O(J + M) memory for J levels, kernel width w and
grid size M, about twice the number of actions, and agrees with the direct
sum to within 1e-12 J.  The direct sum stays as the exact path for
non-uniform grids and as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FourierProfile",
    "PeakMatchReport",
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
_SPREAD_BLOCK = 4096                      # levels spread per np.add.at
_TWO_PI_LO = 2.4492935982947064e-16      # 2 pi - fl(2 pi)


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

    @property
    def unmatched(self) -> tuple[float, ...]:
        return tuple(p for p, a, _ in self.pairs if np.isnan(a))


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
    if ds is not None and np.allclose(np.diff(s), ds, rtol=1e-9, atol=0.0):
        mag = _magnitude_nufft(k, s, ds)
    else:
        mag = _magnitude_direct(k, s)
    return FourierProfile(
        s_grid=s, magnitude=mag, j_roots=int(k.size), k_max=float(k.max()),
    )


def _magnitude_nufft(k: np.ndarray, s: np.ndarray, ds: float) -> np.ndarray:
    """|F| on the uniform grid s with step ds, by Gaussian gridding.

    With c = n // 2 and p = m - c, F(s_c + p ds) = sum_j w_j e^{-i p x_j}
    where w_j = e^{-i s_c k_j} and x_j = k_j ds mod 2 pi: a type-1 transform
    onto the modes -c <= p < n - c.  That gives F on the exact grid
    s_c + p ds.  The stored floats s_m sit a few ulp off it, and at J levels
    up to k_max that shifts F by up to J k_max ulp(s), so a second transform,
    weighted by k_j, gives dF/ds and moves each value onto s_m.

    Both transforms run in place (numpy >= 2.0 takes out=), their n modes
    are sliced out without an index array, and each grid is freed once its
    modes are taken: the peak memory is the two spread grids plus one FFT's
    scratch, not two more grid-sized outputs.
    """
    n = s.size
    c = n // 2
    size = _fft_length(_OVERSAMPLING * n)
    # level positions k ds size / 2 pi in grid steps: fractional part per
    # level, then each stencil point at an integer offset from it
    scale_hi, scale_lo = _grid_scale(size)
    kds = k * ds
    u = kds * scale_hi
    base = np.floor(u)
    frac = (u - base) + kds * scale_lo
    start = (base % size).astype(np.intp)
    weight = np.exp(-1j * s[c] * k)
    offsets = np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)
    grid = np.zeros(size, dtype=complex)
    slope = np.zeros(size, dtype=complex)
    for i in range(0, k.size, _SPREAD_BLOCK):
        block = slice(i, i + _SPREAD_BLOCK)
        idx = (start[block, None] + offsets) % size
        w = weight[block, None] * np.exp(-(frac[block, None] - offsets) ** 2 / (4.0 * _TAU))
        np.add.at(grid, idx, w)
        np.add.at(slope, idx, w * k[block, None])
    f = _fft_modes(grid, n, c)
    del grid                              # each grid freed once its modes are taken
    slope = _fft_modes(slope, n, c)
    f -= 1j * _grid_offsets(s, c, ds) * slope
    p = np.arange(n) - c
    tau = _TAU * (2.0 * np.pi / size) ** 2
    return np.abs(f) * (np.exp(p * p * tau) / (2.0 * np.sqrt(np.pi * _TAU)))


def _fft_modes(grid: np.ndarray, n: int, c: int) -> np.ndarray:
    """The modes p = -c .. n - c - 1 of the FFT of grid, which is transformed in place."""
    np.fft.fft(grid, out=grid)
    return np.concatenate((grid[grid.size - c:], grid[:n - c]))


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


def _split(a):
    """Veltkamp split a = hi + lo, hi holding the leading 26 bits."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


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
    ds = np.diff(s).min()
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
