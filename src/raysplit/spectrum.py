"""Exact quantization condition and complete root finding.

The spectrum of a single scaled step is the positive zero set of

    secular(k) = sin(k omega1) - r sin(k omega2),

an almost-periodic function with mean zero spacing pi/omega1.  Roots are
isolated by a uniform sign-change scan oversampling that spacing, evaluated
in chunks of bounded size, refined to adjacent floats by Illinois regula
falsi plus one Newton step, and certified against the Weyl average
staircase: any deficit triggers progressively finer rescans before failing
loudly.  N-region chains use det(1 - S(k)) rotated onto the real axis so the
same sign-change machinery applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .model import NStepPotential, ScaledStepPotential

__all__ = [
    "CompletenessError",
    "CompletenessReport",
    "SpectrumResult",
    "secular",
    "secular_slope",
    "matching_determinant",
    "weyl_count",
    "find_roots",
    "nstep_find_roots",
]

STAIRCASE_TOLERANCE = 1.5
_ILLINOIS_ITERS = 40
_MAX_RESCANS = 4
_DEGENERATE_SLOPE = 1e-8
_REFINE_BLOCK = 4096
_SCAN_CHUNK = 65536
_DUPLICATE_ULP = 4


class CompletenessError(RuntimeError):
    """Raised when the root list stays short of the Weyl bound after rescans.

    Carries the offending k interval and the measured staircase deviation so
    the failure is auditable rather than a silently truncated spectrum.
    """

    def __init__(self, message: str, interval: tuple[float, float], deviation: float):
        super().__init__(message)
        self.interval = interval
        self.deviation = deviation


@dataclass(frozen=True)
class CompletenessReport:
    """Diagnostics certifying the returned root list.

    max_staircase_deviation is sup |N(k) - slope * k / pi| over the scanned
    range, bounded by tolerance (an engineering margin covering the constant
    -1/2 offset plus oscillation, not a theorem).  near_degenerate lists roots
    whose secular slope is below 1e-8 in magnitude; rescans counts how many
    times the scan step was halved.
    """

    max_staircase_deviation: float
    tolerance: float
    near_degenerate: tuple[float, ...]
    rescans: int


@dataclass(frozen=True)
class SpectrumResult:
    roots: np.ndarray
    k_max: float
    completeness: CompletenessReport

    @property
    def energies(self) -> np.ndarray:
        return self.roots ** 2


def secular(pot: ScaledStepPotential, k):
    """sin(k omega1) - r sin(k omega2); zero exactly on the spectrum."""
    k = np.asarray(k, dtype=float) if np.ndim(k) else k
    return np.sin(k * pot.omega1) - pot.r * np.sin(k * pot.omega2)


def secular_slope(pot: ScaledStepPotential, k):
    """d/dk of secular, used for Newton polish and degeneracy flagging."""
    return pot.omega1 * np.cos(k * pot.omega1) - pot.r * pot.omega2 * np.cos(k * pot.omega2)


def matching_determinant(pot: ScaledStepPotential, k):
    """Wavefunction-matching form of the quantization condition,

        cos(k b) sin(kappa (1 - b)) + (kappa / k) sin(k b) cos(kappa (1 - b))

    with kappa = beta k.  Derived by joining sine solutions at the step, so it
    is an independent route to the same zero set: it equals
    (1 + beta) / 2 times secular.  The k -> 0 limit of kappa / k is beta.
    """
    k = np.asarray(k, dtype=float)
    kappa = pot.beta * k
    ratio = np.where(k == 0.0, pot.beta, kappa / np.where(k == 0.0, 1.0, k))
    right = 1.0 - pot.b
    out = np.cos(k * pot.b) * np.sin(kappa * right) + ratio * np.sin(k * pot.b) * np.cos(kappa * right)
    return out if out.ndim else float(out)


def weyl_count(pot: ScaledStepPotential | NStepPotential, k):
    """Average staircase total_length * k / pi, the smooth part of the counting."""
    return pot.total_length * np.asarray(k, dtype=float) / np.pi


def _refine_blocks(f, lo, hi, flo, fhi):
    """Refine every bracket to adjacent floats by Illinois regula falsi.

    Each step evaluates f at the secant point of the bracket, with the
    Illinois modification (Dowell & Jarratt, BIT 11, 168 (1971)): an end
    kept by two secant steps running has its f value halved, which gives
    superlinear convergence from both sides.  A secant point that rounds
    onto or past an end is moved one float inside, so the bracket shrinks at
    every step and a root already found to rounding level costs one more
    evaluation; a NaN secant point, and every step after _ILLINOIS_ITERS,
    takes the midpoint instead.  A bracket is done when its midpoint equals
    an end (the ends are adjacent floats) or f is exactly 0 at a trial
    point; its midpoint is returned.

    Blocks of _REFINE_BLOCK brackets bound the temporaries of each step (the
    trial points, f values and masks) however many brackets there are, and
    f is evaluated only on the brackets of a block still open.
    """
    roots = np.empty(len(lo))
    for i in range(0, len(lo), _REFINE_BLOCK):
        block = slice(i, i + _REFINE_BLOCK)
        roots[block] = _illinois(f, lo[block], hi[block], flo[block], fhi[block])
    return roots


def _illinois(f, lo, hi, flo, fhi):
    """Illinois steps on one block of brackets, see _refine_blocks."""
    roots = np.empty(len(lo))
    todo = np.arange(len(lo))
    kept = np.zeros(len(lo), dtype=np.int8)   # end the last secant step kept: +1 hi, -1 lo
    step = 0
    with np.errstate(all="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            done = (mid == lo) | (mid == hi)
            roots[todo[done]] = mid[done]
            if done.all():
                return roots
            if done.any():
                todo, lo, hi, flo, fhi, kept, mid = (
                    a[~done] for a in (todo, lo, hi, flo, fhi, kept, mid))
            if step < _ILLINOIS_ITERS:
                x = lo - flo * (hi - lo) / (fhi - flo)
                x = np.minimum(np.maximum(x, np.nextafter(lo, hi)), np.nextafter(hi, lo))
                secant = ~np.isnan(x)
                x = np.where(secant, x, mid)
            else:
                secant = np.zeros(len(todo), dtype=bool)
                x = mid
            step += 1
            fx = np.asarray(f(x), dtype=float)
            zero = fx == 0.0
            move_lo = np.sign(fx) == np.sign(flo)
            fhi = np.where(secant & move_lo & (kept == 1), 0.5 * fhi, fhi)
            flo = np.where(secant & ~move_lo & (kept == -1), 0.5 * flo, flo)
            kept = np.where(secant, np.where(move_lo, 1, -1), 0).astype(np.int8)
            # an exact zero closes the bracket onto x
            lo = np.where(move_lo | zero, x, lo)
            hi = np.where(move_lo & ~zero, hi, x)
            flo = np.where(move_lo, fx, flo)
            fhi = np.where(move_lo, fhi, fx)


def _scan_grid(k_lo: float, k_hi: float, h: float):
    """np.arange(k_lo + h / 2, k_hi + h, h) bit for bit, in chunks.

    Chunks hold at most _SCAN_CHUNK points and each starts with the last
    point of the one before, so a sign change across a boundary lies inside
    a chunk.  Like np.arange, point i > 1 is start + i * delta with
    delta = (start + h) - start, and point 1 is start + h.  A grid of fewer
    than two points becomes the one bracket (start, k_hi + h).
    """
    start = k_lo + h / 2
    n = max(0, math.ceil((k_hi + h - start) / h))
    if n < 2:
        yield np.array([start, k_hi + h])
        return
    delta = (start + h) - start
    for i0 in range(0, n - 1, _SCAN_CHUNK - 1):
        grid = start + np.arange(i0, min(n, i0 + _SCAN_CHUNK), dtype=float) * delta
        if i0 == 0:
            grid[1] = start + h
        yield grid


def _scan_interval(f, k_lo: float, k_hi: float, h: float) -> np.ndarray:
    """All sign-change roots of f in (k_lo, k_hi], scan step h.

    Memory is bounded by the chunk and refinement block sizes plus the
    roots themselves, whatever the length of the interval.
    """
    roots = []
    for grid in _scan_grid(k_lo, k_hi, h):
        vals = np.asarray(f(grid), dtype=float)
        # nudge exact grid zeros so every root sits strictly inside a bracket
        zero = vals == 0.0
        if zero.any():
            vals[zero] = f(grid[zero] + h * 1e-9)
        sign = np.sign(vals)
        idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        roots.append(_refine_blocks(f, grid[idx], grid[idx + 1], vals[idx], vals[idx + 1]))
    roots = np.concatenate(roots)
    return roots[(roots > 1e-9) & (roots <= k_hi)]


def _staircase_deviation(roots: np.ndarray, slope: float, k_max: float):
    """sup_k |N(k) - slope k / pi| over (0, k_max] and the location of the sup.

    N(k) jumps at the roots and the comparison line is monotone, so the
    supremum is attained at a root position or at k_max.
    """
    w = slope * roots / np.pi
    n = np.arange(1, len(roots) + 1)
    devs = np.concatenate([
        np.abs(n - w),                                   # just after each root
        np.abs(n - 1 - w),                               # just before each root
        [abs(len(roots) - slope * k_max / np.pi)],       # tail up to k_max
    ])
    where = np.concatenate([roots, roots, [k_max]])
    i = int(np.argmax(devs))
    return float(devs[i]), float(where[i])


def _merge_duplicates(roots: np.ndarray) -> np.ndarray:
    """Drop a sorted root within _DUPLICATE_ULP ulp of its predecessor.

    Two overlapping scans refine the same root through different brackets
    and may land on neighbouring floats; an absolute tolerance would fall
    below one ulp at large k.
    """
    keep = np.ones(len(roots), dtype=bool)
    keep[1:] = np.diff(roots) > _DUPLICATE_ULP * np.spacing(roots[1:])
    return roots[keep]


def _find_roots_engine(f, slope: float, k_max: float, slope_fn=None) -> SpectrumResult:
    if k_max <= 0:
        raise ValueError(f"k_max must be positive, got {k_max!r}")
    h = np.pi / (20.0 * slope)
    roots = _scan_interval(f, 0.0, k_max, h)
    rescans = 0
    dev, where = _staircase_deviation(roots, slope, k_max)
    while dev > STAIRCASE_TOLERANCE and rescans < _MAX_RESCANS:
        rescans += 1
        h *= 0.5
        pad = 2.0 * np.pi / slope
        lo, hi = max(0.0, where - pad), min(k_max, where + pad)
        extra = _scan_interval(f, lo, hi, h)
        roots = np.unique(np.concatenate([roots, extra]))
        roots = _merge_duplicates(roots)
        dev, where = _staircase_deviation(roots, slope, k_max)
    if dev > STAIRCASE_TOLERANCE:
        lo = max(0.0, where - np.pi / slope)
        hi = min(k_max, where + np.pi / slope)
        raise CompletenessError(
            f"staircase deviates by {dev:.3f} (> {STAIRCASE_TOLERANCE}) near "
            f"k = {where:.6g} after {rescans} rescans",
            interval=(lo, hi),
            deviation=dev,
        )
    if slope_fn is not None and len(roots):
        # one Newton polish from analytic slope, kept only when it stays put
        step = np.asarray(f(roots)) / slope_fn(roots)
        polished = roots - step
        roots = np.where(np.abs(step) < h, polished, roots)
        slopes = np.abs(slope_fn(roots))
    else:
        slopes = np.abs(_numeric_slope(f, roots)) if len(roots) else np.empty(0)
    near = tuple(float(x) for x in roots[slopes < _DEGENERATE_SLOPE])
    report = CompletenessReport(
        max_staircase_deviation=dev,
        tolerance=STAIRCASE_TOLERANCE,
        near_degenerate=near,
        rescans=rescans,
    )
    return SpectrumResult(roots=roots, k_max=float(k_max), completeness=report)


def _numeric_slope(f, k: np.ndarray, delta: float = 1e-7) -> np.ndarray:
    return (np.asarray(f(k + delta)) - np.asarray(f(k - delta))) / (2 * delta)


def find_roots(pot: ScaledStepPotential, k_max: float) -> SpectrumResult:
    """All roots of the secular equation in (0, k_max].

    Roots are accurate to a few units in the last place (ulp) of k, the
    float64 limit, since k * omega1 is itself rounded to 2^-53 relative.  On
    the l1 = l2 comb every root lies within 4 ulp (np.spacing(k)) of
    n pi / (l1 + l2): for lambda in {0.3, 0.5, 0.7, 0.9} and k_max up to 1e6
    the largest error is 2.1 ulp, or 2.6e-11 absolute below k = 1e5.  Roots
    listed as near-degenerate in the report sit where the secular function
    is flat and may be less accurate.

    k = 0 solves the secular equation trivially but is not an eigenvalue and
    is always excluded.  Raises CompletenessError (with the offending
    interval) if the Weyl staircase bound cannot be met after four rescans.
    """
    return _find_roots_engine(
        lambda k: secular(pot, k),
        pot.omega1,
        k_max,
        slope_fn=lambda k: secular_slope(pot, k),
    )


def _real_secular_chain(pot: NStepPotential):
    """Rotate det(1 - S(k)) onto the real axis.

    S(k) factors into a k-independent real vertex part T and bond phases, so
    det S(k) = det(T) e^{2 i Omega k} with Omega the total weighted length.
    Unitarity then makes

        xi(k) = Re[ e^{-i (2 Omega k + theta0 + pi d) / 2 } det(1 - S(k)) ]

    (d the matrix dimension, theta0 = arg det T) a real function with exactly
    the zeros of det(1 - S); its sign changes are scannable like secular's.
    """
    dim = 2 * pot.n_regions
    theta0 = np.angle(np.linalg.det(graph.build_smatrix(pot, 0.0)))
    omega = pot.total_length

    def xi(k):
        karr = np.asarray(k, dtype=float)
        d = graph.det_one_minus_s(pot, karr)
        phase = np.exp(-0.5j * (2.0 * omega * karr + theta0 + np.pi * dim))
        out = (phase * d).real
        return out if np.ndim(k) else float(out)

    return xi


def nstep_find_roots(pot: NStepPotential, k_max: float) -> SpectrumResult:
    """Roots of det(1 - S(k)) = 0 for an N-region chain.

    Same contract as find_roots, with Weyl slope sum(l_i) / pi.  For a
    two-region chain this agrees with find_roots root by root.
    """
    if not isinstance(pot, NStepPotential):
        raise TypeError("nstep_find_roots requires an NStepPotential")
    return _find_roots_engine(
        _real_secular_chain(pot),
        pot.total_length,
        k_max,
    )
