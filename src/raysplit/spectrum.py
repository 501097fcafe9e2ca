"""Exact quantization condition and complete root finding.

The spectrum of an N-region chain, the single step included as its
two-region member, is the positive zero set of psi(1; k) for the solution
psi with psi(0) = 0.  It is found from one monotone function instead of a
scan.  Take that solution and its Pruefer angle
theta(x; k) = atan2(q psi, psi'), where q = beta_i k is the local
wavenumber.  Across region i, theta grows by q times the width, that is by
k l_i.  At an interface psi and psi' are continuous, so phi = theta mod pi
is remapped by
phi -> atan2(beta' sin phi, beta cos phi), which is increasing and keeps the
quadrant of phi; it moves theta by less than pi / 2.  Hence, with
Omega = sum l_i:

- theta(1; k) is strictly increasing in k, and the n-th level k_n is the one
  solution of theta(1; k) = n pi (Sturm oscillation);
- |theta(1; k) - Omega k| < (N - 1) pi / 2, so k_n lies in its index
  interval [(n - (N - 1) / 2) pi / Omega, (n + (N - 1) / 2) pi / Omega];
- the level count is N(k) = floor(theta(1; k) / pi) exactly, and the
  staircase obeys |N(k) - Omega k / pi| < 1 + (N - 1) / 2.

find_roots takes the count from theta(1; k_max), refines every level in its
index interval by Illinois regula falsi, polishes it by one Newton step on
secular_function(pot), the scaled psi(1; k), and certifies the list against
the staircase bound.  det(1 - S(k)) of the graph module and the step's closed
form secular(k) = sin(k Omega) - r sin(k (l1 - l2)) are left to the tests as
independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import ContractFailure, NStepPotential, interface_coefficients, step_parameters

__all__ = [
    "CompletenessError",
    "CompletenessReport",
    "SpectrumResult",
    "secular",
    "secular_function",
    "matching_determinant",
    "weyl_count",
    "find_roots",
]

_ILLINOIS_ITERS = 40
_DEGENERATE_SLOPE = 1e-8
_REFINE_BLOCK = 4096
_POLISH_ULP = 4
_CERTIFICATE_ULP = 4


class CompletenessError(ContractFailure):
    """Raised when the returned roots break the Sturm-Pruefer certificate.

    That is, when they are not strictly increasing or their staircase leaves
    the bound of the CompletenessReport.  Carries the offending k interval
    and the measured staircase deviation so the failure is auditable rather
    than a silently wrong spectrum.
    """

    def __init__(self, message: str, interval: tuple[float, float], deviation: float):
        super().__init__(message)
        self.interval = interval
        self.deviation = deviation


@dataclass(frozen=True)
class CompletenessReport:
    """Diagnostics certifying the returned root list.

    max_staircase_deviation is sup |N(k) - Omega k / pi| over (0, k_max], and
    tolerance its bound 1 + (N - 1) / 2 for N regions, a theorem:
    N(k) = floor(theta(1; k) / pi) lies within 1 of theta(1; k) / pi, and
    theta(1; k) within (N - 1) pi / 2 of Omega k (module docstring).
    near_degenerate lists roots where secular_function(pot), the scaled
    psi(1; k) for every potential, has a slope below 1e-8 in magnitude.
    rescans is always 0: every level is found in its own interval.
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


def secular(pot: NStepPotential, k):
    """sin(k (l1 + l2)) - r sin(k (l1 - l2)) of a single step; zero exactly on
    its spectrum.  The closed form the tests check secular_function against."""
    l1, l2, r, _ = step_parameters(pot)
    k = np.asarray(k, dtype=float) if np.ndim(k) else k
    return np.sin(k * (l1 + l2)) - r * np.sin(k * (l1 - l2))


def matching_determinant(pot: NStepPotential, k):
    """Wavefunction-matching form of the quantization condition of a single step,

        cos(k l1) sin(k l2) + (beta_2 / beta_1) sin(k l1) cos(k l2)

    with beta_2 / beta_1 = (1 - r) / (1 + r).  Derived by joining sine
    solutions at the step, so it is an independent route to the same zero
    set: it equals secular / (1 + r).
    """
    l1, l2, r, _ = step_parameters(pot)
    k = np.asarray(k, dtype=float)
    out = np.cos(k * l1) * np.sin(k * l2) + (1.0 - r) / (1.0 + r) * np.sin(k * l1) * np.cos(k * l2)
    return out if out.ndim else float(out)


def weyl_count(pot: NStepPotential, k):
    """Average staircase total_length * k / pi, the smooth part of the counting."""
    return pot.total_length * np.asarray(k, dtype=float) / np.pi


def _illinois(f, lo, hi, flo, fhi, target):
    """Refine every bracket to adjacent floats by Illinois regula falsi.

    The function refined on bracket i is f(k) - target[i], and flo, fhi are
    its values at the ends.  Each step evaluates it at the secant point of
    the bracket, with the Illinois modification (Dowell & Jarratt, BIT 11,
    168 (1971)): an end kept by two secant steps running has its value
    halved, which gives superlinear convergence from both sides.  A secant
    point that rounds onto or past an end is moved one float inside, so the
    bracket shrinks at every step and a root already found to rounding level
    costs one more evaluation; a NaN secant point, and every step after
    _ILLINOIS_ITERS, takes the midpoint instead.  A bracket is done when its
    midpoint equals an end (the ends are adjacent floats) or f is exactly 0
    at a trial point; its midpoint is returned.

    f is evaluated only on the brackets still open.  find_roots passes at
    most _REFINE_BLOCK brackets, which bounds the temporaries of each step
    (the trial points, f values and masks).
    """
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
                todo, lo, hi, flo, fhi, target, kept, mid = (
                    a[~done] for a in (todo, lo, hi, flo, fhi, target, kept, mid))
            if step < _ILLINOIS_ITERS:
                x = lo - flo * (hi - lo) / (fhi - flo)
                secant = ~np.isnan(x)
                x = np.where(secant, x, mid)
                # nextafter only where needed: it costs as much as f on a block
                low, high = x <= lo, x >= hi
                if low.any():
                    x[low] = np.nextafter(lo[low], hi[low])
                if high.any():
                    x[high] = np.nextafter(hi[high], lo[high])
            else:
                secant = np.zeros(len(todo), dtype=bool)
                x = mid
            step += 1
            fx = np.asarray(f(x), dtype=float) - target
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


def _prufer_angle(pot: NStepPotential, k):
    """theta(1; k) of the solution with psi(0) = 0, see the module docstring.

    The interface remap of phi = theta mod pi is applied as the shift
    arg(1 + r e^{-2 i theta}), with r the interface reflection coefficient
    (beta - beta') / (beta + beta').  The shift is pi-periodic in theta, so
    theta needs no reduction mod pi, and |shift| <= arcsin |r| < pi / 2.
    """
    betas, lengths = pot.betas, pot.lengths
    theta = k * lengths[0]
    for beta_l, beta_r, length in zip(betas, betas[1:], lengths[1:]):
        r, _ = interface_coefficients(beta_l, beta_r)
        two = 2.0 * theta
        theta = theta + np.arctan2(-r * np.sin(two), 1.0 + r * np.cos(two)) + k * length
    return theta


def _staircase_deviation(roots: np.ndarray, slope: float, k_max: float, bound: float):
    """sup_k |N(k) - slope k / pi| over (0, k_max], and the index in
    roots + [k_max] of the first point where it exceeds bound (of the sup,
    if nowhere).

    N(k) jumps at the roots and the comparison line is monotone, so the
    supremum is attained just before or just after a root, or at k_max.
    """
    w = slope * roots / np.pi
    n = np.arange(1, len(roots) + 1)
    devs = np.append(np.maximum(np.abs(n - 1 - w), np.abs(n - w)),
                     abs(len(roots) - slope * k_max / np.pi))
    over = np.flatnonzero(devs > bound)
    return float(devs.max()), int(over[0] if over.size else np.argmax(devs))


def find_roots(pot: NStepPotential, k_max: float) -> SpectrumResult:
    """All levels in (0, k_max] of an N-region chain.

    The count is floor(theta(1; k_max) / pi), and level n is the root of
    theta(1; k) - n pi in its index interval (module docstring), refined to
    adjacent floats by Illinois regula falsi and polished by one Newton step
    on secular_function(pot), whose value and slope _chain_psi returns in
    one pass over each block.  The single step takes the same path as any
    chain.  Roots are accurate to a few ulp of k, the float64 limit, since
    k * l_i is itself rounded; on the l1 = l2 comb they lie within 4 ulp of
    n pi / (l1 + l2) for k_max up to 1e6.  Roots listed as near-degenerate
    in the report sit where secular_function(pot) is flat.

    k = 0 is never returned.  Raises ValueError unless 0 < k_max < inf, and
    CompletenessError (with the offending interval) when the roots are not
    strictly increasing or their staircase deviation exceeds the bound
    1 + (N - 1) / 2.
    """
    if not (k_max > 0 and np.isfinite(k_max)):
        raise ValueError(f"k_max must be finite and positive, got {k_max!r}")
    omega = pot.total_length
    width = len(pot.lengths) - 1
    half = 0.5 * width
    theta = partial(_prufer_angle, pot)
    count = int(theta(float(k_max)) // np.pi)
    roots, near = np.empty(count), []
    for i in range(0, count, _REFINE_BLOCK):
        n = np.arange(i + 1, min(count, i + _REFINE_BLOCK) + 1)
        # the interval ends (n -/+ half) pi / Omega lie on one grid, shared
        ends = np.maximum((np.arange(len(n) + width) + (n[0] - half)) * (np.pi / omega), 0.0)
        g, target = theta(ends), n * np.pi
        k = _illinois(theta, ends[:len(n)], ends[width:],
                      g[:len(n)] - target, g[width:] - target, target)
        # theta(1; k) carries a few ulp(Omega k) of rounding and grows at least
        # as fast as k l_N (the last region is never damped by an interface),
        # so a level lies within about _POLISH_ULP ulp(Omega k) / l_N of its
        # theta root.  A longer Newton step is the noise of a flat f: dropped.
        value, slopes = _chain_psi(pot, k)
        step = value / slopes
        window = _POLISH_ULP * np.spacing(omega * k) / pot.lengths[-1]
        roots[n - 1] = np.where(np.abs(step) <= window, k - step, k)
        near.extend(roots[n - 1][np.abs(slopes) < _DEGENERATE_SLOPE])
    roots = roots[roots <= k_max]
    near = tuple(float(x) for x in near if x <= k_max)

    bound = 1.0 + half
    # the free well (N = 1) attains the bound as a supremum just below each root
    slack = _CERTIFICATE_ULP * np.spacing(omega * k_max / np.pi)
    dev, i = _staircase_deviation(roots, omega, k_max, bound + slack)
    unordered = np.flatnonzero(np.diff(roots) <= 0.0)
    if unordered.size or dev > bound + slack:
        if unordered.size:
            i = unordered[0]
            what = "roots are not strictly increasing"
        else:
            what = f"staircase deviates by {dev:.3f} (> {bound:g})"
        where = float(roots[i]) if i < len(roots) else float(k_max)
        # the gap that ends at the violation is where a level went missing
        raise CompletenessError(
            f"{what} near k = {where:.6g}",
            interval=(float(roots[i - 1]) if i else 0.0, where),
            deviation=dev,
        )
    report = CompletenessReport(
        max_staircase_deviation=dev,
        tolerance=bound,
        near_degenerate=near,
        rescans=0,
    )
    return SpectrumResult(roots=roots, k_max=float(k_max), completeness=report)


def secular_function(pot: NStepPotential):
    """A real function of k whose zeros are exactly the levels of pot.

    It is c psi(1; k) of the solution with psi(0) = 0, scaled so that it
    equals det(1 - S(k)) turned onto the real axis, up to a sign
    (_chain_psi); for a single step it is 2 secular.  It is evaluated
    _REFINE_BLOCK wavenumbers at a time, so its temporaries stay bounded.
    find_roots polishes each root by one Newton step on it and flags
    near-degenerate roots by its slope; the spectrum subcommand reports |f|
    at each root as the residual.
    """
    def f(k):
        k = np.asarray(k, dtype=float)
        flat, out = k.reshape(-1), np.empty(k.size)
        for i in range(0, k.size, _REFINE_BLOCK):
            out[i:i + _REFINE_BLOCK] = _chain_psi(pot, flat[i:i + _REFINE_BLOCK])[0]
        return out.reshape(k.shape)[()]
    return f


def _chain_psi(pot: NStepPotential, k):
    """c psi(1; k) and its exact k-derivative, by transfer matrices.

    psi solves -psi'' = q^2 psi, q = beta_i k in region i, with psi(0) = 0
    and psi'(0) = beta_1 k.  Across region i the pair w = (psi, psi' / q)
    turns by the angle k l_i, and at an interface psi' / q is multiplied by
    beta_i / beta_{i+1}.  The derivative rides along as
    d/dk [R(k l) w] = R(k l) (dw + l J w), J (u, v) = (v, -u).  With
    c = 2 prod (1 - r_i) over the interface reflection coefficients,
    c psi(1; k) = (-1)^(N - 1) Re[e^{-i (2 Omega k + theta0 + pi d) / 2} det(1 - S(k))]
    for N regions, d = 2N and theta0 = arg det S(0), so the near-degenerate
    slope threshold keeps the scale it was set on.
    """
    betas = pot.betas
    scale, u, v, du, dv = 2.0, 0.0, 1.0, 0.0, 0.0
    # region 1 is entered through a trivial interface: r = 0, ratio 1
    for beta_l, beta_r, length in zip(betas[:1] + betas, betas, pot.lengths):
        r, _ = interface_coefficients(beta_l, beta_r)
        scale *= 1.0 - r
        ratio = beta_l / beta_r
        v, dv = ratio * v, ratio * dv
        c, s = np.cos(k * length), np.sin(k * length)
        du, dv = du + length * v, dv - length * u
        u, v, du, dv = c * u + s * v, c * v - s * u, c * du + s * dv, c * dv - s * du
    return scale * u, scale * du
