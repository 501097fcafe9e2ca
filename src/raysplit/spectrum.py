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

find_roots takes the count from theta(1; k_max), solves for every level in
its index interval by safeguarded Newton steps on theta, polishes it to the
nearest float64 by one Newton step on secular_function(pot), the scaled
psi(1; k), and certifies the list against the staircase bound.
det(1 - S(k)) of the graph module is an independent check; the step's
closed form sin(k Omega) - r sin(k (l1 - l2)) is another, and lives with
the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import ContractFailure, NStepPotential, _split, interface_coefficients

__all__ = [
    "CompletenessError",
    "CompletenessReport",
    "SpectrumResult",
    "secular_function",
    "find_roots",
]

_NEWTON_ITERS = 64
_NEWTON_TOL = 1e-8
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


def _newton(f, k, lo, hi, target, tol):
    """Solve f(k) = target[i] for increasing f, which returns value and slope,
    from k[i] in the bracket [lo[i], hi[i]].

    Each step evaluates f at k, keeps the side of k that holds the root, and
    is done, returning k minus the Newton step, once that step is at most tol
    or too small to move k.  That test comes first, so a rounding-level step
    onto an end cannot start a bisection of the whole bracket.  Otherwise the
    next k is the Newton point if it lies strictly inside the bracket, and
    the midpoint if not.  A simple root ends within about f'' tol^2 / f', a
    root of multiplicity m within (m - 1) tol, each up to the rounding of k;
    after _NEWTON_ITERS steps the current k is returned.  f sees only the
    solves still open, at most _REFINE_BLOCK from find_roots.
    """
    roots = np.empty(len(k))
    todo = np.arange(len(k))
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITERS):
            value, slope = f(k)
            g = value - target
            step = np.divide(g, slope, out=np.zeros_like(g), where=g != 0.0)
            new = k - step
            done = (np.abs(step) <= tol) | (new == k)
            roots[todo[done]] = new[done]
            if done.all():
                return roots
            todo, k, lo, hi, target, g, new = (
                a[~done] for a in (todo, k, lo, hi, target, g, new))
            lo, hi = np.where(g < 0.0, k, lo), np.where(g > 0.0, k, hi)
            k = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
    roots[todo] = k
    return roots


def _prufer_angle(pot: NStepPotential, k, slope=True):
    """theta(1; k) of psi(0) = 0 (module docstring), with slope=True also dtheta/dk.

    The interface remap of phi = theta mod pi is applied as the shift
    arg(1 + r e^{-2 i theta}) = atan2(y, x), with r the interface reflection
    coefficient (beta - beta') / (beta + beta').  The shift is pi-periodic in
    theta, so theta needs no reduction mod pi, and |shift| <= arcsin |r| <
    pi / 2.  Its theta-derivative is (1 - r^2) / (x^2 + y^2) - 1, so the
    slope d = dtheta/dk becomes d (1 - r^2) / (x^2 + y^2) + l across an
    interface and the region of optical length l behind it.
    """
    betas, lengths = pot.betas, pot.lengths
    theta, d = k * lengths[0], lengths[0]
    for beta_l, beta_r, length in zip(betas, betas[1:], lengths[1:]):
        r, _ = interface_coefficients(beta_l, beta_r)
        two = 2.0 * theta
        x, y = 1.0 + r * np.cos(two), -r * np.sin(two)
        theta = theta + np.arctan2(y, x) + k * length
        if slope:
            d = d * (1.0 - r * r) / (x * x + y * y) + length
    return (theta, d) if slope else theta


def _certificate(roots: np.ndarray, slope: float, k_max: float, bound: float):
    """sup_k |N(k) - slope k / pi| over (0, k_max]; the index in roots + [k_max]
    of the first point where it exceeds bound (of the sup, if nowhere); and
    the first i with roots[i + 1] <= roots[i], or None.

    N(k) jumps at the roots and the comparison line is monotone, so the
    supremum is attained just before or just after a root, or at k_max.
    The roots are read _REFINE_BLOCK at a time; np.argmax over the block
    maxima finds the point it would find over the whole list.
    """
    tops, over, unordered = [], None, None
    for i in range(0, len(roots) + 1, _REFINE_BLOCK):
        block = roots[i:i + _REFINE_BLOCK]
        w = slope * block / np.pi
        n = np.arange(i + 1, i + block.size + 1)
        devs = np.maximum(np.abs(n - 1 - w), np.abs(n - w))
        if i + _REFINE_BLOCK > len(roots):
            devs = np.append(devs, abs(len(roots) - slope * k_max / np.pi))
        j = int(np.argmax(devs))
        tops.append((float(devs[j]), i + j))
        if over is None and (hit := np.flatnonzero(devs > bound)).size:
            over = i + int(hit[0])
        after = roots[i + 1:i + _REFINE_BLOCK + 1]
        if unordered is None and (hit := np.flatnonzero(after <= block[:after.size])).size:
            unordered = i + int(hit[0])
    sup, at = tops[int(np.argmax([dev for dev, _ in tops]))]
    return sup, at if over is None else over, unordered


def find_roots(pot: NStepPotential, k_max: float) -> SpectrumResult:
    """All levels in (0, k_max] of an N-region chain.

    Levels n <= floor(theta(1; k_max) / pi) + 1, one past the rounded count,
    are solved and those <= k_max kept.  Level n is the root of
    theta(1; k) - n pi in its index interval (module docstring), solved for
    from the Weyl point n pi / Omega until a step is at most _NEWTON_TOL of
    pi / Omega.  One Newton step on secular_function(pot), whose value and
    slope _chain_psi returns in one pass over each block with the phases
    k l_i taken exactly, then makes each root the float64 nearest the level
    of pot as stored: |k - k_n| <= ulp(k) / 2 + 2e-15, where the absolute
    term is the rounding of sin and cos at small k.  Roots listed as
    near-degenerate in the report sit where secular_function(pot) is flat.

    Levels are solved, polished, kept and certified _REFINE_BLOCK at a time,
    so the working memory besides the returned roots is O(_REFINE_BLOCK).

    k = 0 is never returned.  Raises ValueError unless 0 < k_max < inf, and
    CompletenessError (with the offending interval) when the roots are not
    strictly increasing or their staircase deviation exceeds the bound
    1 + (N - 1) / 2.
    """
    if not (k_max > 0 and np.isfinite(k_max)):
        raise ValueError(f"k_max must be finite and positive, got {k_max!r}")
    omega = pot.total_length
    half = 0.5 * (len(pot.lengths) - 1)
    theta = partial(_prufer_angle, pot)
    count = int(theta(float(k_max), slope=False) // np.pi) + 1
    spacing = np.pi / omega
    roots, near, kept = np.empty(count), [], 0
    for i in range(0, count, _REFINE_BLOCK):
        n = np.arange(i + 1, min(count, i + _REFINE_BLOCK) + 1)
        k = _newton(theta, n * spacing, np.maximum((n - half) * spacing, 0.0),
                    (n + half) * spacing, n * np.pi, _NEWTON_TOL * spacing)
        # theta(1; k) carries a few ulp(Omega k) of rounding and grows at least
        # as fast as k l_N (the last region is never damped by an interface),
        # so a level lies within about _POLISH_ULP ulp(Omega k) / l_N of its
        # theta root.  A longer Newton step is the noise of a flat f: dropped.
        value, slopes = _chain_psi(pot, k)
        step = value / slopes
        window = _POLISH_ULP * np.spacing(omega * k) / pot.lengths[-1]
        k = np.where(np.abs(step) <= window, k - step, k)
        below = k <= k_max
        near.extend(float(x) for x in k[below & (np.abs(slopes) < _DEGENERATE_SLOPE)])
        k = k[below]
        roots[kept:kept + k.size] = k
        kept += k.size
    roots = roots[:kept]

    bound = 1.0 + half
    # the free well (N = 1) attains the bound as a supremum just below each root
    slack = _CERTIFICATE_ULP * np.spacing(omega * k_max / np.pi)
    dev, i, unordered = _certificate(roots, omega, k_max, bound + slack)
    if unordered is not None or dev > bound + slack:
        if unordered is not None:
            i = unordered
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
        near_degenerate=tuple(near),
        rescans=0,
    )
    return SpectrumResult(roots=roots, k_max=float(k_max), completeness=report)


def secular_function(pot: NStepPotential):
    """A real function of k whose zeros are exactly the levels of pot.

    It is c psi(1; k) of the solution with psi(0) = 0, scaled so that it
    equals det(1 - S(k)) turned onto the real axis, up to a sign
    (_chain_psi); for a single step it is 2 (sin(k Omega) - r sin(k (l1 - l2))).
    It is evaluated value only, _REFINE_BLOCK wavenumbers at a time so its
    temporaries stay bounded, with the exact phases of the polish, so at a
    root it measures the rounding of the root and not that of k l_i.
    find_roots polishes each root by one Newton step on it and flags
    near-degenerate roots by its slope; the spectrum subcommand reports |f|
    at each root as the residual.
    """
    def f(k):
        k = np.asarray(k, dtype=float)
        flat, out = k.reshape(-1), np.empty(k.size)
        for i in range(0, k.size, _REFINE_BLOCK):
            out[i:i + _REFINE_BLOCK] = _chain_psi(pot, flat[i:i + _REFINE_BLOCK], slope=False)
        return out.reshape(k.shape)[()]
    return f


def _chain_psi(pot: NStepPotential, k, slope=True):
    """c psi(1; k), with slope=True also its exact k-derivative, by transfer matrices.

    psi solves -psi'' = q^2 psi, q = beta_i k in region i, with psi(0) = 0
    and psi'(0) = beta_1 k.  Across region i the pair w = (psi, psi' / q)
    turns by the angle k l_i, and at an interface psi' / q is multiplied by
    beta_i / beta_{i+1}.  The derivative rides along as
    d/dk [R(k l) w] = R(k l) (dw + l J w), J (u, v) = (v, -u).  With
    c = 2 prod (1 - r_i) over the interface reflection coefficients,
    c psi(1; k) = (-1)^(N - 1) Re[e^{-i (2 Omega k + theta0 + pi d) / 2} det(1 - S(k))]
    for N regions, d = 2N and theta0 = arg det S(0), so the near-degenerate
    slope threshold keeps the scale it was set on.

    Each angle k l_i is the double-double h + e of Dekker's two-product
    (Numer. Math. 18, 224 (1971)), turned by sin h + e cos h and
    cos h - e sin h, exact to e^2.  A rounded k l_i would move a root at k by
    up to about ulp(k l_i) / l_i, a sizeable share of ulp(k).
    """
    betas = pot.betas
    scale, u, v, du, dv = 2.0, 0.0, 1.0, 0.0, 0.0
    k_hi, k_lo = _split(k)
    # region 1 is entered through a trivial interface: r = 0, ratio 1
    for beta_l, beta_r, length in zip(betas[:1] + betas, betas, pot.lengths):
        r, _ = interface_coefficients(beta_l, beta_r)
        scale *= 1.0 - r
        ratio = beta_l / beta_r
        v, dv = ratio * v, ratio * dv
        h = k * length
        l_hi, l_lo = _split(length)
        e = ((k_hi * l_hi - h) + k_hi * l_lo + k_lo * l_hi) + k_lo * l_lo
        s, c = np.sin(h), np.cos(h)
        s, c = s + e * c, c - e * s
        if slope:
            du, dv = du + length * v, dv - length * u
            du, dv = c * du + s * dv, c * dv - s * du
        u, v = c * u + s * v, c * v - s * u
    return (scale * u, scale * du) if slope else scale * u
