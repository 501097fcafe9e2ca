"""Level-density reconstruction from periodic orbits.

The oscillating part of the density of states is a sum over primitive orbits
and their repetitions, each contributing its period times the nu-th power of
a stability amplitude at phase nu * s0 * k.  Because the amplitudes decay
geometrically in nu, the repetition sum closes into a geometric form, and the
same data assembles into a spectral determinant whose zeros track the exact
levels.  Everything here is evaluated as a function of k while keeping the
energy-domain measure rho(E) dE; multiply by dE/dk = 2k for plots in k.

This module is the orbit picture.  Its exact statement is trace_formula: the
traces Tr S(k)^{2n} of the graph's scattering matrix (graph.trace_powers, the
matrix picture) are sums over primitive orbits and their repetitions.  An
orbit enters these sums only through its action and amplitude, which depend
on its length, R count and transmission count alone, so trace_formula,
rho_trace, rho_resummed, zeta and cycle_expansion take orbit classes
(orbits.orbit_classes; one orbit alone is a class of multiplicity 1) and
weight each class term by its multiplicity.  The cycle expansion of the
step's determinant terminates: each directed bond enters a determinant term
at most once, so its exact integer cells stop at degree 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import NStepPotential
from .orbits import OrbitClass, amplitude

__all__ = [
    "DensityProfile",
    "trace_formula",
    "rho_trace",
    "rho_resummed",
    "newtonian_prediction",
    "zeta",
    "cycle_expansion",
]

_POLE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class DensityProfile:
    """Sampled density reconstruction with its truncation descriptor."""

    k_grid: np.ndarray
    values: np.ndarray
    truncation: str
    nu_max: int | None
    eta: float


def _weyl_density(pot, k: np.ndarray) -> np.ndarray:
    return pot.total_length / (2.0 * np.pi * k)


def _check_args(k_grid, eta: float, domain: str) -> np.ndarray:
    if domain not in ("energy", "k"):
        raise ValueError(f"domain must be 'energy' or 'k', got {domain!r}")
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")
    k = np.asarray(k_grid, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("k_grid must be strictly positive (k = 0 is singular)")
    return k


def _phases(orbits: Sequence[OrbitClass], kc):
    """Each class with e^{i s0 kc}, taken once per run of classes of equal s0."""
    s0 = phase = None
    for cls in orbits:
        if cls.s0 != s0:
            s0, phase = cls.s0, np.exp(1j * cls.s0 * kc)
        yield cls, phase


def trace_formula(pot: NStepPotential, orbits: Sequence[OrbitClass], k) -> np.ndarray:
    """Tr S(k)^{2n} for n = 1..L from orbit classes, L the longest class given.

    Tr S^{2n} = sum over classes p with n_p | n of 2 n_p m_p (A_p e^{i s0_p k})^{n / n_p}:
    each of the n_p rotations of a primitive word, entered in both directions,
    starts one closed bond sequence.  Over orbit_classes(pot, L) this is
    exact for every n <= L.  Returns shape (L,) + shape(k); row n - 1 holds
    Tr S^{2n}.
    """
    karr = np.asarray(k)
    longest = max((cls.length for cls in orbits), default=0)
    sums = np.zeros((longest,) + karr.shape, dtype=complex)
    groups = {}
    for cls in orbits:
        amp, weight = amplitude(cls, pot), 2 * cls.length * cls.multiplicity
        coeffs = groups.setdefault((cls.length, cls.s0), [0.0] * (longest // cls.length))
        for q in range(len(coeffs)):
            coeffs[q] += weight * amp ** (q + 1)
    for (length, s0), coeffs in groups.items():
        z = term = np.exp(1j * s0 * karr)
        for n, coeff in zip(range(length, longest + 1, length), coeffs):
            sums[n - 1] += coeff * term
            term = term * z
    return sums


def rho_trace(
    pot: NStepPotential,
    orbits: Sequence[OrbitClass],
    nu_max: int,
    k_grid: Sequence[float],
    eta: float = 0.0,
    domain: str = "energy",
) -> DensityProfile:
    """Orbit-sum density: weyl + (1/pi) Re sum_p T_p sum_nu A^nu e^{i nu s0 k}.

    The sum over primitive orbits p runs over classes, each term weighted by
    the class multiplicity.  T_p = s0 / (2k) is the energy-domain period.
    eta >= 0 evaluates the oscillating phases at k + i eta; eta > 0 trades
    peak sharpness for smoothness.  domain "energy" returns rho(E) samples on
    the k grid; "k" multiplies by dE/dk = 2k.
    """
    if nu_max < 1:
        raise ValueError(f"nu_max must be >= 1, got {nu_max!r}")
    k = _check_args(k_grid, eta, domain)
    rho = _weyl_density(pot, k).astype(complex)
    kc = k + 1j * eta
    for cls, phase in _phases(orbits, kc):
        term = base = amplitude(cls, pot) * phase
        total = np.zeros_like(kc)
        for _ in range(nu_max):
            total += term
            term = term * base
        rho += (cls.multiplicity * cls.s0 / (2.0 * k)) * total.real / np.pi
    values = rho.real
    if domain == "k":
        values = values * 2.0 * k
    return DensityProfile(
        k_grid=k, values=values,
        truncation=f"{sum(cls.multiplicity for cls in orbits)} primitive orbits",
        nu_max=nu_max, eta=eta,
    )


def rho_resummed(
    pot: NStepPotential,
    orbits: Sequence[OrbitClass],
    k_grid: Sequence[float],
    eta: float = 0.0,
    domain: str = "energy",
) -> DensityProfile:
    """Repetition sum closed into its geometric form z / (1 - z).

    z = A e^{i s0 (k + i eta)} per orbit class, weighted by its multiplicity.
    Grid points within 1e-6 of a pole of the geometric series
    (|1 - z| < 1e-6, reachable only when |A| -> 1, e.g. the transmitting
    orbit at r = 0) are rejected with an error.
    """
    k = _check_args(k_grid, eta, domain)
    rho = _weyl_density(pot, k)
    kc = k + 1j * eta
    for cls, phase in _phases(orbits, kc):
        amp = amplitude(cls, pot)
        z = amp * phase
        gap = np.abs(den := 1.0 - z)
        if np.any(gap < _POLE_TOLERANCE):
            bad = k[gap < _POLE_TOLERANCE][0]
            raise ValueError(
                f"grid point k={bad!r} lies within {_POLE_TOLERANCE} of a pole "
                f"of the resummed series (|amplitude| = {abs(amp)!r})"
            )
        rho = rho + (cls.multiplicity * cls.s0 / (2.0 * k)) * (z / den).real / np.pi
    values = rho * 2.0 * k if domain == "k" else rho
    return DensityProfile(
        k_grid=k, values=values,
        truncation=f"{sum(cls.multiplicity for cls in orbits)} primitive orbits, resummed",
        nu_max=None, eta=eta,
    )


def newtonian_prediction(pot: NStepPotential, m_max: int) -> np.ndarray:
    """Level comb 2 pi m / s0_N from the single bouncing orbit alone.

    s0_N = 2 (l1 + l2) is the reduced action of the orbit that crosses the step
    ballistically.  Exact for lam = 0 and for the degenerate geometry
    l1 = l2; otherwise a systematically wrong prediction, which is the point
    of comparing it against the full orbit sum.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max!r}")
    s0_newton = 2.0 * pot.total_length
    return 2.0 * np.pi * np.arange(1, m_max + 1) / s0_newton


def zeta(pot: NStepPotential, orbits: Sequence[OrbitClass], k) -> complex | np.ndarray:
    """Spectral determinant product prod_p (1 - A_p e^{i s0_p k}).

    Each orbit class contributes its factor to the power of its multiplicity.
    Over the full primitive orbit set this reproduces det(1 - S(k)); truncated
    sets give an entire function whose small-|Z| dips localize the spectrum.
    Accepts real or complex k (scalar or array).
    """
    karr = np.asarray(k, dtype=complex)
    out = np.ones_like(karr)
    for cls in orbits:
        out = out * (1.0 - amplitude(cls, pot) * np.exp(1j * cls.s0 * karr)) ** cls.multiplicity
    return complex(out) if karr.ndim == 0 else out


def cycle_expansion(orbits: Sequence[OrbitClass]) -> dict[tuple[int, int, int], int]:
    """Expand prod_p (1 - A_p x^n_l y^n_r) into exact integer cells.

    x = e^{2ik l1}, y = e^{2ik l2}, and A_p = sign r^sigma t^tau2.  Each class
    factor is raised to its multiplicity binomially, and the product is cut at
    total length n_l + n_r <= the longest class given.  Cell (n_l, n_r, tau2)
    holds the coefficient of r^(n_l + n_r - tau2) t^tau2 x^n_l y^n_r; zero cells
    are dropped.  Over orbit_classes(pot, L) with L >= 2 every cell past
    degree 2 cancels, leaving det(1 - S) = 1 + r x - r y - (r^2 + t^2) x y.
    """
    max_length = max((cls.length for cls in orbits), default=0)
    cells = {(0, 0, 0): 1}
    for cls in orbits:
        powers = [
            (j * cls.length, j * cls.n_l, j * cls.n_r, j * cls.tau2,
             math.comb(cls.multiplicity, j) * (-cls.sign) ** j)
            for j in range(1, min(cls.multiplicity, max_length // cls.length) + 1)
        ]
        grown = dict(cells)
        for (n_l, n_r, tau2), coeff in cells.items():
            for length, d_l, d_r, d_tau2, weight in powers:
                if n_l + n_r + length > max_length:
                    break
                key = (n_l + d_l, n_r + d_r, tau2 + d_tau2)
                grown[key] = grown.get(key, 0) + coeff * weight
        cells = {key: coeff for key, coeff in grown.items() if coeff}
    return cells

