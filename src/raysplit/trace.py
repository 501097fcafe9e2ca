"""Level-density reconstruction from periodic orbits.

The oscillating part of the density of states is a sum over primitive orbits
and their repetitions, each contributing its period times the nu-th power of
a stability amplitude at phase nu * s0 * k.  Because the amplitudes decay
geometrically in nu, the repetition sum closes into a geometric form, and the
same data assembles into a spectral determinant whose zeros track the exact
levels.  Everything here is evaluated as a function of k while keeping the
energy-domain measure rho(E) dE; multiply by dE/dk = 2k for plots in k.

An orbit enters these sums only through its action and amplitude, which
depend on its length, R count and transmission count alone, so rho_trace,
rho_resummed and zeta take orbit classes (orbits.orbit_classes, or
orbits.classes_of for an explicit record list) and weight each class term by
its multiplicity.  cycle_expansion still takes records: it labels every
pseudo-orbit by its words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ScaledStepPotential
from .orbits import OrbitClass, OrbitRecord, amplitude

__all__ = [
    "DensityProfile",
    "PseudoOrbitTerm",
    "rho_trace",
    "rho_resummed",
    "newtonian_prediction",
    "zeta",
    "cycle_expansion",
    "evaluate_cycle_terms",
]

_POLE_TOLERANCE = 1e-6
_TERM_CAP = 2_000_000


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


def _check_grid(k_grid: np.ndarray) -> np.ndarray:
    k = np.asarray(k_grid, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("k_grid must be strictly positive (k = 0 is singular)")
    return k


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")


def rho_trace(
    pot: ScaledStepPotential,
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
    if domain not in ("energy", "k"):
        raise ValueError(f"domain must be 'energy' or 'k', got {domain!r}")
    _check_eta(eta)
    k = _check_grid(k_grid)
    rho = _weyl_density(pot, k).astype(complex)
    kc = k + 1j * eta
    for cls in orbits:
        base = amplitude(cls, pot) * np.exp(1j * cls.s0 * kc)
        term = base.copy()
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
    pot: ScaledStepPotential,
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
    if domain not in ("energy", "k"):
        raise ValueError(f"domain must be 'energy' or 'k', got {domain!r}")
    _check_eta(eta)
    k = _check_grid(k_grid)
    rho = _weyl_density(pot, k)
    kc = k + 1j * eta
    for cls in orbits:
        amp = amplitude(cls, pot)
        z = amp * np.exp(1j * cls.s0 * kc)
        gap = np.abs(1.0 - z)
        if np.any(gap < _POLE_TOLERANCE):
            bad = k[gap < _POLE_TOLERANCE][0]
            raise ValueError(
                f"grid point k={bad!r} lies within {_POLE_TOLERANCE} of a pole "
                f"of the resummed series (|amplitude| = {abs(amp)!r})"
            )
        rho = rho + (cls.multiplicity * cls.s0 / (2.0 * k)) * (z / (1.0 - z)).real / np.pi
    values = rho * 2.0 * k if domain == "k" else rho
    return DensityProfile(
        k_grid=k, values=values,
        truncation=f"{sum(cls.multiplicity for cls in orbits)} primitive orbits, resummed",
        nu_max=None, eta=eta,
    )


def newtonian_prediction(pot: ScaledStepPotential, m_max: int) -> np.ndarray:
    """Level comb 2 pi m / s0_N from the single bouncing orbit alone.

    s0_N = 2 omega1 is the reduced action of the orbit that crosses the step
    ballistically.  Exact for lam = 0 and for the degenerate geometry
    l1 = l2; otherwise a systematically wrong prediction, which is the point
    of comparing it against the full orbit sum.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max!r}")
    s0_newton = 2.0 * pot.omega1
    return 2.0 * np.pi * np.arange(1, m_max + 1) / s0_newton


def zeta(pot: ScaledStepPotential, orbits: Sequence[OrbitClass], k) -> complex | np.ndarray:
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


@dataclass(frozen=True)
class PseudoOrbitTerm:
    """One product of distinct primitive orbits in the expanded determinant.

    coefficient collects the expansion sign (-1)^(number of factors) times
    the orbit signs; r_power and t_power are the summed reflection and
    transmission exponents; action is the summed reduced action.
    """

    labels: tuple[str, ...]
    coefficient: int
    r_power: int
    t_power: int
    action: float


def cycle_expansion(
    orbits: Sequence[OrbitRecord],
    variable: str,
    max_power: int,
    s_max: float,
) -> dict[int, list[PseudoOrbitTerm]]:
    """Expand the determinant product into pseudo-orbit terms.

    Terms are products over distinct primitive orbits; each is kept when its
    total power of the chosen variable ('r' or 't') is <= max_power and its
    total action is <= s_max, and the result is grouped by that power.  The
    empty product contributes the constant 1 in group 0.  Grouping is by
    formal integer powers, so terms carrying the variable survive the
    expansion and simply evaluate to zero when that coefficient vanishes.
    """
    if variable not in ("r", "t"):
        raise ValueError(f"variable must be 'r' or 't', got {variable!r}")
    recs = list(orbits)
    for rec in recs:
        if rec.code.nu != 1:
            raise ValueError(f"orbit {rec.code.word!r} is not primitive")
    recs.sort(key=lambda rec: (rec.s0, rec.code.word))
    groups: dict[int, list[PseudoOrbitTerm]] = {
        0: [PseudoOrbitTerm(labels=(), coefficient=1, r_power=0, t_power=0, action=0.0)]
    }
    count = 1

    def var_power(rec: OrbitRecord) -> int:
        return rec.sigma if variable == "r" else rec.tau2

    def extend(start: int, labels, coeff: int, rp: int, tp: int, action: float):
        nonlocal count
        for i in range(start, len(recs)):
            rec = recs[i]
            new_action = action + rec.s0
            if new_action > s_max:
                continue
            new_rp = rp + rec.sigma
            new_tp = tp + rec.tau2
            power = new_rp if variable == "r" else new_tp
            if power > max_power:
                continue
            count += 1
            if count > _TERM_CAP:
                raise RuntimeError(
                    f"cycle expansion exceeded {_TERM_CAP} terms; tighten "
                    f"max_power or s_max"
                )
            term = PseudoOrbitTerm(
                labels=labels + (rec.code.word,),
                coefficient=-coeff * rec.sign,
                r_power=new_rp,
                t_power=new_tp,
                action=new_action,
            )
            groups.setdefault(power, []).append(term)
            extend(i + 1, term.labels, -coeff * rec.sign, new_rp, new_tp, new_action)

    extend(0, (), 1, 0, 0, 0.0)
    return groups


def evaluate_cycle_terms(
    groups: dict[int, list[PseudoOrbitTerm]],
    pot: ScaledStepPotential,
    k,
) -> complex | np.ndarray:
    """Sum all retained pseudo-orbit terms at wavenumber k.

    With nothing discarded this reproduces zeta over the same orbit set
    exactly; with cuts it differs by the discarded tail.
    """
    karr = np.asarray(k, dtype=complex)
    out = np.zeros_like(karr)
    for terms in groups.values():
        for term in terms:
            weight = term.coefficient * pot.r ** term.r_power * pot.t ** term.t_power
            out = out + weight * np.exp(1j * term.action * karr)
    return complex(out) if karr.ndim == 0 else out
