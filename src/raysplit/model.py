"""Scaled step potentials and their derived spectral parameters.

A scaled step potential on the unit interval takes the value V = lam * E on
(b, 1) and zero on (0, b), with hard walls at both ends.  Because the step
height scales with energy, the classical dynamics is the same at every E and
all spectral quantities are functions of the wavenumber k alone (units with
hbar = 1, mass 1/2, E = k^2).  Inside the step region the local wavenumber is
kappa = beta * k with beta = sqrt(1 - lam), which motivates measuring each
region by its weighted length beta_i * (width).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class ContractFailure(RuntimeError):
    """A requested verification did not hold (the CLI's exit code 1)."""


@dataclass(frozen=True)
class ScaledStepPotential:
    """Single scaled step at x = b with strength lam.

    All derived quantities are fixed at construction:

    beta    sqrt(1 - lam), ratio of wavenumbers across the step
    l1, l2  weighted lengths b and beta * (1 - b) of the two regions
    omega1  l1 + l2, the total weighted length (mean level spacing pi/omega1)
    omega2  l1 - l2
    r, t    reflection and transmission coefficients of the step

    betas, lengths and total_length describe the same step as the two-region
    chain that NStepPotential spells out, so chain code serves both types.
    """

    b: float
    lam: float
    beta: float
    l1: float
    l2: float
    omega1: float
    omega2: float
    r: float
    t: float

    @property
    def betas(self) -> tuple[float, float]:
        return (1.0, self.beta)

    @property
    def lengths(self) -> tuple[float, float]:
        return (self.l1, self.l2)

    @property
    def total_length(self) -> float:
        return self.omega1


@dataclass(frozen=True)
class NStepPotential:
    """Piecewise-constant scaled potential with N regions.

    breakpoints are 0 = b_0 < b_1 < ... < b_N = 1 and lambdas holds one
    scaling constant per region.  lengths are the weighted bond lengths
    beta_i * (b_i - b_{i-1}).
    """

    breakpoints: tuple[float, ...]
    lambdas: tuple[float, ...]
    betas: tuple[float, ...]
    lengths: tuple[float, ...]

    @property
    def n_regions(self) -> int:
        return len(self.lambdas)

    @property
    def total_length(self) -> float:
        """Sum of weighted lengths; plays the role of omega1 for chains."""
        return sum(self.lengths)


def build_potential(b: float, lam: float) -> ScaledStepPotential:
    """Construct a ScaledStepPotential, validating 0 < b < 1 and 0 <= lam < 1.

    Raises ValueError naming the offending parameter when out of range.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got b={b!r}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got lambda={lam!r}")
    beta = math.sqrt(1.0 - lam)
    l1 = b
    l2 = beta * (1.0 - b)
    r = (1.0 - beta) / (1.0 + beta)
    t = math.sqrt(1.0 - r * r)
    return ScaledStepPotential(
        b=b, lam=lam, beta=beta, l1=l1, l2=l2,
        omega1=l1 + l2, omega2=l1 - l2, r=r, t=t,
    )


def build_nstep(breakpoints: Sequence[float], lambdas: Sequence[float]) -> NStepPotential:
    """Construct an NStepPotential from breakpoints and per-region lambdas.

    breakpoints must be strictly increasing from 0 to 1 and contain exactly
    one more entry than lambdas; every lambda must lie in [0, 1).
    """
    bps = tuple(float(x) for x in breakpoints)
    lams = tuple(float(x) for x in lambdas)
    if len(bps) != len(lams) + 1:
        raise ValueError(
            f"breakpoints must have one more entry than lambdas, "
            f"got {len(bps)} breakpoints for {len(lams)} lambdas"
        )
    if len(lams) < 1:
        raise ValueError("at least one region is required")
    if bps[0] != 0.0 or bps[-1] != 1.0:
        raise ValueError(f"breakpoints must start at 0 and end at 1, got {bps!r}")
    for a, c in zip(bps, bps[1:]):
        if not c > a:
            raise ValueError(f"breakpoints must be strictly increasing, got {bps!r}")
    for i, lam in enumerate(lams):
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"lambda must lie in [0, 1), got lambdas[{i}]={lam!r}")
    betas = tuple(math.sqrt(1.0 - lam) for lam in lams)
    lengths = tuple(bt * (c - a) for bt, a, c in zip(betas, bps, bps[1:]))
    return NStepPotential(breakpoints=bps, lambdas=lams, betas=betas, lengths=lengths)


def interface_coefficients(beta_left: float, beta_right: float) -> tuple[float, float]:
    """Reflection and transmission coefficients at an interface.

    For a wave arriving from the left region (wavenumber ratio beta_left)
    onto the right region (beta_right):

        r = (beta_left - beta_right) / (beta_left + beta_right)
        t = sqrt(1 - r^2)

    Antisymmetric in its arguments: swapping sides flips the sign of r and
    leaves t unchanged.
    """
    if beta_left <= 0.0:
        raise ValueError(f"beta_left must be positive, got {beta_left!r}")
    if beta_right <= 0.0:
        raise ValueError(f"beta_right must be positive, got {beta_right!r}")
    r = (beta_left - beta_right) / (beta_left + beta_right)
    t = math.sqrt(1.0 - r * r)
    return r, t
