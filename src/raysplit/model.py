"""Scaled step potentials and the chains they form.

A scaled potential on the unit interval is piecewise constant, V = lam_i * E
on region i, with hard walls at both ends.  Because each step height scales
with energy, the classical dynamics is the same at every E and all spectral
quantities are functions of the wavenumber k alone (units with hbar = 1,
mass 1/2, E = k^2).  Inside region i the local wavenumber is beta_i * k with
beta_i = sqrt(1 - lam_i), which motivates measuring each region by its
weighted length beta_i * (width).

There is one potential type, the N-region chain.  The single step at x = b of
strength lam is its two-region member: build_potential(b, lam) is
build_nstep((0, b, 1), (0, lam)), and step_parameters reads its weighted
lengths l1, l2 and interface coefficients r, t, which is all the orbit
picture needs of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["NStepPotential", "build_nstep", "build_potential", "interface_coefficients",
           "step_parameters"]


def _split(a):
    """Dekker's split a = hi + lo into halves whose products are exact."""
    t = 134217729.0 * a    # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


class ContractFailure(RuntimeError):
    """A requested verification did not hold (the CLI's exit code 1)."""


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
    def total_length(self) -> float:
        """Sum of weighted lengths, Omega; the mean level spacing is pi / Omega."""
        return sum(self.lengths)


def build_potential(b: float, lam: float) -> NStepPotential:
    """The single scaled step at x = b with strength lam, as a two-region chain.

    Validates 0 < b < 1 and 0 <= lam < 1, raising ValueError naming the
    offending parameter when out of range.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got b={b!r}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got lambda={lam!r}")
    return build_nstep((0.0, b, 1.0), (0.0, lam))


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


def step_parameters(pot: NStepPotential) -> tuple[float, float, float, float]:
    """(l1, l2, r, t) of a two-region chain: its weighted lengths and the
    reflection and transmission coefficients of its one interface.

    Raises ValueError for any other region count.
    """
    if len(pot.lengths) != 2:
        raise ValueError(f"a single step has two regions, got a potential "
                         f"with {len(pot.lengths)}")
    return (*pot.lengths, *interface_coefficients(*pot.betas))
