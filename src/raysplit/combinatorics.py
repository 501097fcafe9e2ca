"""Exact sum rules over cyclic binary words.

Closed walks of even length 2M on the two-bond chain, grouped into cyclic
classes, carry rational primitive times T_w = M / nu_w and integer weights
read off adjacent pairs: beta_w reflection pairs, gamma_w transmission pairs
(beta_w + gamma_w = M) and a sign from the parity alpha_w of RR pairs.  Two
identities tie the family together exactly, independent of the potential:
summed against x^beta (1-x)^gamma the classes give the constant polynomial 1;
restricted to fixed beta they give the binomial coefficient C(M, beta).  Both
are verified here in exact rational arithmetic, never floating point.

The verifiers never list the classes.  raysplit.orbits counts the primitive
necklaces of each length by their R count and transmission count (a closed
form for the cyclic words by runs, then Moebius inversion over the divisors);
a class is a primitive necklace repeated nu times, and its RR-pair parity
follows from those two counts.  The cost is polynomial in M.  The tests
list the classes necklace by necklace as the oracle for these counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

from . import orbits as _orbits
from .model import build_potential

__all__ = [
    "PoissonCaseReport",
    "sum_rule_polynomial",
    "binomial_sums",
    "poisson_special_case_check",
]

_MAX_M = 64  # binomial_sums counts the classes, in time polynomial in M


def _check_m(m: int, cap: int) -> None:
    if not 1 <= m <= cap:
        raise ValueError(f"M must lie in [1, {cap}], got {m!r}")


def _signed_counts(m: int) -> dict[int, dict[int, int]]:
    """acc[beta][nu] = sum over classes with that beta and nu of (-1)^alpha.

    Counts the classes without listing them: a class of length 2M and
    repetition nu is u^nu for a primitive necklace u of length p = 2M / nu,
    counted by (n_r, tau2) in closed form by raysplit.orbits.  It has
    tau2 = nu * tau2(u), beta = (2M - tau2) / 2 and alpha = nu * rr(u) mod 2,
    where rr(u) = n_r(u) - tau2(u) / 2.  A cell is present exactly when some
    class falls in it, even if its signed sum is zero.
    """
    n = 2 * m
    acc: dict[int, dict[int, int]] = {}
    for p in _orbits._divisors(n):
        nu = n // p
        for (n_r, tau2), count in _orbits._primitive_necklace_counts(p).items():
            by_nu = acc.setdefault((n - nu * tau2) // 2, {})
            sign = -1 if nu * _orbits._rr_pairs(n_r, tau2) % 2 else 1
            by_nu[nu] = by_nu.get(nu, 0) + sign * count
    return acc


def binomial_sums(m: int) -> tuple[Fraction, ...]:
    """For each beta in 0..M, the exact sum of (-1)^alpha T_w over classes.

    Every entry must equal C(M, beta); returning the computed values rather
    than a verdict keeps the oracle reusable.
    """
    _check_m(m, _MAX_M)
    acc = _signed_counts(m)
    sums = []
    for beta in range(m + 1):
        total = Fraction(0)
        for nu, count in sorted(acc.get(beta, {}).items()):
            total += Fraction(m * count, nu)
        sums.append(total)
    return tuple(sums)


def sum_rule_polynomial(beta_sums: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], bool]:
    """Expand P(x) = sum_w T_w (-1)^alpha x^beta (1-x)^gamma exactly.

    beta_sums are the per-beta totals of binomial_sums(M); gamma = M - beta
    for every class, so the sum over classes collapses onto them.  Returns
    the coefficient tuple of P (degree M) and whether P is the constant
    polynomial 1.
    """
    m = len(beta_sums) - 1
    coeffs = [Fraction(0)] * (m + 1)
    for beta, total in enumerate(beta_sums):
        gamma = m - beta
        for j in range(gamma + 1):
            coeffs[beta + j] += total * comb(gamma, j) * (-1) ** j
    expected = [Fraction(1)] + [Fraction(0)] * m
    return tuple(coeffs), coeffs == expected


@dataclass(frozen=True)
class PoissonCaseReport:
    """Check of the degenerate geometry where both regions weigh the same.

    Choosing b = beta / (1 + beta) makes l1 = l2 = b, every orbit action an
    integer multiple of 2b, and the spectrum the exact comb n pi / (2b).  The
    report holds the action half; the comb roots are held by the root engine's
    tests (test_comb_roots_within_four_ulp, test_equal_length_geometry_roots
    and acceptance criterion 2).
    """

    lam: float
    b: float
    max_action_deviation: float
    ok: bool


def poisson_special_case_check(lam: float) -> PoissonCaseReport:
    """Verify that every orbit action of the equal-weight geometry, to length
    6, is an integer multiple of 2b, for a given lam in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    beta = sqrt(1.0 - lam)  # correctly rounded (IEEE 754), so b is the same on every platform
    b = beta / (1.0 + beta)
    action_dev = 0.0
    for cls in _orbits.orbit_classes(build_potential(b, lam), 6):
        multiple = cls.s0 / (2.0 * b)
        action_dev = max(action_dev, abs(multiple - round(multiple)))
    return PoissonCaseReport(lam=lam, b=b, max_action_deviation=action_dev,
                             ok=action_dev <= 1e-12)
